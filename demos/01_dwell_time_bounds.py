#!/usr/bin/env python3
"""Tour of the dwell-time ceiling masp(gamma, L) and the comparison ODE.

The ceiling is the largest sampling period a time-driven implementation
could tolerate for a loop certified with gains (gamma, L); every
dwell-enforced trigger in this package requires T strictly below it.
The transit time of the comparison ODE, which tends to the ceiling, is
also computed in closed form (``zeta_time``); the test suite checks it
against a quadrature of the ODE.
"""

from etclab import ZetaParams, masp, zeta_time

print("The three branches of the closed form")
print("-------------------------------------")
for gamma, L, label in [
    (2.0, 1.0, "gamma > L (arctan branch)"),
    (2.0, 2.0, "gamma = L (the 1/L seam)"),
    (1.0, 2.0, "gamma < L (arctanh branch)"),
]:
    print(f"  masp({gamma}, {L}) = {masp(gamma, L):.6f}   {label}")

print()
print("Degenerate gains")
print("----------------")
print(f"  masp(18.2574, 0) = {masp(18.2574, 0.0):.6f}  (limit pi/(2 gamma))")
print(f"  masp(0, 2)       = {masp(0.0, 2.0)}  (no exploitable decay: unbounded)")

print()
print("Benchmarks from the literature")
print("------------------------------")
print(f"  planar state feedback: masp(17.3495, 4.1231) = {masp(17.3495, 4.1231):.4f}")
print(f"  externally designed output loop: masp(89.9666, 4) = {masp(89.9666, 4.0):.4f}")

print()
print("The scalar comparison ODE")
print("------------------------")
print("zeta' = -2 L zeta - sqrt(gamma^2 + eta) (zeta^2 + 1), zeta(0) = 1/theta.")
print("Its transit time from 1/theta down to theta approaches masp(gamma, L)")
print("as (theta, eta) -> 0, and is decreasing in both parameters:")
gamma, L = 17.3495, 4.1231
print(f"\n  gamma = {gamma}, L = {L}, masp = {masp(gamma, L):.6f}")
print(f"  {'theta':>8} {'eta':>8} {'transit time':>14}")
for theta in (0.5, 0.1, 0.01, 1e-4):
    eta = theta / 100.0
    t = zeta_time(gamma, L, ZetaParams(theta=theta, eta=eta))
    print(f"  {theta:>8g} {eta:>8g} {t:>14.6f}")
print("\nThe last row sits within 1e-3 of masp.")
