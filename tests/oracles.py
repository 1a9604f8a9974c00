"""Independent oracles used to cross-check the library implementations.

Each oracle deliberately uses a different algorithm than the code under
test: characteristic-polynomial bisection instead of a packaged
eigensolver, power iteration instead of an SVD, Kronecker vectorization
instead of a Schur-based Lyapunov solve, leading principal minors
instead of an eigenvalue test.
"""

import math

import numpy as np


def charpoly_eigenvalues(a, n_grid=4001, tol=1e-12):
    """Eigenvalues of a symmetric matrix via det-sign bisection.

    Scans a Gershgorin interval for sign changes of det(a - t I) and
    bisects each bracket.  Intended for small matrices with separated
    eigenvalues; the caller should assert the expected root count.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    row_radius = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
    lo = float((np.diag(a) - row_radius).min()) - 1.0
    hi = float((np.diag(a) + row_radius).max()) + 1.0

    eye = np.eye(n)

    def p(t):
        return float(np.linalg.det(a - t * eye))

    grid = np.linspace(lo, hi, n_grid)
    vals = np.array([p(t) for t in grid])
    roots = []
    for i in range(n_grid - 1):
        va, vb = vals[i], vals[i + 1]
        if va == 0.0:
            roots.append(float(grid[i]))
            continue
        if va * vb < 0.0:
            x0, x1, f0 = float(grid[i]), float(grid[i + 1]), va
            while x1 - x0 > tol:
                m = 0.5 * (x0 + x1)
                fm = p(m)
                if fm == 0.0:
                    x0 = x1 = m
                    break
                if f0 * fm < 0.0:
                    x1 = m
                else:
                    x0, f0 = m, fm
            roots.append(0.5 * (x0 + x1))
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    return np.array(sorted(roots))


def power_iteration_norm(m, n_iter=10_000, seed=1234):
    """Spectral norm via power iteration on m^T m."""
    m = np.asarray(m, dtype=float)
    ata = m.T @ m
    v = np.random.default_rng(seed).standard_normal(ata.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(n_iter):
        w = ata @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    return math.sqrt(float(v @ ata @ v))


def lyapunov_kronecker(a, q):
    """Solve a^T P + P a = -q by dense elimination on the vectorized system."""
    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    n = a.shape[0]
    eye = np.eye(n)
    k = np.kron(eye, a.T) + np.kron(a.T, eye)
    vec_p = np.linalg.solve(k, -q.flatten(order="F"))
    return vec_p.reshape((n, n), order="F")


def positive_definite_by_minors(m):
    """Sylvester's criterion: all leading principal minors positive."""
    m = np.asarray(m, dtype=float)
    return all(np.linalg.det(m[: k + 1, : k + 1]) > 0.0 for k in range(m.shape[0]))


def zeta_transit_time_reference(gamma, L, theta, eta, n=200_000):
    """Transit time of the comparison ODE by fixed-grid trapezoidal quadrature.

    Time to fall from 1/theta to theta equals the integral of
    1 / (lam (z^2 + 1) + 2 L z) over z in [theta, 1/theta]; substituting
    z = tan(u) keeps the integrand bounded.
    """
    lam = math.sqrt(gamma * gamma + eta)
    u0, u1 = math.atan(theta), math.atan(1.0 / theta)
    u = np.linspace(u0, u1, n)
    z = np.tan(u)
    # dz = sec^2(u) du = (z^2 + 1) du
    integrand = (z * z + 1.0) / (lam * (z * z + 1.0) + 2.0 * L * z)
    return float(np.trapezoid(integrand, u))


def zeta_rk4_step(z, h, L, lam):
    """One classical RK4 step of the comparison ODE zeta' = -2 L zeta - lam (zeta^2 + 1)."""

    def rate(v):
        return -2.0 * L * v - lam * (v * v + 1.0)

    k1 = rate(z)
    k2 = rate(z + 0.5 * h * k1)
    k3 = rate(z + 0.5 * h * k2)
    k4 = rate(z + h * k3)
    return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def scalar_lmi_feasible_bruteforce(s, b, mu):
    """Feasibility of [[s, b], [b, -mu]] <= 0 for scalars, in closed form."""
    # 2x2 symmetric matrix is NSD iff trace <= 0 and det >= 0.
    return (s - mu) <= 0.0 and (-s * mu - b * b) >= 0.0
