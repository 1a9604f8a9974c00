"""Independent oracles used to cross-check the library implementations.

Each oracle deliberately uses a different algorithm than the code under
test: characteristic-polynomial bisection instead of a packaged
eigensolver, power iteration instead of an SVD, Kronecker vectorization
instead of a Schur-based Lyapunov solve, leading principal minors
instead of an eigenvalue test, the Schur complement instead of the full
LMI block matrix, one Lyapunov solve per design slack instead of two
that price the whole slack grid, the matrix exponential and a bracketing
root finder instead of RK4 steps and an event bisection, the exact
periodic map instead of the emulation bound of the MASP, coordinate-wise
gradients instead of one directional difference per inequality, numpy
scalars instead of Python floats in the Lorenz flows.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import scipy.linalg
import scipy.optimize

from etclab import AssumptionReport, DesignInfeasibleError, solve_lyapunov, spectral_norm
from etclab.sampling import uniform_ball


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


def lorenz_numpy_scalar_terms(a=10.0, b=28.0, c=8.0 / 3.0, p1=2.0, p2=30.0):
    """The Lorenz loop's f, g and H on the numpy scalars x[i] and e[0].

    The same expressions in the same order as ``lorenz_loop``'s closures,
    which the simulator calls on lists of Python floats instead.
    """
    gain = (p1 / p2) * a + b

    def f(x, e):
        x1, x2, x3 = x[0], x[1], x[2]
        u = -gain * (x1 + e[0])
        return np.array((a * (x2 - x1), b * x1 - x2 - x1 * x3 + u, x1 * x2 - c * x3))

    def g(x, e):
        return np.array((a * (x[0] - x[1]),))

    def H(x):
        return a * (abs(x[0]) + abs(x[1]))

    return f, g, H


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


def masp_arctanh_reference(gamma, L, digits=800):
    """masp on its arctanh branch (0 < gamma < L) in 800-digit decimal arithmetic.

    Evaluates atanh(r) / (L r) with r = sqrt(1 - (gamma/L)^2) as
    ln((1 + r) / (1 - r)) / (2 L r) on the exact values of the two
    doubles; 800 digits keep 1 - r exact enough down to subnormal gamma/L.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        g, l = Decimal(gamma), Decimal(L)
        ratio = g / l
        r = (1 - ratio * ratio).sqrt()
        return float(((1 + r) / (1 - r)).ln() / (2 * l * r))


def masp_arctan_reference(gamma, L, digits=60):
    """masp on its arctan branch (gamma > L > 0) in 60-digit decimal arithmetic.

    Evaluates atan(r) / (L r) with r = sqrt((gamma/L)^2 - 1) on the exact
    values of the two doubles.  atan is taken by halving its argument,
    atan(x) = 2 atan(x / (1 + sqrt(1 + x^2))), until |x| < 1e-2, then
    summing the Taylor series x - x^3/3 + x^5/5 - ...
    """
    with localcontext() as ctx:
        ctx.prec = digits
        g, l = Decimal(gamma), Decimal(L)
        ratio = g / l
        r = (ratio * ratio - 1).sqrt()
        x, scale = r, 1
        while x > Decimal("1e-2"):
            x, scale = x / (1 + (1 + x * x).sqrt()), 2 * scale
        total, power, k, eps = Decimal(0), x, 1, Decimal(10) ** -(digits + 5)
        while power > eps * x:
            total += power / k if k % 4 == 1 else -power / k
            power, k = power * x * x, k + 2
        return float(scale * total / (l * r))


def zeta_arctanh_reference(gamma, L, theta, eta, end, digits=60):
    """Time for the comparison ODE to fall from 1/theta to end, for L > sqrt(gamma^2 + eta).

    Evaluates the arctanh branch of ``trigger.zeta_solution``, atanh(r s) / (lam r)
    at s = (z0 - end) / (1 + a z0 + end (z0 + a)), as ln((1 + r s) / (1 - r s)) / (2 lam r)
    in 60-digit decimal arithmetic on the exact values of the doubles, with
    z0 = 1/theta, lam = sqrt(gamma^2 + eta), a = L/lam and r = sqrt(a^2 - 1).
    """
    with localcontext() as ctx:
        ctx.prec = digits
        g, l, th, et, end = map(Decimal, (gamma, L, theta, eta, end))
        lam = (g * g + et).sqrt()
        a = l / lam
        r = (a * a - 1).sqrt()
        z0 = 1 / th
        rs = r * (z0 - end) / (1 + a * z0 + end * (z0 + a))
        return float(((1 + rs) / (1 - rs)).ln() / (2 * lam * r))


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


def lmi_schur_residual(clm, cand):
    """Largest eigenvalue of the Schur-complement form of the LMI (mu > 0 required).

    The block matrix of ``lti.lmi_residual`` is negative semidefinite iff
    S + (1/mu) P B1 B1^T P is, with S = A1^T P + P A1 + A2^T A2
    + eps1 Cbar^T Cbar + eps2 I; the two residuals agree in sign.
    """
    if not cand.mu > 0:
        raise ValueError("Schur form requires mu > 0")
    P = 0.5 * (cand.P + cand.P.T)
    A1, B1, A2, Cbar = clm.A1, clm.B1, clm.A2, clm.Cbar
    S = (A1.T @ P + P @ A1 + A2.T @ A2 + cand.eps1 * (Cbar.T @ Cbar)
         + cand.eps2 * np.eye(P.shape[0]))
    PB = P @ B1
    return float(np.linalg.eigvalsh(S + (PB @ PB.T) / cand.mu).max())


def slack_grid_design(clm, eps1=1e-2, eps2=1e-2):
    """(P, mu) of the 20-slack design grid, solved slack by slack.

    Each slack rho gets its own Lyapunov solve with right-hand side
    base + rho I, a slack whose solve misses its residual bound is
    skipped, and the first smallest mu(rho) = |B1^T P(rho)|^2 / rho wins.
    """
    base = clm.A2.T @ clm.A2 + eps1 * (clm.Cbar.T @ clm.Cbar) + eps2 * np.eye(clm.n_x)
    scale = max(spectral_norm(base), np.finfo(float).tiny)
    best = None
    for rho in scale * np.logspace(-3, 3, 20):
        try:
            P = solve_lyapunov(clm.A1, base + rho * np.eye(clm.n_x))
        except DesignInfeasibleError:
            continue
        mu = spectral_norm(clm.B1.T @ P) ** 2 / rho
        if best is None or mu < best[1]:
            best = (P, mu)
    if best is None:
        raise DesignInfeasibleError("no slack solves the Lyapunov equation")
    return best


def periodic_map(clm, T):
    """Phi(T) = [I 0] expm(M T) [I; 0], with M = [[A1, B1], [A2, B2]].

    In periodic mode each transmission resets e to 0, so the states at the
    transmissions obey x_{k+1} = Phi(T) x_k exactly.
    """
    M = np.block([[clm.A1, clm.B1], [clm.A2, clm.B2]])
    return scipy.linalg.expm(M * T)[: clm.n_x, : clm.n_x]


class LtiHybridOracle:
    """The jump-priority hybrid solution of an LTI loop, from scipy alone.

    Goebel, Sanfelice and Teel, "Hybrid Dynamical Systems" (2012): flow
    z' = M z with M = [[A1, B1], [A2, B2]] by the exact exponential
    ``scipy.linalg.expm``, dwell until tau = T, then jump at the first
    time the excess z^T Q z reaches 0 (at tau = T if it already has);
    a jump resets e to 0 and tau to 0.  Q comes from the closed-loop blocks
    and the candidate's (eps1, eps2, gamma) with the trigger's sigma, not
    from the library's certificate terms:

        output-feedback   diag(-eps1 Cbar^T Cbar, gamma^2 I)
        state-feedback    diag(-sigma (eps2 I + A2^T A2 + eps1 Cbar^T Cbar), gamma^2 I)
        pure-event        the state-feedback Q, with T = 0
        periodic          no excess: jumps every T

    After the dwell the excess is scanned on a grid of spacing ``DS``, a
    tenth of the simulator's usual step, stepped by the powers of one
    ``expm(M DS)`` (``CHUNK`` grid points per product), and the first
    crossing is refined with ``scipy.optimize.brentq`` on expm(M s) z.  A
    crossing that opens and closes between two grid points is not seen.
    """

    DS = 1e-4
    CHUNK = 256

    def __init__(self, clm, eps1, eps2, gamma, mode, T=0.0, sigma=None):
        n_x, n_e = clm.n_x, clm.n_e
        self.M = np.block([[clm.A1, clm.B1], [clm.A2, clm.B2]])
        self.T = T
        self.Q = None
        if mode != "periodic":
            qx = eps1 * (clm.Cbar.T @ clm.Cbar)
            if mode != "output-feedback":
                qx = sigma * (eps2 * np.eye(n_x) + clm.A2.T @ clm.A2 + qx)
            self.Q = scipy.linalg.block_diag(-qx, gamma * gamma * np.eye(n_e))
        step = scipy.linalg.expm(self.M * self.DS)
        powers = [step]
        for _ in range(self.CHUNK - 1):
            powers.append(step @ powers[-1])
        self.powers = np.stack(powers)  # E^1, ..., E^CHUNK

    def excess(self, z):
        return float(z @ self.Q @ z)

    def flow(self, z, s):
        return scipy.linalg.expm(self.M * s) @ z

    def next_jump(self, z, tau, horizon):
        """Time from (z, tau) to the next jump, or None if it comes after ``horizon``."""
        s = max(self.T - tau, 0.0)
        if s > horizon:
            return None
        z = self.flow(z, s)
        if self.Q is None or self.excess(z) >= 0.0:
            return s
        while s < horizon:
            Z = self.powers @ z
            k = np.flatnonzero(np.einsum("ij,jk,ik->i", Z, self.Q, Z) >= 0.0)
            if k.size:
                k = int(k[0])
                z_prev = z if k == 0 else Z[k - 1]
                s += k * self.DS
                root = scipy.optimize.brentq(
                    lambda u: self.excess(self.flow(z_prev, u)), 0.0, self.DS, xtol=1e-14
                )
                return s + root if s + root <= horizon else None
            z, s = Z[-1], s + self.CHUNK * self.DS
        return None


def zeta_arctanh_value_reference(gamma, L, theta, eta, tau, digits=80):
    """zeta(tau) of the comparison ODE for L > sqrt(gamma^2 + eta), in 80-digit decimal arithmetic.

    Evaluates ``trigger.zeta_solution``'s formula (z0 - (1 + a z0) s) / (1 + (z0 + a) s)
    with s = tanh(lam r tau) / r as it stands, tanh(v) = 1 - 2 / (e^(2v) + 1), on the
    exact values of the doubles; 80 digits carry 1 - r s past 1e-60.  Negative
    values (after the zero crossing) are returned as they are.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        g, l, th, et, tau = map(Decimal, (gamma, L, theta, eta, tau))
        lam = (g * g + et).sqrt()
        a = l / lam
        r = (a * a - 1).sqrt()
        z0 = 1 / th
        s = (1 - 2 / ((2 * lam * r * tau).exp() + 1)) / r
        return float((z0 - (1 + a * z0) * s) / (1 + (z0 + a) * s))


def _grad_fd(fn, z, h):
    # Central differences on one working copy: set a coordinate, evaluate,
    # restore. fn must not keep a reference to its argument.
    g = np.empty(z.size)
    w = z.copy()
    for i in range(z.size):
        zi = w[i]
        w[i] = zi + h
        fp = fn(w)
        w[i] = zi - h
        g[i] = (fp - fn(w)) / (2.0 * h)
        w[i] = zi
    return g


def check_assumption_sampled_reference(sys, cert, n_samples=10_000, radius=50.0, seed=0):
    """``check_assumption_sampled`` one sample at a time, with full gradients.

    Draws the same points as the library checker and evaluates the same
    inequalities, but takes grad V and grad W by central differences along
    each coordinate (2 n_x calls of V and 2 n_e calls of W per sample) and
    dots them with f and g, recording each sample's violation as it goes.
    Arguments are not validated.
    """
    rng = np.random.default_rng(seed)
    dim = sys.n_x + sys.n_e
    g2 = cert.gamma * cert.gamma
    skip_band = 1e-6 * max(1.0, radius)

    keys = AssumptionReport.INEQUALITIES
    max_v = {k: -np.inf for k in keys}
    scale = {k: 1.0 for k in keys}
    worst = {k: None for k in keys}
    skipped = 0

    def note(key, lhs, rhs):
        # Record the violation of lhs <= rhs at the current sample (x, e); a NaN
        # violation counts as +inf, and -inf (rhs overflowed) as held.
        excess = lhs - rhs
        if math.isnan(excess):
            excess = math.inf
        if excess > max_v[key]:
            max_v[key], worst[key] = excess, (x.copy(), e.copy())

    def grow(key, *sides):
        # The scale is the largest finite |side|, starting at 1.
        scale[key] = max([scale[key], *(abs(s) for s in sides if math.isfinite(s))])

    for _ in range(n_samples):
        z = uniform_ball(rng, dim, radius)
        x, e = z[: sys.n_x], z[sys.n_x :]
        nx = math.sqrt(x.dot(x))

        v = cert.V(x)
        note("v-bounds", cert.alpha_lower(nx), v)
        note("v-bounds", v, cert.alpha_upper(nx))
        grow("v-bounds", v)

        h_v = 1e-6 * max(1.0, nx)
        grad_v = _grad_fd(cert.V, x, h_v)
        lhs = float(grad_v.dot(sys.f(x, e)))
        w, hx = cert.W(e), cert.H(x)
        rhs = -cert.alpha(nx) - hx**2 - cert.delta(cert.y_of_x(x)) + g2 * w * w
        note("v-decay", lhs, rhs)
        grow("v-decay", lhs, rhs)

        ne = math.sqrt(e.dot(e))
        if ne < skip_band:
            skipped += 1
        else:
            h_w = 1e-6 * ne
            grad_w = _grad_fd(cert.W, e, h_w)
            lhs = float(grad_w.dot(sys.g(x, e)))
            rhs = cert.L * w + hx
            note("w-growth", lhs, rhs)
            grow("w-growth", lhs, rhs)

    for k in keys:
        if max_v[k] == -np.inf:
            max_v[k] = 0.0

    return AssumptionReport(
        n_samples=n_samples,
        radius=radius,
        seed=seed,
        max_violation=max_v,
        scale=scale,
        worst_point=worst,
        n_skipped=skipped,
    )
