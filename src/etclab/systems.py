"""Benchmark closed loops, their certificates, and a sampled checker.

Two benchmarks ship with the package:

``lorenz_loop``
    The controlled Lorenz convection model under the static output
    feedback u = -((p1/p2) a + b) y with y = x1, together with the
    published analytic certificate (V = p1 x1^2 + p2 x2^2 + p2 x3^2,
    W = |e|, H = a(|x1| + |x2|), L = 0).  Only the output is
    transmitted, so the network error is scalar.  Note: the published
    gains do not actually satisfy the V-decay inequality for the
    standard parameter choice; ``check_assumption_sampled`` detects
    this.  See the README's known-limitations section.

``tabuada_loop``
    The planar state-feedback benchmark x' = Ax + Bu, u = Kx with
    A = [[0, 1], [-2, 3]], B = [0; 1], K = [1, -4]: the loop matrices
    collapse to A1 = -A2 = A + BK, B1 = -B2 = BK, and the quadratic
    certificate uses the published gains (eps2 = 0.68,
    gamma = 17.3495) with a P produced by the constructive design.

``check_assumption_sampled`` verifies all three certificate
inequalities at randomly sampled states.  The decay inequalities read
only the derivatives of V along f and of W along g, so it takes one
central difference along f and one along g per sample, not full
finite-difference gradients, and a zero derivative comes out as an exact
0.  It works through the samples in chunks of fixed size, so its memory
is bounded whatever the sample count, and draws each chunk with one call
of ``uniform_ball(rng, dim, radius, n)``, whose rows do not depend on the
chunk size.  That block draw replaced one draw per sample: every sample
moved, and no verdict or skip count did on the benchmark's ``certify``
units.  It has one evaluator, which hands
each term and each flow a column block of the chunk's samples: where both
the loop and the certificate declare ``columns`` (see ``model``) that is
one call per chunk; otherwise the callables count as undeclared and are
called once per column, on one state.  It reads only the terms, never how
a certificate was constructed, so it doubles as a falsification tool.
"""

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .lti import (
    ClosedLoopMatrices,
    LmiCertificate,
    LtiController,
    LtiPlant,
    assemble,
    design_certificate,
    extract_assumption,
)
from .errors import DimensionError
from .model import Certificate, ClosedLoopSystem, check_pairing, norm, per_column, sq_columns
from .sampling import check_int, uniform_ball

# Published gains for the planar state-feedback benchmark.
TABUADA_A = ((0.0, 1.0), (-2.0, 3.0))
TABUADA_B = ((0.0,), (1.0,))
TABUADA_K = ((1.0, -4.0),)
TABUADA_EPS2 = 0.68
TABUADA_GAMMA = 17.3495


def lorenz_loop(a: float = 10.0, b: float = 28.0, c: float = 8.0 / 3.0, p1: float = 2.0,
                p2: float = 30.0):
    """The Lorenz output-feedback benchmark and its analytic certificate.

    Requires a, b, c > 0, p1 > 1 and p2 > 2a (strict).  The certificate
    components are:

        V(x) = p1 x1^2 + p2 x2^2 + p2 x3^2
        W(e) = |e|,  L = 0,  H(x) = a (|x1| + |x2|)
        alpha(s) = min(a (p1 - 1), p2 - 2a, 2 p2 c) s^2
        delta(y) = a (p1 - 1) y^2
        gamma = sqrt(p2) ((p1/p2) a + b)

    gamma arises from bounding the cross term of V-dot: the feedback
    gain (p1/p2) a + b couples x2 to the measurement error, and a Young
    split with weight p2 yields gamma^2 = p2 ((p1/p2) a + b)^2.  For
    the standard parameters (10, 28, 8/3, 2, 30) this gives
    gamma = 157.01 and a dwell-time ceiling of 0.010004, which is what
    makes the customary choice T = 0.01 valid; a widely circulated
    variant of the formula with c in place of b gives a ceiling of
    0.086 but a trigger too loose to stabilize the loop.
    """
    if not (a > 0 and b > 0 and c > 0):
        raise ValueError("lorenz_loop requires a, b, c > 0")
    if not p1 > 1:
        raise ValueError(f"lorenz_loop requires p1 > 1 (got p1 = {p1:g})")
    if not p2 > 2 * a:
        raise ValueError(f"lorenz_loop requires p2 > 2a (got p2 = {p2:g}, 2a = {2 * a:g})")

    gain = (p1 / p2) * a + b

    # f and g unpack the float sequences they get (the simulator's lists, the
    # checker's array rows or column blocks) and return tuples; H reads one
    # state's view with item.  On Python floats every operation rounds as
    # numpy's scalars do, at a fraction of their cost, and overflows to inf
    # without a warning.  V keeps numpy's ** (a float ** raises OverflowError
    # past about 1.3e154), and works on columns as it stands.
    def f(x, e):
        x1, x2, x3 = x
        u = -gain * (x1 + e[0])
        return (a * (x2 - x1), b * x1 - x2 - x1 * x3 + u, x1 * x2 - c * x3)

    def g(x, e):
        # e = yhat - y with y = x1, so e' = -x1' = a (x1 - x2).
        return (a * (x[0] - x[1]),)

    def H(x):
        if x.ndim == 1:
            return a * (abs(x.item(0)) + abs(x.item(1)))
        return a * (abs(x[0]) + abs(x[1]))

    sys = ClosedLoopSystem(n_x=3, n_e=1, f=f, g=g, name="lorenz", columns=True)

    alpha_coef = min(a * (p1 - 1.0), p2 - 2.0 * a, 2.0 * p2 * c)
    delta_coef = a * (p1 - 1.0)
    gamma = math.sqrt(p2) * gain
    lo, hi = min(p1, p2), max(p1, p2)

    cert = Certificate(
        V=lambda x: p1 * x[0] ** 2 + p2 * x[1] ** 2 + p2 * x[2] ** 2,
        W=norm,
        H=H,
        delta=lambda y: delta_coef * (float(y.dot(y)) if y.ndim == 1 else sq_columns(y)),
        alpha=lambda s: alpha_coef * s * s,
        gamma=gamma,
        L=0.0,
        alpha_lower=lambda s: lo * s * s,
        alpha_upper=lambda s: hi * s * s,
        n_x=3,
        n_e=1,
        n_y=1,
        y_of_x=lambda x: x[:1],
        name="lorenz",
        columns=True,
    )
    return sys, cert


def lti_loop(plant: LtiPlant, ctrl: LtiController, cert: Certificate) -> ClosedLoopSystem:
    """The linear closed loop of (plant, ctrl); the certificate must pair with it."""
    sys = lti_loop_from_matrices(assemble(plant, ctrl), name="lti")
    check_pairing(sys, cert)
    return sys


def lti_loop_from_matrices(clm: ClosedLoopMatrices, name="lti") -> ClosedLoopSystem:
    """The flow maps x' = A1 x + B1 e, e' = A2 x + B2 e and their stacked matrix."""
    A1, B1, A2, B2 = clm.A1, clm.B1, clm.A2, clm.B2

    def f(x, e):
        return A1.dot(x) + B1.dot(e)

    def g(x, e):
        return A2.dot(x) + B2.dot(e)

    stacked = np.block([[A1, B1], [A2, B2]])
    return ClosedLoopSystem(clm.n_x, clm.n_e, f, g, stacked_matrix=stacked, name=name,
                            columns=True)


def tabuada_matrices() -> ClosedLoopMatrices:
    """The closed-loop blocks of the planar state-feedback benchmark."""
    return assemble(LtiPlant(A=TABUADA_A, B=TABUADA_B, C=np.eye(2)), LtiController(D=TABUADA_K))


def tabuada_loop() -> Tuple[ClosedLoopSystem, Certificate]:
    """The planar state-feedback benchmark with its published gains.

    P comes from the constructive design (smallest-gamma slack); the
    scalar gains are then pinned to the published values, which are
    feasible with that P because feasibility is monotone in mu
    (``extract_assumption`` checks it).
    """
    clm = tabuada_matrices()
    designed = design_certificate(clm, eps1=0.0, eps2=TABUADA_EPS2)
    published = LmiCertificate(
        P=designed.P, eps1=0.0, eps2=TABUADA_EPS2, mu=TABUADA_GAMMA**2
    )
    cert = extract_assumption(clm, published)
    sys = lti_loop_from_matrices(clm, name="lti-sf-tabuada")
    return sys, cert


BUILTIN_LOOPS: Dict[str, object] = {
    "lorenz": lorenz_loop,
    "lti-sf-tabuada": tabuada_loop,
}


@dataclass(eq=False)
class AssumptionReport:
    """Sampled verification of the three certificate inequalities.

    ``max_violation`` maps each inequality to the largest observed
    excess of its left-hand side over its right-hand side (<= 0 means it
    held at every sample, NaN counts as inf); ``scale`` is the largest finite
    magnitude either side reached, at least 1, which normalizes the threshold.
    """

    n_samples: int
    radius: float
    seed: int
    max_violation: Dict[str, float]
    scale: Dict[str, float]
    worst_point: Dict[str, tuple]
    n_skipped: int

    INEQUALITIES = ("v-bounds", "v-decay", "w-growth")
    RTOL = 1e-5  # pass threshold, relative to each inequality's scale

    def violation_excess(self, key):
        """Violation beyond the tolerance; > 0 means the check failed."""
        return self.max_violation[key] - self.RTOL * self.scale[key]

    @property
    def passed(self):
        return all(self.violation_excess(k) <= 0.0 for k in self.INEQUALITIES)

    def summary(self):
        lines = []
        for k in self.INEQUALITIES:
            verdict = "ok" if self.violation_excess(k) <= 0.0 else "VIOLATED"
            tol = self.RTOL * self.scale[k]
            lines.append(f"{k}: max violation {self.max_violation[k]:.6g} (tol {tol:.3g}) {verdict}")
        lines.append(f"skipped {self.n_skipped} samples near nondifferentiable points")
        return "\n".join(lines)


# Samples checked per batch of arrays, so memory stays flat in n_samples.
_CHUNK = 4096

# The certificate terms the checker evaluates, in their order after |x| and |e|.
_TERMS = ("V", "alpha_lower", "alpha_upper", "W", "H", "alpha", "delta")


def _shaped(out, shape, what):
    """out as a float array of the given shape; DimensionError naming ``what`` otherwise."""
    out = np.asarray(out, dtype=float)
    if out.shape != shape:
        raise DimensionError(f"{what} returned shape {out.shape}, but {shape} is needed")
    return out


def _evaluate(sys, cert, X, E, skip_band, call):
    """Nine rows (|x|, |e|, _TERMS), f, g at the kept samples, their indices; each
    callable goes through ``call`` (the identity or ``per_column``) on the column block."""
    n, xs, es = len(X), X.T, E.T
    nx, ne = call(norm)(xs), call(norm)(es)
    on = f"of certificate {cert.name!r}, one state per column,"
    y = _shaped(call(cert.y_of_x)(xs), (cert.n_y, n), "y_of_x " + on)
    args = (xs, nx, nx, es, xs, nx, y)
    terms = [_shaped(call(getattr(cert, name))(arg), (n,), f"{name} {on}")
             for name, arg in zip(_TERMS, args)]
    on = f"of loop {sys.name!r}, one state per column,"
    F = _shaped(call(sys.f)(xs, es), (sys.n_x, n), "f " + on).T
    G = _shaped(call(sys.g)(xs, es), (sys.n_e, n), "g " + on).T
    kept = np.flatnonzero(ne >= skip_band)
    return (nx, ne, *terms), F, G[kept], kept


def _along(fn, Z, D, h):
    """<grad fn(z), d> at each row z of Z with the row d of D, by central differences.

    One difference per row: fn at z +- h d/|d|, the quotient scaled by |d|.
    A zero d gives exactly 0 and a d that is not finite NaN, with no call of fn.
    Each side is one call of fn on the block of its points, one per column (an
    undeclared fn comes lifted by ``per_column``, so it is called once per column).
    Overflow warnings are the caller's to silence, as the checker does per chunk.
    """
    size = np.sqrt(np.einsum("ij,ij->i", D, D))
    out = np.where(np.isfinite(size), 0.0, np.nan)
    live = np.flatnonzero((size > 0.0) & (size < np.inf))
    if not live.size:
        return out
    size, h = size[live], h[live]
    step = (h / size)[:, None] * D[live]
    sides = (Z[live] + step, Z[live] - step)
    up, down = (np.asarray(fn(s.T), dtype=float) for s in sides)
    out[live] = (up - down) / (2.0 * h) * size
    return out


def check_assumption_sampled(
    sys: ClosedLoopSystem,
    cert: Certificate,
    n_samples=10_000,
    radius=50.0,
    seed=0,
) -> AssumptionReport:
    """Check the certificate inequalities at sampled states.

    Draws (x, e) uniformly in the ball of the given radius, evaluates

        alpha_lower(|x|) <= V(x) <= alpha_upper(|x|)
        <grad V(x), f(x, e)> <= -alpha(|x|) - H(x)^2 - delta(y) + gamma^2 W(e)^2
        <grad W(e), g(x, e)> <= L W(e) + H(x)

    with y = cert.y_of_x(x), the output the trigger reads, and reports the
    worst violation of each; a NaN one (a term or a flow giving NaN, or
    inf - inf far out) counts as +inf, -inf (an overflowed right side) as
    held, and numpy warns of none of them.  The left sides
    of the decay inequalities are directional derivatives, each taken by
    one central difference of V along f/|f| (step 1e-6 max(1, |x|)) and of
    W along g/|g| (step 1e-6 |e|), times |f| or |g|, not from a full
    finite-difference gradient; a zero f or g gives exactly 0.  Samples are
    checked in chunks of a fixed size, so memory does not grow with
    n_samples.  One evaluator serves every loop: when both sys and cert
    declare ``columns``, each term, each flow and each side of a difference
    is called once per chunk on a block of its samples, one per column;
    otherwise they are undeclared callables and are called once per column.
    A term, flow or output map that returns the wrong shape raises
    DimensionError naming it.
    Samples too close to the nondifferentiable set
    of W (e = 0 for norm-type W) are skipped for the W inequality only.
    Violations are data, not exceptions; a sample count that is not an
    integer >= 1 or a radius outside (0, inf) raises ValueError, since no
    sample would then be evidence, and a certificate of other dimensions
    than the loop raises DimensionError.
    """
    check_pairing(sys, cert)
    check_int(n_samples, "n_samples", 1)
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    check_int(seed, "seed")
    rng = np.random.default_rng(seed)
    n_x, dim = sys.n_x, sys.n_x + sys.n_e
    g2 = cert.gamma * cert.gamma
    skip_band = 1e-6 * max(1.0, radius)

    keys = AssumptionReport.INEQUALITIES
    max_v = {k: -np.inf for k in keys}
    scale = {k: 1.0 for k in keys}
    worst = {k: None for k in keys}
    skipped = 0

    def note(key, excess, X, E, *sides):
        # Keep the first largest excess (NaN as +inf) at the samples (X, E) if it
        # beats the earlier chunks'; the scale grows to the largest finite |side|.
        if excess.size:
            excess = np.where(np.isnan(excess), np.inf, excess)
            i = int(np.argmax(excess))
            if excess[i] > max_v[key]:
                max_v[key], worst[key] = float(excess[i]), (X[i].copy(), E[i].copy())
        for side in sides:
            scale[key] = float(np.max(np.abs(side), initial=scale[key], where=np.isfinite(side)))

    call = (lambda fn: fn) if sys.columns and cert.columns else per_column
    for start in range(0, n_samples, _CHUNK):
        # Overflow and NaN in the terms, the flows and the differences are data
        # (infinite violations), so numpy warns of none of them in a chunk.
        with np.errstate(over="ignore", invalid="ignore"):
            n = min(_CHUNK, n_samples - start)
            Z = uniform_ball(rng, dim, radius, n)
            X, E = Z[:, :n_x], Z[:, n_x:]
            (nx, ne, v, lo, hi, w, hx, a, d), F, G, kept = _evaluate(sys, cert, X, E, skip_band,
                                                                     call)
            skipped += n - len(kept)

            Xk, Ek = X[kept], E[kept]
            lhs_v = _along(call(cert.V), X, F, 1e-6 * np.fmax(1.0, nx))
            lhs_w = _along(call(cert.W), Ek, G, 1e-6 * ne[kept])
            note("v-bounds", np.maximum(lo - v, v - hi), X, E, v)
            rhs = -a - hx * hx - d + g2 * w * w
            note("v-decay", lhs_v - rhs, X, E, lhs_v, rhs)
            rhs = cert.L * w[kept] + hx[kept]
            note("w-growth", lhs_w - rhs, Xk, Ek, lhs_w, rhs)

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
