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
inequalities at randomly sampled states with finite-difference
gradients; it is deliberately independent of how a certificate was
constructed, so it doubles as a falsification tool.
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
from .model import Certificate, ClosedLoopSystem, check_pairing
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

    def f(x, e):
        x1, x2, x3 = x[0], x[1], x[2]
        u = -gain * (x1 + e[0])
        return np.array((a * (x2 - x1), b * x1 - x2 - x1 * x3 + u, x1 * x2 - c * x3))

    def g(x, e):
        # e = yhat - y with y = x1, so e' = -x1' = a (x1 - x2).
        return np.array((a * (x[0] - x[1]),))

    sys = ClosedLoopSystem(n_x=3, n_e=1, f=f, g=g, name="lorenz")

    alpha_coef = min(a * (p1 - 1.0), p2 - 2.0 * a, 2.0 * p2 * c)
    delta_coef = a * (p1 - 1.0)
    gamma = math.sqrt(p2) * gain
    lo, hi = min(p1, p2), max(p1, p2)

    cert = Certificate(
        V=lambda x: p1 * x[0] ** 2 + p2 * x[1] ** 2 + p2 * x[2] ** 2,
        W=lambda e: math.sqrt(e.dot(e)),
        H=lambda x: a * (abs(x[0]) + abs(x[1])),
        delta=lambda y: delta_coef * float(y.dot(y)),
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
    return ClosedLoopSystem(clm.n_x, clm.n_e, f, g, stacked_matrix=stacked, name=name)


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


@dataclass
class AssumptionReport:
    """Sampled verification of the three certificate inequalities.

    ``max_violation`` maps each inequality to the largest observed
    excess of its left-hand side over its right-hand side (<= 0 means
    the inequality held at every sample); ``scale`` records the largest
    magnitude either side reached, which normalizes the pass threshold.
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
            lines.append(
                f"{k}: max violation {self.max_violation[k]:.6g} "
                f"(tol {self.RTOL * self.scale[k]:.3g}) {verdict}"
            )
        lines.append(f"skipped {self.n_skipped} samples near nondifferentiable points")
        return "\n".join(lines)


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

    with y = cert.y_of_x(x), the output the trigger reads, and
    central-difference gradients, and reports the worst violation
    of each; a violation that is not finite (a certificate term returning
    NaN, say) counts as infinite.  Samples too close to the
    nondifferentiable set of W (e = 0 for norm-type W) are skipped for
    the W inequality only.  Violations are data, not exceptions; a sample
    count that is not an integer >= 1 or a radius outside (0, inf) raises
    ValueError, since no sample would then be evidence, and a
    certificate of other dimensions than the loop raises DimensionError.
    """
    check_pairing(sys, cert)
    check_int(n_samples, "n_samples", 1)
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    check_int(seed, "seed")
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
        # Record the violation of lhs <= rhs at the current sample (x, e).
        excess = lhs - rhs
        if not math.isfinite(excess):
            excess = math.inf
        if excess > max_v[key]:
            max_v[key], worst[key] = excess, (x.copy(), e.copy())

    for _ in range(n_samples):
        z = uniform_ball(rng, dim, radius)
        x, e = z[: sys.n_x], z[sys.n_x :]
        nx = math.sqrt(x.dot(x))

        v = cert.V(x)
        note("v-bounds", cert.alpha_lower(nx), v)
        note("v-bounds", v, cert.alpha_upper(nx))
        scale["v-bounds"] = max(scale["v-bounds"], abs(v))

        h_v = 1e-6 * max(1.0, nx)
        grad_v = _grad_fd(cert.V, x, h_v)
        lhs = float(grad_v.dot(sys.f(x, e)))
        w, hx = cert.W(e), cert.H(x)  # H serves both right-hand sides
        rhs = -cert.alpha(nx) - hx**2 - cert.delta(cert.y_of_x(x)) + g2 * w * w
        note("v-decay", lhs, rhs)
        scale["v-decay"] = max(scale["v-decay"], abs(lhs), abs(rhs))

        ne = math.sqrt(e.dot(e))
        if ne < skip_band:
            skipped += 1
        else:
            h_w = 1e-6 * ne
            grad_w = _grad_fd(cert.W, e, h_w)
            lhs = float(grad_w.dot(sys.g(x, e)))
            rhs = cert.L * w + hx
            note("w-growth", lhs, rhs)
            scale["w-growth"] = max(scale["w-growth"], abs(lhs), abs(rhs))

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
