"""Transmission scheduling: dwell-time ceiling and flow/jump membership.

The central quantity is the maximum allowable sampling period
masp(gamma, L): the largest inter-transmission time that time-driven
sampling could tolerate for a loop certified with gains (gamma, L).
The enforced dwell time T must be chosen strictly below it.

masp has a closed form with three branches,

    (1/(L r)) * arctan(r)    for gamma > L,   r = sqrt((gamma/L)^2 - 1)
    1/L                      for gamma = L
    (1/(L r)) * arctanh(r)   for gamma < L,   r = sqrt(1 - (gamma/L)^2)

and coincides with the limit of the transit time of a scalar comparison
ODE,

    zeta' = -2 L zeta - lam (zeta^2 + 1),   zeta(0) = 1/theta,

where lam = sqrt(gamma^2 + eta): the time zeta takes to fall from
1/theta to theta tends to masp(gamma, L) as (theta, eta) -> (0, 0).
The ODE is a Riccati equation with a closed-form solution:
``zeta_solution`` gives zeta(tau) for the envelope monitor, and
``zeta_time`` gives the transit time from the same three branches.  The
tests cross-check the transit time against a quadrature of the ODE.

``TriggerConfig.membership`` states the flow set C and the jump set D
once, over the event excess h(x, e) of ``event_function``:

    output-feedback   h = gamma^2 W(e)^2 - delta(y)
    state-feedback    h = gamma^2 W(e)^2 - sigma (alpha(|x|) + H(x)^2
                          + delta(x))
    pure-event        the state-feedback h with T = 0 (baseline)
    periodic          no h: the clock alone (time-driven baseline)

With a dwell, C is h <= 0 or tau in [0, T], and D, its boundary, is
h >= 0 and tau >= T with h = 0 or tau = T; pure-event has C: h <= 0,
D: h >= 0, and periodic C: tau in [0, T], D: tau = T.  Equality cases
belong to both C and D; the simulator's jump policy restores determinism.
For a certificate from ``lti.extract_assumption`` each h is a quadratic
form z^T Q z of z = (x, e); ``event_form`` gives Q, and ``event_screen``
the simulator's two uses of it: a row test, which only skips states, and the
coefficients of z(s)^T Q z(s) along a step, which place a jump the closure
has decided.  Neither decides a jump.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigError
from .model import Certificate

MODES = ("output-feedback", "state-feedback", "pure-event", "periodic")
SCREEN_RTOL = 1e-12  # ``event_screen``'s margin, per |Q|_inf
_TINY = np.finfo(float).tiny


def masp(gamma, L):
    """Maximum allowable sampling period for gains (gamma, L).

    Degenerate cases: L = 0, or L below gamma * 1e-150, returns the
    analytic limit pi/(2 gamma); gamma = 0 with L > 0 returns
    ``math.inf`` (the arctanh branch diverges); gamma = L = 0 is an
    error since the gains then carry no stabilizing information.
    Non-finite or negative gains raise ValueError.
    """
    _check_gains(gamma, L, "masp")
    if gamma == 0 and L == 0:
        raise ConfigError("masp is undefined for gamma = L = 0")
    if L == 0 or gamma / L > 1e150:
        # Past gamma/L ~ 1e154 r overflows and the arctan branch reads 0;
        # from 1e150 on it equals pi/(2 gamma) to double precision.
        return math.pi / (2.0 * gamma)
    if gamma == 0:
        return math.inf
    ratio = gamma / L
    if ratio > 1.0:
        r = math.sqrt(ratio * ratio - 1.0)
        return math.atan(r) / (L * r)
    if ratio < 1e-150:  # ratio^2 underflows, r = 1: atanh(r) = log((1 + r) / ratio)
        return (math.log(2.0) + math.log(L) - math.log(gamma)) / L
    if ratio < 1.0:
        # atanh(r) = 0.5 log1p(2r / (1 - r)) and 1 - r = ratio^2 / (1 + r): no
        # cancellation as gamma/L -> 0.
        r = math.sqrt(1.0 - ratio * ratio)
        return 0.5 * math.log1p(2.0 * r * (1.0 + r) / (ratio * ratio)) / (L * r)
    return 1.0 / L


@dataclass(frozen=True)
class ZetaParams:
    """Parameters (theta, eta) of the comparison ODE."""

    theta: float
    eta: float

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if not 0.0 < self.eta < math.inf:
            raise ValueError("eta must be positive and finite")

    def lam(self, gamma):
        """The ODE coefficient lam = sqrt(gamma^2 + eta)."""
        return math.sqrt(gamma * gamma + self.eta)


def _check_gains(gamma, L, caller):
    if not (0 <= gamma < math.inf and 0 <= L < math.inf):
        raise ValueError(f"{caller}: gamma and L must be finite and nonnegative")


def _comparison_ode(gamma, L, zp, caller):
    """(lam, a, z0, c, r) of the comparison ODE, as zeta_solution defines them."""
    _check_gains(gamma, L, caller)
    lam = zp.lam(gamma)
    a = L / lam
    c = 1.0 - a * a
    return lam, a, 1.0 / zp.theta, c, math.sqrt(abs(c))


def _fall_time(lam, a, z0, c, r, end):
    """The time at which zeta_solution's zeta falls from z0 to end >= 0.

    That is atan(r s)/(lam r), s/lam or atanh(r s)/(lam r) at s = (z0 - end) / d with
    d = 1 + a z0 + end (z0 + a).  As a - r = 1/(a + r), d (1 - r s) = 1 + z0/(a + r)
    + end (z0 + a + r), so atanh(r s) = log1p(2 r s / (1 - r s)) / 2 does not cancel.
    """
    if c < 0.0:
        x = 2.0 * r * (z0 - end) / (1.0 + z0 / (a + r) + end * (z0 + a + r))  # 2 r s / (1 - r s)
        return 0.5 * math.log1p(x) / (lam * r)
    s = (z0 - end) / (1.0 + a * z0 + end * (z0 + a))
    if c > 0.0:
        return math.atan(r * s) / (lam * r)
    return s / lam


def zeta_time(gamma, L, zp):
    """Transit time of the comparison ODE from 1/theta down to theta: finite, positive."""
    return _fall_time(*_comparison_ode(gamma, L, zp, "zeta_time"), zp.theta)


def zeta_solution(gamma, L, zp):
    """The comparison ODE in closed form: returns tau -> max(zeta(tau), 0).

    With a = L/lam and u = zeta + a it reads u' = -lam (u^2 + 1 - a^2).
    From u0 = 1/theta + a the solution has three branches, mirroring masp:
    r tan(atan(u0/r) - lam r tau) for a < 1 (r = sqrt(1 - a^2)),
    u0 / (1 + lam u0 tau) for a = 1, and r coth(atanh(r/u0) + lam r tau)
    for a > 1 (r = sqrt(a^2 - 1)).  By the addition theorems all three are
    u = (u0 - c s) / (1 + u0 s) with c = 1 - a^2 and s = tan(lam r tau)/r,
    lam tau or tanh(lam r tau)/r, which stays well conditioned as a -> 1.
    zeta falls monotonically and stays at 0 after crossing it.
    """
    lam, a, z0, c, r = _comparison_ode(gamma, L, zp, "zeta_solution")
    tau_zero = _fall_time(lam, a, z0, c, r, 0.0)  # zeta reaches 0 here

    def zeta(tau):
        if tau >= tau_zero:
            return 0.0
        if c > 0.0:
            s = math.tan(lam * r * tau) / r
        elif c < 0.0:
            x = lam * r * tau
            if x > 0.5:
                # tanh(x) = r s saturates at 1, and 1 - r s cancels in the
                # numerator; its complement d = 1 - r s = 2 q / (1 + q), q = e^(-2x),
                # and a - r = 1/(a + r) keep the digits up to the zero crossing.
                q = math.exp(-2.0 * x)
                d = 2.0 * q / (1.0 + q)
                num = (1.0 + a * z0) * d - 1.0 - z0 / (a + r)
                return max(num / (r + (z0 + a) * (1.0 - d)), 0.0)
            s = math.tanh(x) / r
        else:
            s = lam * tau
        # zeta = u - a, expanded so that zeta(0) is exactly 1/theta.
        return max((z0 - (1.0 + a * z0) * s) / (1.0 + (z0 + a) * s), 0.0)

    return zeta


@dataclass(frozen=True)
class TriggerConfig:
    """When to transmit: mode, dwell time T and event scaling sigma."""

    mode: str
    T: float = 0.0
    sigma: Optional[float] = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown trigger mode {self.mode!r}, expected one of {MODES}")
        if self.mode == "pure-event":
            if self.T != 0.0:
                raise ConfigError("pure-event mode requires T == 0")
        elif not self.T > 0.0:
            raise ConfigError(f"{self.mode} mode requires a dwell time T > 0")
        if self.mode in ("state-feedback", "pure-event"):
            if self.sigma is None or not 0.0 < self.sigma < 1.0:
                raise ConfigError(f"{self.mode} mode requires sigma in (0, 1)")
        elif self.sigma is not None:
            raise ConfigError(f"{self.mode} mode takes no sigma, got {self.sigma!r}")

    def membership(self, h, tau, tol=0.0):
        """(in C, in D) for the event excess h and the clock tau.

        h is ``event_function``'s value at the state, None in periodic mode.
        ``tol`` relaxes D's equality comparisons only, as sampled trajectory
        states need; the default is the exact set definition.
        """
        T = self.T
        if self.mode == "periodic":
            return tau <= T, abs(tau - T) <= tol
        if self.mode == "pure-event":
            return h <= 0.0, h >= -tol
        # D: the excess reaches 0 after the dwell, or is already >= 0 at its expiry.
        jump = (abs(h) <= tol and tau >= T - tol) or (h >= -tol and abs(tau - T) <= tol)
        return h <= 0.0 or tau <= T, jump

    def validate_against(self, cert: Certificate):
        """Check T against the dwell-time ceiling of the certificate."""
        if self.mode == "pure-event":
            return
        ceiling = masp(cert.gamma, cert.L)
        if not self.T < ceiling:
            raise ConfigError(
                f"dwell time exceeds MASP: T = {self.T:g} but "
                f"masp(gamma={cert.gamma:g}, L={cert.L:g}) = {ceiling:g}"
            )


def event_function(cert: Certificate, cfg: TriggerConfig):
    """The event excess h(x, e): jumps become possible once h >= 0.

    Returns None for periodic mode (which jumps on the clock alone).
    """
    g2 = cert.gamma * cert.gamma
    if cfg.mode == "output-feedback":

        def h(x, e):
            w = cert.W(e)
            return g2 * w * w - cert.delta(cert.y_of_x(x))

        return h
    if cfg.mode in ("state-feedback", "pure-event"):
        # The excess evaluates delta at x where the decay inequality has
        # delta(y): it holds only if the whole state is the one transmitted output.
        if not cert.n_y == cert.n_e == cert.n_x:
            raise ConfigError(
                f"{cfg.mode} mode requires a full-state output transmitted alone "
                f"(n_y == n_e == n_x), but the certificate has n_y = {cert.n_y}, "
                f"n_e = {cert.n_e}, n_x = {cert.n_x}"
            )
        sigma = cfg.sigma

        def h(x, e):
            w = cert.W(e)
            hx = cert.H(x)
            nx = math.sqrt(x.dot(x))
            return g2 * w * w - sigma * (cert.alpha(nx) + hx * hx + cert.delta(x))

        return h
    return None


def event_form(cert: Certificate, cfg: TriggerConfig):
    """The symmetric Q with h(x, e) = z^T Q z, z = (x, e), for ``event_function``'s h.

    Built from the certificate's ``lti_form`` and its live gamma:

        output-feedback               diag(-eps1 Cbar^T Cbar, gamma^2 I)
        state-feedback, pure-event    diag(-sigma (eps2 I + A2^T A2 + eps1 I), gamma^2 I)

    (the state-feedback excess takes delta at x, hence eps1 I).  None in
    periodic mode and without an ``lti_form``; ``event_screen`` checks it.
    """
    if cert.lti_form is None or cfg.mode == "periodic":
        return None
    clm, cand = cert.lti_form
    n_x, n = clm.n_x, clm.n_x + clm.n_e
    if cfg.mode == "output-feedback":
        qx = cand.eps1 * (clm.Cbar.T @ clm.Cbar)
    else:
        eye = np.eye(n_x)
        qx = cfg.sigma * (cand.eps2 * eye + clm.A2.T @ clm.A2 + cand.eps1 * eye)
    Q = np.zeros((n, n))
    Q[:n_x, :n_x] = -qx
    Q[n_x:, n_x:] = cert.gamma * cert.gamma * np.eye(clm.n_e)
    return Q


class EventScreen(NamedTuple):
    """``event_screen``'s two maps of one current form Q."""

    quiet: Callable  # (Z, sq) -> the rows of Z that are cleared, as booleans
    coefficients: Callable  # V -> c with z(s)^T Q z(s) = sum_k c_k s^k for z(s) = sum_i s^i v_i


@functools.lru_cache(maxsize=8)
def _antidiagonals(r):
    """i + j over the r x r index pairs, row by row, read-only: the bin of each G[i, j] in c."""
    k = np.arange(r)
    bins = np.add.outer(k, k).ravel()
    bins.setflags(write=False)
    return bins


def event_screen(cert: Certificate, cfg: TriggerConfig):
    """``EventScreen`` of ``event_form``'s Q; None where Q is None or stale.

    quiet(Z, sq) clears a row z of Z (sq: |z|^2) only if z^T Q z < -(margin |z|^2 + tiny), so
    h < 0 there: margin = ``SCREEN_RTOL`` |Q|_inf is far above the ~10 n eps |Q|_inf |z|^2 by
    which z^T Q z and h differ, and below tiny, the smallest normal float, rounding is absolute.
    coefficients(V) maps the rows v_0, ..., v_(r-1) of V to the 2r - 1 coefficients
    c_k = sum_(i+j=k) v_i^T Q v_j of the excess along z(s) = sum_i s^i v_i: one product
    V Q V^T and one sum over its anti-diagonals.  ``simulate`` places a linear loop's jump
    at their root once the closure has decided that the step fired; nonlinear loops and
    certificates whose screen is None keep the bisection.
    Q is stale (a copy kept ``lti_form`` but replaced terms) if h and z^T Q z differ by more
    than margin |z|^2 at any of three probe states, of sizes 1e-3, 1 and 1e3 with no zero
    component: the probes share the rows' z^T Q z and margin, and so test their bound.
    """
    Q = event_form(cert, cfg)
    if Q is None:
        return None
    margin = SCREEN_RTOL * np.abs(Q).sum(axis=1).max()

    def zqz(Z):
        return np.einsum("ij,ij->i", Z.dot(Q), Z)

    n_x, h = cert.n_x, event_function(cert, cfg)
    # The cosine of an integer is never 0, so no probe has a zero component.
    Z = np.cos(np.arange(1.0, 3 * len(Q) + 1)).reshape(3, -1) * np.array([[1e-3], [1.0], [1e3]])
    gap = np.abs(zqz(Z) - [h(z[:n_x], z[n_x:]) for z in Z])
    if not (gap <= margin * np.einsum("ij,ij->i", Z, Z)).all():  # NaN fails too
        return None

    def coefficients(V):
        return np.bincount(_antidiagonals(len(V)), weights=V.dot(Q).dot(V.T).ravel())

    return EventScreen(lambda Z, sq: zqz(Z) < -(margin * sq + _TINY), coefficients)
