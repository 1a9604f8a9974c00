"""Transmission scheduling: dwell-time ceiling and flow/jump membership.

The central quantity is the maximum allowable sampling period
masp(gamma, L): the largest inter-transmission time that time-driven
sampling could tolerate for a loop certified with gains (gamma, L).
The enforced dwell time T must be chosen strictly below it.

masp is the limit of the transit time of a scalar comparison ODE,

    zeta' = -2 L zeta - lam (zeta^2 + 1),   zeta(0) = 1/theta,

where lam = sqrt(gamma^2 + eta): the time zeta takes to fall from
1/theta to theta tends to masp(gamma, L) as (theta, eta) -> (0, 0).
The ODE is a Riccati equation with a closed-form solution, which
``zeta_solution`` evaluates for the envelope monitor.  One closed form
of its transit times serves ``zeta_time`` and masp, the fall from
infinity to 0 at eta = 0 (only degenerate and far-out gains apart):

    (1/(L r)) * arctan(r)    for gamma > L,   r = sqrt((gamma/L)^2 - 1)
    1/L                      for gamma = L
    (1/(L r)) * arctanh(r)   for gamma < L,   r = sqrt(1 - (gamma/L)^2)

The tests cross-check the transit time against a quadrature of the ODE.

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
coefficients of z(s)^T Q z(s) along a step, which place a jump h has decided.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigError
from .model import Certificate, _check_gains

MODES = ("output-feedback", "state-feedback", "pure-event", "periodic")
SCREEN_RTOL = 1e-12  # ``event_screen``'s margin, per |Q|_inf
_TINY = np.finfo(float).tiny


def masp(gamma, L):
    """Maximum allowable sampling period for gains (gamma, L).

    That is ``_fall_time(gamma, L / gamma, 0.0, 0.0)`` save for degenerate
    and far-out gains: L = 0, or L below gamma * 1e-150, returns the
    analytic limit pi/(2 gamma); gamma below L * 1e-150 returns
    log(2 L / gamma) / L; gamma = 0 with L > 0 returns ``math.inf`` (the
    arctanh branch diverges); gamma = L = 0 is an error since the gains
    then carry no stabilizing information.  Non-finite or negative gains
    raise ValueError.
    """
    _check_gains(gamma, L, "masp")
    if gamma == 0 and L == 0:
        raise ConfigError("masp is undefined for gamma = L = 0")
    if L == 0 or gamma / L > 1e150:
        # a = L/gamma may underflow to 0, and s = 1/a divide by 0; from
        # gamma/L = 1e150 on the arctan branch is pi/(2 gamma) to double precision.
        return math.pi / 2.0 / gamma
    if gamma == 0:
        return math.inf
    if gamma / L < 1e-150:  # 2 r (a + r) overflows near a = 1e154; r = a, atanh(r s) = log(2 a)
        return (math.log(2.0) + math.log(L) - math.log(gamma)) / L
    return _fall_time(gamma, L / gamma, 0.0, 0.0)


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
        """The ODE coefficient lam = sqrt(gamma^2 + eta), finite also where gamma^2 overflows."""
        lam = math.sqrt(gamma * gamma + self.eta)
        return lam if lam < math.inf else math.hypot(gamma, math.sqrt(self.eta))


def _comparison_ode(gamma, L, zp, caller):
    """(lam, a, theta) of the comparison ODE, as zeta_solution defines them."""
    _check_gains(gamma, L, caller)
    lam = zp.lam(gamma)
    return lam, L / lam, zp.theta


def _branch(a):
    """(c, r): c = 1 - a^2, whose sign picks the branch, and r = sqrt(|c|), also if a^2 overflows."""
    c = 1.0 - a * a
    return c, math.sqrt(abs(c)) if c > -math.inf else math.sqrt(a - 1.0) * math.sqrt(a + 1.0)


def _fall_time(lam, a, theta, end):
    """The time at which zeta_solution's zeta falls from 1/theta to end >= 0.

    That is atan(r s)/(lam r), s/lam or atanh(r s)/(lam r) at s = (1 - end theta) / d with
    d = theta + a + end (1 + a theta); theta = 0 starts at infinity.  As a - r = 1/(a + r),
    d (1 - r s) = theta + 1/(a + r) + end (1 + theta (a + r)), so atanh(r s) =
    log1p(2 r s / (1 - r s)) / 2 does not cancel.
    """
    c, r = _branch(a)
    if c < 0.0:
        x = 2.0 * r * (1.0 - end * theta) / (theta + 1.0 / (a + r) + end * (1.0 + theta * (a + r)))
        return 0.5 * math.log1p(x) / (lam * r)  # x = 2 r s / (1 - r s)
    s = (1.0 - end * theta) / (theta + a + end * (1.0 + a * theta))
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
    lam, a, theta = _comparison_ode(gamma, L, zp, "zeta_solution")
    (c, r), z0 = _branch(a), 1.0 / theta
    tau_zero = _fall_time(lam, a, theta, 0.0)  # zeta reaches 0 here

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

    Returns None for periodic mode (which jumps on the clock alone).  Where
    gamma^2 overflows, the excess takes (gamma W(e))^2, which is 0 at e = 0
    where inf W^2 would be NaN; elsewhere it takes gamma^2 W(e)^2.
    """
    W, g2 = cert.W, cert.gamma * cert.gamma
    if not g2 < math.inf:
        W, g2 = (lambda e: cert.gamma * cert.W(e)), 1.0
    if cfg.mode == "output-feedback":

        def h(x, e):
            w = W(e)
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
            w = W(e)
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
    np.fill_diagonal(Q[n_x:, n_x:], cert.gamma * cert.gamma)  # inf where gamma^2 overflows
    return Q


class EventScreen(NamedTuple):
    """``event_screen``'s two maps of one current form Q, and |Q|_inf, by which it bounds them."""

    quiet: Callable  # Z -> the rows of Z that are cleared, as booleans
    coefficients: Callable  # V -> c with z(s)^T Q z(s) = sum_k c_k s^k for z(s) = sum_i s^i v_i
    norm: float  # |Q|_inf, the largest absolute row sum


@functools.lru_cache(maxsize=8)
def _antidiagonals(r):
    """i + j over the r x r index pairs, row by row, read-only: the bin of each G[i, j] in c."""
    k = np.arange(r)
    bins = np.add.outer(k, k).ravel()
    bins.setflags(write=False)
    return bins


@functools.lru_cache(maxsize=16)
@np.errstate(over="ignore", invalid="ignore")  # an overflowing probe gives no screen
def event_screen(cert: Certificate, cfg: TriggerConfig):
    """``EventScreen`` of ``event_form``'s Q; None where Q is None, not finite or stale.

    quiet(Z) clears a row z of Z only if z^T Q z < -(margin |z|^2 + tiny), so h < 0 there:
    margin = ``SCREEN_RTOL`` |Q|_inf is far above the ~10 n eps |Q|_inf |z|^2 by which
    z^T Q z and h differ, and below tiny, the smallest normal float, rounding is absolute.
    coefficients(V) maps the rows v_0, ..., v_(r-1) of V to the 2r - 1 coefficients
    c_k = sum_(i+j=k) v_i^T Q v_j of the excess along z(s) = sum_i s^i v_i: one product
    V Q V^T and one sum over its anti-diagonals.  Neither guards against overflow: for
    |z|_inf <= a and v_i = (M^i / i!) z each number they form, |z|^2 and v_i too, is at most
    max(q, B a^2) by its terms' sizes, where q = max(|Q|_inf, 1), S = sum_i |M^i / i!|_inf
    and B = n q S^2.  Rounding (u = 2^-53) adds at most (7n + 19) u to first order: (4n + 4) u
    to c_k (four dot products of n terms, a sum of five), (3n + 15) u to S^2, q, a^2 and the
    test.  ``simulate`` keeps a screen only where (1 + delta) B a^2 is finite for a = blowup_norm,
    which every state it screens passes, with delta = 16 (n + 3) u, twice the rounding.
    Q is stale (a copy kept ``lti_form`` but replaced terms) if h and z^T Q z differ by more
    than margin |z|^2 at any of three probe states, of sizes 1e-3, 1 and 1e3 with no zero
    component: the probes share the rows' z^T Q z and margin, and so test their bound.
    The 16 latest (certificate, config) pairs keep their screens; a certificate compares
    by identity and is frozen, so a batch's runs share one screen and one probe check, and
    a ``dataclasses.replace`` copy builds its own.
    """
    Q = event_form(cert, cfg)
    if Q is None or not np.isfinite(Q).all():  # an overflowed gamma^2 or term
        return None
    norm = float(np.abs(Q).sum(axis=1).max())
    margin = SCREEN_RTOL * norm

    def zqz(Z):
        return np.einsum("ij,ij->i", Z.dot(Q), Z)

    n_x, h = cert.n_x, event_function(cert, cfg)
    # The cosine of an integer is never 0, so no probe has a zero component.
    Z = np.cos(np.arange(1.0, 3 * len(Q) + 1)).reshape(3, -1) * np.array([[1e-3], [1.0], [1e3]])
    gap = np.abs(zqz(Z) - [h(z[:n_x], z[n_x:]) for z in Z])
    if not (gap <= margin * np.einsum("ij,ij->i", Z, Z)).all():  # NaN fails too
        return None

    def quiet(Z):
        return zqz(Z) < -(margin * np.einsum("ij,ij->i", Z, Z) + _TINY)

    def coefficients(V):
        return np.bincount(_antidiagonals(len(V)), weights=V.dot(Q).dot(V.T).ravel())

    return EventScreen(quiet, coefficients, norm)
