"""Hybrid integrator: flow, event localization, jumps, solution records.

The closed loop flows as (x', e', tau') = (f(x, e), g(x, e), 1) and a
transmission (jump) resets (x, e, tau) to (x, 0, 0).  The simulator
adopts a deterministic jump policy, the jump-priority solution of
Goebel, Sanfelice and Teel, "Hybrid Dynamical Systems" (2012): with a
dwell time T > 0 it flows freely until tau = T, then monitors the event
excess h(x, e) and jumps at the first time h >= 0 (located as below);
if h >= 0 already when the dwell expires, the jump happens at tau = T
exactly.  At the equilibrium this degenerates to periodic sampling with
period T.

``simulate`` is one loop over the stacked state z = (x, e) and the
clock tau; a sample at jump count j has time t = t_j + tau (t_0 = -q0.tau).
Each pass ends the run if horizon - t <= 1e-15 max(1, horizon), the one
horizon test; or flows in the dwell, landing exactly on T; or tests the
event once at dwell expiry (each segment start in pure-event mode); or
takes a monitored step or a block of them, locating the jump if the event fired.
The closure h decides that a step fired.  On a linear loop whose certificate
has a current form (``trigger.event_screen`` is not None) the jump is placed at
the first root in (0, h] of the excess along the step, z(s)^T Q z(s) with
z(s) = sum_i s^i (M^i / i!) z the RK4 step of length s: a degree-8 polynomial
whose coefficients the screen gives, solved by ``_excess_root`` to 1e-13 of
the step, and the jump state is z at the root.  Nonlinear loops, certificates
without a current form and the rare step where the polynomial and h disagree
within rounding (counted in ``HybridSolution.bisection_jumps``) bisect for the
first instant with h >= 0 to ``event_tol``.
Every flow step passes one norm guard, so a divergence (NaN from f or g
included) always carries the partial solution.
Recorded samples go to one flat (t, z, tau) log per run, cut into
segments at the jumps once, at the end; rows keep references to z,
which is never modified in place once recorded.

Flows use classical fixed-step RK4 (no dense output): one body over z, or its
matrix form, a propagator, for linear loops.  Propagators depend only on the
stacked matrix and the step, so one LRU cache of 4,096 keeps them by (matrix
bytes, step), shared by loops with equal matrices: the full step, the dwell
landings, the horizon's last steps and the bisection sub-steps each build
theirs once; roots are one-off lengths, so the jump state at a root is a sum
of ``_taylor_stack`` rows and no propagator.  On a linear loop full steps
(neither landing on T nor cut by the horizon) flow as blocks: the states after
1, ..., m steps are P z, ..., P^m z for the full step's propagator P, one
product with a read-only stack of ``_DWELL_BLOCK`` powers of that cached P
(the 32 latest stacks are kept), under one vectorised norm guard, with the
clock of single steps, so t and tau are those of stepping one at a time.  A
dwell's full steps are block rows, as no event is tested there.  So are
monitored steps, after the first ``_LEAD_IN`` = 4 of a phase that follows a
dwell, if ``trigger.event_screen`` gives a row test: rows it clears stay
untested, and the first other row's step is taken singly, where h decides
whether the event fired, so h decides every jump; the jump falls in the
single-step path's step unless an excess at a step boundary lies within
rounding of 0, and a root-placed jump moves from the single-step path's with
the rounding of the state before it (``TestDwellBlock``).
Re-stepped singly from their segment's start, states differ by rounding,
relative to max(1, |z|), within 32 ulps in a dwell and 32 + k/2 ulps at the
k-th step after it (``TestDwellBlock``, ``TestMonitoredBlock``; seen: at most
44).  A block that meets inf, NaN or the guard is discarded, and the run
steps singly from there on.  ``flow_step`` takes the single step with the
same cached propagator; identical inputs give bit-identical logs.
The per-step paths here and in the certificate terms use ``ndarray.dot``
and ``math.sqrt(v.dot(v))``, which numpy runs through the same BLAS
kernels as ``@`` and ``np.linalg.norm`` without their dispatch cost; a
tier-1 test (``TestHotPathKernels``) pins that the bits agree.  A state's
size is one rule: ``math.hypot`` of z, which cannot overflow, at most
``blowup_norm`` <= 1e150 for q0 and after every single step, so no accepted
state's square overflows.
"""

import functools
import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import ConfigError, DivergenceError, DomainError
from .model import Certificate, ClosedLoopSystem, HybridState, check_pairing
from .sampling import check_int
from .trigger import TriggerConfig, ZetaParams, event_function, event_screen, zeta_solution


@dataclass(frozen=True)
class SimSettings:
    """Integrator knobs: step size, horizon, guards, event tolerance."""

    step: float = 1e-3
    horizon_t: float = 10.0
    max_jumps: int = 1_000_000
    event_tol: float = 1e-6
    blowup_norm: float = 1e9
    record_states: bool = True

    def __post_init__(self):
        # Written as `not x > 0` so that NaN fails every guard.
        if not 0 < self.step < math.inf:
            raise ConfigError("step must be positive and finite")
        if not 0 < self.horizon_t < math.inf:
            raise ConfigError("horizon_t must be positive and finite")
        try:
            check_int(self.max_jumps, "max_jumps", low=1)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        # Below ulp(step) the event bisection's midpoint can stall before its bracket closes.
        if not math.ulp(self.step) <= self.event_tol < self.step:
            raise ConfigError("event_tol must satisfy ulp(step) <= event_tol < step")
        # Up to 1e150 the square of every accepted state, which V, W^2 and the
        # event excess take, stays below 1e300 and cannot overflow.
        if not 0 < self.blowup_norm <= 1e150:
            raise ConfigError("blowup_norm must satisfy 0 < blowup_norm <= 1e150")


@dataclass
class Segment:
    """Samples of one flow interval at constant jump count j."""

    j: int
    t: np.ndarray
    x: np.ndarray
    e: np.ndarray
    tau: np.ndarray


@dataclass
class HybridSolution:
    """A solution on a hybrid time domain plus its event log.

    The gaps follow from ``jump_times`` alone: counting t = 0 as the
    zeroth transmission epoch (the clock starts at tau = 0 there), each
    jump closes the gap since the previous epoch, and only positive gaps
    count, so a degenerate jump at t = 0 is a jump but no gap.
    ``terminated`` is "horizon", "max-jumps", "blow-up" or "zeno" (a jump
    at the instant of the previous one with e already zero: the jump map
    is then the identity and would repeat forever).  Of the jumps located
    inside a monitored step, ``root_jumps`` were placed at the root of the
    excess polynomial and ``bisection_jumps`` by the bisection, fallbacks
    included; jumps at dwell expiry or on the clock count in neither.
    """

    segments: List[Segment]
    jump_times: List[float]
    terminated: str = "horizon"
    root_jumps: int = 0
    bisection_jumps: int = 0

    @property
    def n_jumps(self):
        return len(self.jump_times)

    def gap_rows(self):
        """(j, t_j, gap) per positive gap: the 1-based index and time of the jump closing it."""
        rows = []
        prev = 0.0
        for j, t_j in enumerate(self.jump_times, 1):
            gap = t_j - prev
            if gap > 0.0:
                rows.append((j, t_j, gap))
            prev = t_j
        return rows

    @property
    def inter_event_gaps(self):
        """The gaps of ``gap_rows``, in jump order."""
        return [gap for _j, _t, gap in self.gap_rows()]

    def final_state(self) -> Optional[HybridState]:
        if not self.segments:  # none recorded; every segment starts with a sample
            return None
        seg = self.segments[-1]
        return HybridState(seg.x[-1].copy(), seg.e[-1].copy(), float(seg.tau[-1]))


# Bisection sub-steps repeat: 0.5 * (lo + hi) from (0, h) walks the same
# dyadic tree for every event, at most 1,023 nodes per h at event_tol 1e-6,
# so a planar benchmark run that bisected every jump needed about 1,500
# propagators; root-placed jumps need none.  The bound keeps memory flat for
# callers whose step lengths never repeat; the power stacks get as many
# matrices again.
_PROPAGATORS = 4096
_DWELL_BLOCK = 128  # most propagator powers in one block of full steps
# Single steps after a dwell expires before monitored blocks take over: the
# planar state-feedback runs end most such phases within 1-2 steps, where a
# block's fixed cost (about 15 us, some 2 single steps) buys nothing.
_LEAD_IN = 4
_RK4_TERMS = 5  # RK4's propagator is the degree-4 Taylor polynomial of exp(s M)
# The root's bracket, relative to the step, far below any event_tol.
_ROOT_RTOL = 1e-13
_ROOT_ITERATIONS = 100


def _rk4_propagator(M, h):
    # One classical RK4 step of z' = M z is the linear map
    # I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24.
    A = M * h
    A2 = A @ A
    return np.eye(M.shape[0]) + A + A2 / 2.0 + (A2 @ A) / 6.0 + (A2 @ A2) / 24.0


@functools.lru_cache(maxsize=_PROPAGATORS // _DWELL_BLOCK)
def _taylor_stack(M_bytes, n):
    """M^i / i!, i = 0, ..., 4, as read-only (5 n, n) rows, for the n x n matrix of these bytes.

    ``_propagator``'s P for step s is sum_i s^i M^i / i!, so with V the rows
    (M^i / i!) z the RK4 step of any length s from z is sum_i s^i v_i.
    """
    M = np.frombuffer(M_bytes).reshape(n, n)
    terms = [np.eye(n)]
    for i in range(1, _RK4_TERMS):
        terms.append(terms[-1].dot(M) / i)
    stack = np.concatenate(terms)
    stack.setflags(write=False)
    return stack


def _excess_root(c, h):
    """A root of p(s) = sum_k c_k s^k in (0, h]: the end hi of its last bracket, or None.

    Regula falsi with the Illinois rule (the value kept at an end that
    survives twice in a row is halved) on Horner's form in Python floats,
    keeping the bisection's invariant p(lo) < 0 <= p(hi) until
    hi - lo <= ``_ROOT_RTOL`` h.  Like the bisection it finds the first
    root unless p changes sign more than once in the step.  None where
    p(0) >= 0 or p(h) < 0 (the form and the closure disagree within
    rounding), or after ``_ROOT_ITERATIONS`` steps: ``simulate`` then bisects.
    """
    c = c.tolist()[::-1]

    def p(s):
        v = 0.0
        for ck in c:
            v = v * s + ck
        return v

    lo, hi, p_lo, p_hi = 0.0, h, c[-1], p(h)
    if not p_lo < 0.0 <= p_hi:  # NaN fails too
        return None
    kept = None  # the end that the last step kept
    for _ in range(_ROOT_ITERATIONS):
        if hi - lo <= _ROOT_RTOL * h:
            return hi
        s = lo - p_lo * (hi - lo) / (p_hi - p_lo)
        if not lo < s < hi:
            s = 0.5 * (lo + hi)
        v = p(s)
        if v >= 0.0:
            hi, p_hi = s, v
            if kept == "lo":
                p_lo *= 0.5
            kept = "lo"
        else:
            lo, p_lo = s, v
            if kept == "hi":
                p_hi *= 0.5
            kept = "hi"
    return None


def _rk4(F, z, h):
    # One classical RK4 step of z' = F(z); the only RK4 body in etclab.
    k1 = F(z)
    k2 = F(z + (0.5 * h) * k1)
    k3 = F(z + (0.5 * h) * k2)
    k4 = F(z + h * k3)
    return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@functools.lru_cache(maxsize=_PROPAGATORS)
def _propagator(M_bytes, n, h):
    """The read-only RK4 propagator for step h of the n x n matrix with these C-order bytes."""
    P = _rk4_propagator(np.frombuffer(M_bytes).reshape(n, n).copy(), h)  # aligned like M
    P.setflags(write=False)
    return P


def _stepper(sys: ClosedLoopSystem):
    """Return advance(z, h) -> z', the one flow step of ``simulate`` and ``flow_step``.

    Linear loops apply the cached propagator for h; the rest run ``_rk4``
    on the stacked F(z) = (f(x, e), g(x, e)), z = (x, e).
    """
    M, n_x, f, g = sys.stacked_matrix, sys.n_x, sys.f, sys.g
    if M is not None:
        key, n = M.tobytes(), M.shape[0]
        return lambda z, h: _propagator(key, n, h).dot(z)

    def F(z):
        x, e = z[:n_x], z[n_x:]
        return np.concatenate((f(x, e), g(x, e)))

    return lambda z, h: _rk4(F, z, h)


@functools.lru_cache(maxsize=_PROPAGATORS // _DWELL_BLOCK)
def _dwell_powers(M_bytes, n, step):
    """P, P^2, ..., P^_DWELL_BLOCK for ``_propagator``'s P of step, as read-only rows.

    P^j = P P^(j-1); overflowing powers come out as inf or NaN, silently.
    """
    P = _propagator(M_bytes, n, step)
    powers = [P]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_DWELL_BLOCK - 1):
            powers.append(P.dot(powers[-1]))
    stack = np.concatenate(powers)
    stack.setflags(write=False)
    return stack


def _block_flow(sys: ClosedLoopSystem, step: float):
    """The ``_dwell_powers`` stack of the loop for step, or None without a ``stacked_matrix``.

    Its first m n rows times z are the states after 1, ..., m steps,
    m <= ``_DWELL_BLOCK``; ``simulate`` checks them for inf and NaN.
    """
    M = sys.stacked_matrix
    return None if M is None else _dwell_powers(M.tobytes(), M.shape[0], step)


@functools.lru_cache(maxsize=64)
def _block_clock(step, end, tau):
    """The clock after each of the next steps from tau short of end, as a read-only array.

    A dwell's end is T, so none of its steps lands on T; a monitored block's
    end is inf.  The clock follows ``simulate``'s float recurrence tau + step,
    for at most ``_DWELL_BLOCK`` steps.
    """
    taus = []
    while step < end - tau and len(taus) < _DWELL_BLOCK:
        tau += step
        taus.append(tau)
    arr = np.array(taus)
    arr.setflags(write=False)
    return arr


def _check_state(sys: ClosedLoopSystem, q: HybridState):
    """Raise ConfigError unless q has the loop's dimensions, DomainError unless finite."""
    if q.x.shape != (sys.n_x,) or q.e.shape != (sys.n_e,):
        raise ConfigError(
            f"initial state dimensions {q.x.shape}, {q.e.shape} do not match "
            f"the system ({sys.n_x}, {sys.n_e})"
        )
    if not (np.isfinite(q.x).all() and np.isfinite(q.e).all()):
        raise DomainError("initial state must be finite")


def flow_step(sys: ClosedLoopSystem, q: HybridState, h: float) -> HybridState:
    """One flow step of size h from q: ``simulate``'s single step, with the same propagator.

    A step that ``simulate`` takes singly (a dwell landing, a monitored step
    of a phase's lead-in or at a screen candidate, a bisection step, any
    monitored step without a screen, any step of a nonlinear loop)
    records this state bit for bit.  Of a block, dwell or monitored, the
    first row P z matches it too (with numpy's BLAS, as ``TestFlowStep``
    checks); later rows equal repeated ``flow_step`` only within the bounds
    in the module docstring.

    Raises ValueError unless 0 < h < inf, and ConfigError or DomainError
    for a q that ``simulate`` rejects.
    """
    if not 0 < h < math.inf:  # NaN fails too
        raise ValueError("flow_step: h must be positive and finite")
    _check_state(sys, q)
    z = _stepper(sys)(np.concatenate((q.x, q.e)), h)
    if not np.isfinite(z).all():
        raise DivergenceError("non-finite derivative evaluation", state=q)
    return HybridState(z[: sys.n_x], z[sys.n_x :], q.tau + h)


def _segments(rows, cuts, n_x):
    """Cut the flat (t, z, tau) sample log into one Segment per flow interval.

    ``cuts`` holds the row at which each jump starts the next interval.
    """
    if not rows:
        return []
    t, z, tau = map(np.asarray, zip(*rows))
    bounds = zip([0, *cuts], [*cuts, len(rows)])
    return [
        Segment(j, t[a:b], z[a:b, :n_x], z[a:b, n_x:], tau[a:b]) for j, (a, b) in enumerate(bounds)
    ]


def simulate(
    sys: ClosedLoopSystem,
    cert: Certificate,
    cfg: TriggerConfig,
    q0: HybridState,
    settings: SimSettings,
) -> HybridSolution:
    """Simulate the closed loop from q0 until horizon, max_jumps or blow-up.

    Raises DimensionError if the certificate does not pair with the
    loop, DomainError if q0 is larger than the blow-up guard or lies
    outside the flow and jump sets,
    ConfigError for invalid settings (dwell time at or above the MASP
    ceiling, step too coarse relative to T), and DivergenceError
    (carrying the partial solution) if the state norm passes the
    blow-up guard or is not finite.
    """
    check_pairing(sys, cert)
    _check_state(sys, q0)
    cfg.validate_against(cert)
    if cfg.mode != "pure-event" and settings.step > cfg.T / 10.0 * (1.0 + 1e-12):
        raise ConfigError(
            f"step {settings.step:g} too coarse: event detection requires step <= T/10 "
            f"= {cfg.T / 10.0:g}"
        )
    z, guard = np.concatenate((q0.x, q0.e)), settings.blowup_norm
    # Before any certificate term squares q0, so that none can overflow.
    size = math.hypot(*z.tolist())
    if not size <= guard:
        raise DomainError(f"initial state norm {size:g} exceeds blowup_norm {guard:g}")
    h_ev = event_function(cert, cfg)  # None in periodic mode
    h0 = None if h_ev is None else h_ev(q0.x, q0.e)
    if not any(cfg.membership(h0, q0.tau, tol=1e-12 * max(1.0, size))):
        raise DomainError("initial state lies outside the flow and jump sets")

    n_x, M = sys.n_x, sys.stacked_matrix
    flow = _stepper(sys)
    step, horizon = settings.step, settings.horizon_t
    powers = _block_flow(sys, step)  # None: every step is taken singly
    n = z.size
    taylor = None if M is None else _taylor_stack(M.tobytes(), n)
    eps = 1e-15 * max(1.0, horizon)
    T = cfg.T  # 0 in pure-event mode, where the dwell branch never runs
    # Single monitored steps per phase before blocks: _LEAD_IN after a dwell, none
    # in pure-event mode (phases start at the jump), all once event_screen gave None.
    lead_in = _LEAD_IN if T > 0.0 else 0
    # event_screen is asked once per linear run, at its first monitored block
    # or fired step; None (no current form) means single steps and bisection.
    screen, asked = None, taylor is None
    n_root = n_bisected = 0
    record = settings.record_states
    # The sample log: (t, z, tau) rows, the row where each jump cuts it, the
    # jump times.  z is never modified in place once recorded, so rows hold
    # references, not copies.
    rows, cuts, jump_times = [], [], []

    tau = q0.tau
    base = -tau  # absolute time is base + tau; a jump at t sets base = t, tau = 0
    monitoring = False  # set once the event test at dwell expiry has failed
    singles = 0  # single steps taken since monitoring last started
    terminated = "horizon"
    if record:
        rows.append((0.0, z, tau))
    while True:
        t = base + tau
        if horizon - t <= eps:
            break
        if (
            powers is not None
            and step <= horizon - t
            and (singles >= lead_in if monitoring else step < T - tau)
        ):
            if monitoring:
                if not asked:
                    screen, asked = event_screen(cert, cfg), True
                if screen is None:  # no screen: no monitored blocks
                    lead_in = math.inf
                    continue
            # Full steps, neither landing on T nor cut by the horizon, flow as
            # one block of propagator powers.  t only grows, so the steps that
            # start at least a step before the horizon are a prefix.
            taus = _block_clock(step, math.inf if monitoring else T, tau)
            ts = base + taus
            m = 1 + int(np.count_nonzero(horizon - ts[:-1] >= step))
            with np.errstate(over="ignore", invalid="ignore"):
                Z = powers[: m * n].dot(z).reshape(m, n)
                sq = np.einsum("ij,ij->i", Z, Z)
                within = math.sqrt(sq.max()) <= guard
            if not within:
                # Inf, NaN or past the guard: step singly from here on, so
                # that a divergence ends as the single-step path ends it.
                powers = None
                continue
            k = m
            if monitoring:
                passed = screen.quiet(Z, sq)  # the first row not cleared is a candidate
                k = m if passed.all() else int(passed.argmin())
            if k:
                z, tau = Z[k - 1], float(taus[k - 1])
                if record:
                    rows.extend(zip(ts[:k].tolist(), Z, taus[:k].tolist()))
            if k == m:
                continue
            # The candidate's step is taken singly below, where h_ev decides.
            t = base + tau
        if monitoring:
            h = min(step, horizon - t)
            tau_next = tau + h
            singles += 1
        elif tau < T:
            # Dwell: flow freely and land exactly on T.
            h = min(step, T - tau, horizon - t)
            tau_next = T if h == T - tau else tau + h
        elif h_ev is None or h_ev(z[:n_x], z[n_x:]) >= 0.0:
            # Dwell expiry with the event already on, or periodic: jump now.
            if jump_times and tau == 0.0:  # only pure-event mode tests at tau = 0
                # No flow since the last jump: e is still 0, so jumping
                # again leaves z unchanged, forever.
                terminated = "zeno"
                break
            h = None
        else:
            monitoring, singles = True, 0
            continue

        if h is not None:
            t_next = base + tau_next
            z_next = flow(z, h)
            if not math.hypot(*z_next.tolist()) <= guard:  # catches NaN as well
                if record:
                    rows.append((t_next, z_next, tau_next))
                raise DivergenceError(
                    f"state norm exceeded blow-up guard {guard:g}",
                    partial=HybridSolution(
                        _segments(rows, cuts, n_x), jump_times, "blow-up", n_root, n_bisected
                    ),
                    state=HybridState(z_next[:n_x], z_next[n_x:], tau_next),
                )
            if not monitoring or h_ev(z_next[:n_x], z_next[n_x:]) < 0.0:
                z, tau = z_next, tau_next
                if record:
                    rows.append((t_next, z, tau))
                continue
            # The event fired inside this step: on a linear loop with a current
            # form its first instant is the root of the excess along the step,
            # z(s)^T Q z(s) with z(s) = sum s^i v_i; otherwise bisect for it.
            if not asked:
                screen, asked = event_screen(cert, cfg), True
            hi = None
            if screen is not None:
                V = taylor.dot(z).reshape(_RK4_TERMS, n)
                hi = _excess_root(screen.coefficients(V), h)
            if hi is not None:
                # Powers of a one-off length: no propagator, so none reaches the cache.
                z_hi = (hi ** np.arange(_RK4_TERMS)).dot(V)
                n_root += 1
            else:
                lo, hi, z_hi = 0.0, h, z_next
                while hi - lo > settings.event_tol:
                    mid = 0.5 * (lo + hi)
                    z_mid = flow(z, mid)
                    if h_ev(z_mid[:n_x], z_mid[n_x:]) >= 0.0:
                        hi, z_hi = mid, z_mid
                    else:
                        lo = mid
                n_bisected += 1
            z, tau = z_hi, tau + hi
            t = base + tau
            if record:
                rows.append((t, z, tau))

        # Jump at t: reset the error and the clock.
        jump_times.append(t)
        cuts.append(len(rows))
        z = z.copy()
        z[n_x:] = 0.0
        base, tau, monitoring = t, 0.0, False
        if record:
            rows.append((t, z, tau))
        if len(jump_times) >= settings.max_jumps:
            terminated = "max-jumps"
            break

    return HybridSolution(_segments(rows, cuts, n_x), jump_times, terminated, n_root, n_bisected)


def r_monitor(sol: HybridSolution, cert: Certificate, zp: ZetaParams):
    """Evaluate R(q) = V(x) + max(0, lam * zeta(tau) * W(e)^2) along a solution.

    zeta(tau) is the closed-form solution of the comparison ODE
    (``trigger.zeta_solution``), evaluated at each sample's clock, which
    resets at jumps.  Returns a list of (t, j, R) triples in hybrid-time
    order.  Callers should choose (theta, eta) so that the dwell time
    stays below the zeta transit time, otherwise the monitor is vacuous
    on long segments.
    """
    lam = zp.lam(cert.gamma)
    zeta = zeta_solution(cert.gamma, cert.L, zp)
    out = []
    for seg in sol.segments:
        for t, x, e, tau in zip(seg.t, seg.x, seg.e, seg.tau):
            w = cert.W(e)
            out.append((float(t), seg.j, cert.V(x) + lam * zeta(float(tau)) * w * w))
    return out
