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

``simulate`` is one loop over the stacked state z = (x, e), the clock tau
and the phase (end, lead): the phase stops at tau = end, T in the dwell and
inf once monitored, and lead single steps are due before a block is taken.
A sample at jump count j has time t = t_j + tau (t_0 = -q0.tau).  Each pass
ends the run if horizon - t <= 1e-15 max(1, horizon), the one horizon test;
or takes a block of full steps; or takes one step, dwell or monitored alike,
of h = min(step, end - tau, horizon - t), landing exactly on end, locating the
jump if monitored and the event fired; or, at tau >= end = T, tests the event
once (each segment start in pure-event mode) and jumps or starts monitoring.
The closure h decides that a step fired.  On a linear loop with a screen (a
current form, ``trigger.event_screen``, within the bound below) the jump is
placed at the first root in (0, h] of the excess along the step, z(s)^T Q z(s)
with z(s) = sum_i s^i (M^i / i!) z the RK4 step of length s: a degree-8
polynomial whose coefficients the screen gives, solved by ``_excess_root`` to
1e-13 of the step, and the jump state is z at the root.  Nonlinear loops, runs
without a screen and the rare step where the polynomial and h disagree
within rounding (counted in ``HybridSolution.bisection_jumps``) bisect for the
first instant with h >= 0 to ``event_tol``.
Every flow step passes one norm guard, so a divergence (NaN from f or g
included, or an ArithmeticError, which makes the step NaN) always carries
the partial solution.  A single step's outcome takes one path, in the dwell
as when monitored: flow, test the guard and (monitored, end > T) the event, a
NaN excess firing; if it fired, place the jump inside the step and test its
state against the guard; record the sample; then stop, go on, or jump.
Recorded samples go to one flat (z, tau) log per run, cut into segments at
the jumps once, at the end, where each sample's t = t_j + tau is derived
from its segment's jump time t_j by the addition the loop's clock makes, so
every sample reads its time from the clock by construction; rows keep
references to z, which is never modified in place once recorded.

Flows use classical fixed-step RK4 (no dense output): one body over z's
components as Python floats, bit-identical to the same sums on arrays, which
hands f and g list slices of each stage and takes back any sequence of
floats, or its matrix form, a propagator, for linear loops.  Propagators
depend only on the stacked matrix and the step, so one LRU cache of 4,096
keeps them by (matrix bytes, step), shared by loops with equal matrices: the
full step, the dwell landings, the horizon's last steps and the bisection
sub-steps each build theirs once; roots are one-off lengths, so the jump state at a root is a sum
of ``_taylor_stack`` rows and no propagator.  On a linear loop full steps
(neither landing on T nor cut by the horizon) flow as blocks: the states after
1, ..., m steps are P z, ..., P^m z for the full step's propagator P, one
product with a read-only stack of ``_DWELL_BLOCK`` powers of that cached P
(the 32 latest stacks are kept), with the clock of single steps, so t and tau
are those of stepping one at a time.  The block rule is one test: a block is
taken only from z with reach |z| <= ``blowup_norm``, where reach, which
``_dwell_reach`` caches next to each stack, proves that every row passes the
guard and no product overflows; elsewhere the step is taken singly, and where a
power is not finite reach is too, so every step is.  A dwell's full steps are
block rows, as no event is tested there (unrecorded, the block is the one
product P^m z).  So are monitored steps, after the first ``_LEAD_IN`` = 4 of a
phase that follows a dwell, if the run has a screen and so a row test: rows
it clears stay untested, and the first other row's step is taken singly, where
h decides whether the event fired, so h decides every jump; the jump falls in
the single-step path's step unless an excess at a step boundary lies within
rounding of 0, and a root-placed jump moves from the single-step path's with
the rounding of the state before it (``TestDwellBlock``).
Re-stepped singly from their segment's start, states differ by rounding,
relative to max(1, |z|), within 32 ulps in a dwell and 32 + k/2 ulps at the
k-th step after it (``TestDwellBlock``, ``TestMonitoredBlock``; seen: at most
44).  ``flow_step`` takes the single step with the same cached propagator;
identical inputs give bit-identical logs.
The per-step paths here and in the certificate terms use ``ndarray.dot``
and ``math.sqrt(v.dot(v))``, which numpy runs through the same BLAS
kernels as ``@`` and ``np.linalg.norm`` without their dispatch cost; a
tier-1 test (``TestHotPathKernels``) pins that the bits agree.  A state's size is one
rule: ``math.hypot`` of z, which cannot overflow, at most ``blowup_norm`` <= 1e150 for q0,
after every single step, at every located jump and, by reach, at every block row, so no
accepted state's square overflows, nor, where a run keeps a screen, do its products.
"""

import functools
import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import ConfigError, DimensionError, DivergenceError, DomainError
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
        # A work rule: past 1e9 steps a run would take hours, or end at max_jumps.
        if not self.horizon_t / self.step <= 1e9:
            raise ConfigError(
                f"horizon_t {self.horizon_t:g} over step {self.step:g} exceeds 1e9 steps"
            )
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


@dataclass(eq=False)
class Segment:
    """Samples of one flow interval at constant jump count j."""

    j: int
    t: np.ndarray
    x: np.ndarray
    e: np.ndarray
    tau: np.ndarray


@dataclass(eq=False)
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


# Measured on 40 tabuada runs of 2 s: 27 propagators built in state-feedback
# mode (T = 0.075) and 41 in pure-event mode, with 123 and 1,373 jumps at roots
# and none bisected: the full step, the dwell landing and about one horizon-cut
# length per run.  The bound is for lengths that never repeat: ``flow_step``
# takes any, and a run without a screen bisects on dyadic sub-steps (up to
# 1,023 per step at event_tol 1e-6).  The power stacks hold as many again.
_PROPAGATORS = 4096
_DWELL_BLOCK = 128  # most propagator powers in one block of full steps
# Single steps after a dwell expires before monitored blocks take over.  Of the
# 4,160 phases of 160 seed-0 planar-dwell benchmark runs, 3,465 jump at dwell
# expiry and the other 695 after 1, 2, 3 or 4 monitored steps (133, 153, 255,
# 154), where a block's fixed cost (about 15 us, some 2 single steps) buys nothing.
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
    """(M^i / i!, i = 0, ..., 4, as read-only (5 n, n) rows; S = sum_i |M^i / i!|_inf).

    ``_propagator``'s P for step s is sum_i s^i M^i / i!, so with V the rows
    (M^i / i!) z the RK4 step of any length s from z is sum_i s^i v_i.
    """
    M = np.frombuffer(M_bytes).reshape(n, n)
    terms = [np.eye(n)]
    for i in range(1, _RK4_TERMS):
        terms.append(terms[-1].dot(M) / i)
    stack = np.concatenate(terms)
    stack.setflags(write=False)
    return stack, float(np.abs(stack).reshape(_RK4_TERMS, n, n).sum(axis=2).max(axis=1).sum())


def _excess_root(c, h):
    """A root of p(s) = sum_k c_k s^k in (0, h]: the end hi of its last bracket, or None.

    Regula falsi with the Illinois rule (the value kept at an end that
    survives twice in a row is halved) on Horner's form in Python floats,
    keeping the bisection's invariant p(lo) < 0 <= p(hi) until
    hi - lo <= ``_ROOT_RTOL`` h.  Like the bisection it finds the first
    root unless p changes sign more than once in the step.  None where a c_k is
    not finite, p(0) >= 0 or p(h) < 0 (the form and the closure disagree within
    rounding), or after ``_ROOT_ITERATIONS`` steps: ``simulate`` then bisects.
    """
    c = c.tolist()[::-1]

    def p(s):
        v = 0.0
        for ck in c:
            v = v * s + ck
        return v

    lo, hi, p_lo, p_hi = 0.0, h, c[-1], p(h)
    if not (p_lo < 0.0 <= p_hi and all(map(math.isfinite, c))):  # NaN fails too
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


@functools.lru_cache(maxsize=_PROPAGATORS)
def _propagator(M_bytes, n, h):
    """The read-only RK4 propagator for step h of the n x n matrix with these C-order bytes."""
    P = _rk4_propagator(np.frombuffer(M_bytes).reshape(n, n).copy(), h)  # aligned like M
    P.setflags(write=False)
    return P


def _stepper(sys: ClosedLoopSystem):
    """Return advance(z, h) -> z', the one flow step of ``simulate`` and ``flow_step``.

    Linear loops apply the cached propagator for h.  The rest take the one
    RK4 body in etclab, over z's components as Python floats: each stage is
    a list s, and F(s) = [*f(s[:n_x], s[n_x:]), *g(s[:n_x], s[n_x:])].
    The sums are numpy's elementwise ones, a + (h/2) k, a + h k and
    a + (h/6) (((k1 + 2 k2) + 2 k3) + k4), in that order, and Python floats
    round each operation alone, so the step is bit-identical to the same
    body on arrays; only z' becomes an array.  Raises DimensionError unless
    f and g give n_x + n_e derivatives in all; an ArithmeticError from them
    gives an all-NaN z', which the callers' finiteness tests reject.
    """
    M, n_x, f, g = sys.stacked_matrix, sys.n_x, sys.f, sys.g
    if M is not None:
        key, n = M.tobytes(), M.shape[0]
        return lambda z, h: _propagator(key, n, h).dot(z)
    n = n_x + sys.n_e

    def F(s):
        x, e = s[:n_x], s[n_x:]
        return [*f(x, e), *g(x, e)]

    def advance(z, h):
        a = z.tolist()
        try:
            k1 = F(a)
            if len(k1) != n:  # zip would drop or ignore the difference silently
                raise DimensionError(
                    f"f and g of loop {sys.name!r} return {len(k1)} derivatives, but "
                    f"(n_x, n_e) = ({n_x}, {sys.n_e}) needs {n}"
                )
            c = 0.5 * h
            k2 = F([ai + c * ki for ai, ki in zip(a, k1)])
            k3 = F([ai + c * ki for ai, ki in zip(a, k2)])
            k4 = F([ai + h * ki for ai, ki in zip(a, k3)])
        except ArithmeticError:  # 1.0 / 0.0, or a float ** past 1e154
            return np.full(n, math.nan)
        c = h / 6.0
        return np.array([
            ai + c * (((k1i + 2.0 * k2i) + 2.0 * k3i) + k4i)
            for ai, k1i, k2i, k3i, k4i in zip(a, k1, k2, k3, k4)
        ])

    return advance


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


@functools.lru_cache(maxsize=_PROPAGATORS // _DWELL_BLOCK)
def _dwell_reach(M_bytes, n, step):
    """(1 + delta) max_j |P^j|_F over ``_dwell_powers``' stack; inf or NaN if a power is not finite.

    ``simulate`` takes a block, dwell or monitored, recorded or not, only from z with
    reach |z| <= guard for the computed reach and |z| (``math.hypot``): then every row
    fl(P^j z) of the block passes the guard and no product overflows.
    A computed dot product of n terms errs by at most gamma_n = n u / (1 - n u) times
    sum_k |P^j_ik| |z_k| (u = 2^-53, any order of summation, fused or not), so
    |fl(P^j z)| <= (1 + gamma_n) |P^j|_F |z|, and every partial sum stays below that
    too.  The guard squares and sums the n components (1 + gamma_n) and takes a
    rounded square root (1 + u).  The Frobenius norm here may come out small by
    (1 + gamma_(n^2))^(1/2) (1 + u): n^2 rounded squares summed, a rounded root;
    |z| by an ulp (2u), and reach and reach |z| round once each.  To first order
    these factors come to (n^2/2 + 3n/2 + 6) u, so delta = (n + 2)^2 2u covers
    them twice over.
    """
    stack = _dwell_powers(M_bytes, n, step)
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.square(stack).reshape(_DWELL_BLOCK, n * n).sum(axis=1).max()
    return (1.0 + (n + 2) ** 2 * np.finfo(float).eps) * math.sqrt(sq)


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
    of a phase's lead-in or at a screen candidate, a step from z outside the
    block bound, a bisection step, any monitored step without a screen, any
    step of a nonlinear loop) records this state bit for bit.  Of a block, dwell or monitored, the
    first row P z matches it too (with numpy's BLAS, as ``TestFlowStep``
    checks); later rows equal repeated ``flow_step`` only within the bounds
    in the module docstring.

    Raises ValueError unless 0 < h < inf, ConfigError or DomainError
    for a q that ``simulate`` rejects, DimensionError if f and g
    return other than n_x + n_e derivatives in all, and DivergenceError
    if the step is not finite (f or g raising ArithmeticError included).
    """
    if not 0 < h < math.inf:  # NaN fails too
        raise ValueError("flow_step: h must be positive and finite")
    _check_state(sys, q)
    z = _stepper(sys)(np.concatenate((q.x, q.e)), h)
    if not np.isfinite(z).all():
        raise DivergenceError("non-finite derivative evaluation", state=q)
    return HybridState(z[: sys.n_x], z[sys.n_x :], q.tau + h)


def _segments(rows, cuts, bases, n_x):
    """Cut the flat (z, tau) sample log into one Segment per flow interval.

    ``cuts`` holds the row at which each jump starts the next interval and
    ``bases`` each interval's t_j, so that its samples' times are t_j + tau.
    """
    if not rows:
        return []
    z, tau = map(np.asarray, zip(*rows))
    bounds = zip(bases, [0, *cuts], [*cuts, len(rows)])
    return [
        Segment(j, base + tau[a:b], z[a:b, :n_x], z[a:b, n_x:], tau[a:b])
        for j, (base, a, b) in enumerate(bounds)
    ]


def simulate(
    sys: ClosedLoopSystem,
    cert: Certificate,
    cfg: TriggerConfig,
    q0: HybridState,
    settings: SimSettings,
) -> HybridSolution:
    """Simulate the closed loop from q0 until horizon, max_jumps or blow-up.

    Each stop (zeno too) leaves the loop for one exit, which builds the solution and
    names the stop in ``terminated``.  Raises DimensionError if the certificate does
    not pair with the loop or f and g return other than n_x + n_e derivatives,
    DomainError if q0 is larger than the blow-up guard or lies outside the flow and
    jump sets, ConfigError for invalid settings (dwell time at or above the MASP
    ceiling, step too coarse relative to T), and, at that exit, DivergenceError if
    the state norm passes the blow-up guard or is not finite (f or g raising
    ArithmeticError included), carrying the solution as ``partial`` (its last
    sample the divergent one, when recording) and the divergent state.
    """
    check_pairing(sys, cert)
    _check_state(sys, q0)
    cfg.validate_against(cert)
    if cfg.T > 0.0 and settings.step > cfg.T / 10.0 * (1.0 + 1e-12):
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
    n = z.size
    # Rows P, ..., P^_DWELL_BLOCK for blocks of full steps; None: every step is taken singly.
    powers = None if M is None else _dwell_powers(M.tobytes(), n, step)
    # A block is taken only from z with reach |z| <= guard, elsewhere a single step.
    reach = None if powers is None else _dwell_reach(M.tobytes(), n, step)
    # Monitored blocks' row test and root-placed jumps' polynomial; None (nonlinear, periodic, no
    # current form, or ``event_screen``'s bound not finite at the guard): single steps, bisection.
    screen = None if M is None else event_screen(cert, cfg)
    if screen is not None:  # delta = 16 (n + 3) u = (n + 3) 2^-49
        taylor, S = _taylor_stack(M.tobytes(), n)
        if not (1.0 + (n + 3) * 2.0**-49) * n * max(screen.norm, 1.0) * S * S * guard * guard < math.inf:
            screen = None
    eps = 1e-15 * max(1.0, horizon)
    T = cfg.T  # 0 in pure-event mode, where the dwell branch never runs
    # Single monitored steps per phase before blocks: _LEAD_IN after a dwell, none
    # in pure-event mode (phases start at the jump), all without a screen.
    lead_in = math.inf if screen is None else _LEAD_IN if T > 0.0 else 0
    n_root = n_bisected = 0
    record = settings.record_states
    # The sample log: (z, tau) rows, the row where each jump cuts it, the
    # jump times, from which ``_segments`` derives each row's t = t_j + tau.
    # z is never modified in place once recorded, so rows hold references.
    rows, cuts, jump_times = [], [], []

    tau = q0.tau
    base = -tau  # absolute time is base + tau; a jump at t sets base = t, tau = 0
    # The phase: it stops at end (T in the dwell, inf once the event test at dwell
    # expiry has failed), and lead single steps are still due before a block.
    end, lead = T, 0
    terminated = "horizon"
    if record:
        rows.append((z, tau))
    while True:
        t = base + tau
        if horizon - t <= eps:
            break
        if (powers is not None and lead <= 0 and step < end - tau and step <= horizon - t
                and reach * math.hypot(*z.tolist()) <= guard):
            # Full steps, neither landing on end nor cut by the horizon, flow as
            # one block of propagator powers, whose every row passes the guard
            # without overflow (``_dwell_reach``).  t only grows, so the steps that
            # start at least a step before the horizon are a prefix: all of them
            # unless the block meets the horizon.
            taus = _block_clock(step, end, tau)
            m = len(taus)
            if m > 1 and not horizon - (base + float(taus[-2])) >= step:
                m = 1 + int(np.count_nonzero(horizon - (base + taus[:-1]) >= step))
            if end == T and not record:
                # A dwell tests no event, so only the last row is needed: the same
                # bits as the block's last row with numpy's BLAS (``TestDwellBlock``).
                z, tau = powers[(m - 1) * n : m * n].dot(z), float(taus[m - 1])
                continue
            Z = powers[: m * n].dot(z).reshape(m, n)
            k = m
            if end > T:
                passed = screen.quiet(Z)  # the first row not cleared is a candidate
                k = m if passed.all() else int(passed.argmin())
            if k:
                z, tau = Z[k - 1], float(taus[k - 1])
                if record:
                    rows.extend(zip(Z, taus[:k].tolist()))
            lead = int(k < m)  # the candidate's step is taken singly, where h_ev decides
            continue
        if tau < end:
            # A single step, dwell or monitored: it lands exactly on end if it reaches it.
            h = min(step, end - tau, horizon - t)
            tau_next = end if h == end - tau else tau + h
            lead -= 1
            z_next = flow(z, h)
            diverged = not math.hypot(*z_next.tolist()) <= guard  # catches NaN as well
            fired = not diverged and end > T and not h_ev(z_next[:n_x], z_next[n_x:]) < 0.0
            if fired:
                # The event fired inside this step (a NaN excess fires too): on a linear
                # loop with a current form its first instant is the root of the excess along
                # the step, z(s)^T Q z(s) with z(s) = sum s^i v_i; otherwise bisect for it.
                hi = None
                if screen is not None:
                    V = taylor.dot(z).reshape(_RK4_TERMS, n)
                    hi = _excess_root(screen.coefficients(V), h)
                rooted = hi is not None
                if rooted:
                    # Powers of a one-off length: no propagator, so none reaches the cache.
                    z_next = (hi ** np.arange(_RK4_TERMS)).dot(V)
                else:
                    lo, hi = 0.0, h
                    while hi - lo > settings.event_tol:
                        mid = 0.5 * (lo + hi)
                        z_mid = flow(z, mid)
                        if h_ev(z_mid[:n_x], z_mid[n_x:]) >= 0.0:
                            hi, z_next = mid, z_mid
                        else:
                            lo = mid
                tau_next = tau + hi
                diverged = not math.hypot(*z_next.tolist()) <= guard  # as every accepted state
            z, tau = z_next, tau_next
            if record:
                rows.append((z, tau))
            if diverged:
                terminated = "blow-up"
                break
            if not fired:
                continue
            n_root, n_bisected = n_root + rooted, n_bisected + (not rooted)
            t = base + tau
        elif h_ev is None or h_ev(z[:n_x], z[n_x:]) >= 0.0:
            # Dwell expiry with the event already on, or periodic: jump now.
            if jump_times and tau == 0.0:  # only pure-event mode tests at tau = 0
                # No flow since the last jump: e is still 0, so jumping
                # again leaves z unchanged, forever.
                terminated = "zeno"
                break
        else:
            end, lead = math.inf, lead_in
            continue

        # Jump at t: reset the error and the clock.
        jump_times.append(t)
        cuts.append(len(rows))
        z = z.copy()
        z[n_x:] = 0.0
        base, tau, end, lead = t, 0.0, T, 0
        if record:
            rows.append((z, tau))
        if len(jump_times) >= settings.max_jumps:
            terminated = "max-jumps"
            break

    segments = _segments(rows, cuts, [-q0.tau, *jump_times], n_x)
    sol = HybridSolution(segments, jump_times, terminated, n_root, n_bisected)
    if terminated == "blow-up":
        state = HybridState(z[:n_x], z[n_x:], tau)
        raise DivergenceError(f"state norm exceeded blow-up guard {guard:g}", partial=sol, state=state)
    return sol


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
        for t, x, e, tau in zip(seg.t.tolist(), seg.x, seg.e, seg.tau.tolist()):
            w = cert.W(e)
            out.append((t, seg.j, cert.V(x) + lam * zeta(tau) * w * w))
    return out
