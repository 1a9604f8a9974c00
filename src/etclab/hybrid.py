"""Hybrid integrator: flow, event localization, jumps, solution records.

The closed loop flows as (x', e', tau') = (f(x, e), g(x, e), 1) and a
transmission (jump) resets (x, e, tau) to (x, 0, 0).  The simulator
adopts a deterministic jump policy, the jump-priority solution of
Goebel, Sanfelice and Teel, "Hybrid Dynamical Systems" (2012): with a
dwell time T > 0 it flows freely until tau = T, then monitors the event
excess h(x, e) and jumps at the first time h >= 0, located by
bisection; if h >= 0 already when the dwell expires, the jump happens
at tau = T exactly.  At the equilibrium this degenerates to periodic
sampling with period T.

``simulate`` is one loop over the stacked state z = (x, e) and the
clock tau; a sample at jump count j has time t = t_j + tau (t_0 = -q0.tau).
Each pass ends the run if horizon - t <= 1e-15 max(1, horizon), the one
horizon test; or flows in the dwell, landing exactly on T; or tests the
event once at dwell expiry (each segment start in pure-event mode); or
takes a monitored step, bisecting if the event fired in it.  Every flow
step passes one norm guard, so a divergence (NaN from f or g included)
always carries the partial solution.
Recorded samples go to one flat (t, z, tau) log per run, cut into
segments at the jumps once, at the end; rows keep references to z,
which is never modified in place once recorded.

Flows use classical fixed-step RK4 (no dense output): one body over z, or its
matrix form, a propagator, for linear loops.  Propagators depend only on the
stacked matrix and the step, so they are cached here by the matrix's bytes,
shared by loops with equal matrices: the full step, the dwell landings and the
bisection sub-steps (a few hundred lengths per batch) each build theirs once.
No event is tested inside the dwell, so on a linear loop its full steps
(neither landing on T nor cut by the horizon) flow as one block: the states
after 1, ..., m steps are P z, P^2 z, ..., P^m z for the full step's
propagator P, one matrix-vector product with a cached read-only stack of
``_DWELL_BLOCK`` powers, and one vectorised norm guard.  The clock follows the
same float recurrence as single steps, so t, tau and the jump times are those
of stepping one at a time; the states differ from it by rounding, within 32
ulps relative to max(1, |z|) when a dwell is re-stepped from its start
(``TestDwellBlock``).  A block that meets inf, NaN or the guard is discarded,
and the run steps singly from there on.  ``flow_step`` takes the single step
from the same memo; identical inputs give bit-identical logs.
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
from .trigger import TriggerConfig, ZetaParams, event_function, zeta_solution


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
    is then the identity and would repeat forever).
    """

    segments: List[Segment]
    jump_times: List[float]
    terminated: str = "horizon"

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
# so a whole planar benchmark run needs about 1,500 propagators.  The bound
# keeps memory flat for callers whose step lengths never repeat.
_PROPAGATOR_MEMO_SIZE = 4096
_MEMO_MATRICES = 8  # stacked matrices whose propagator memos are kept
_DWELL_BLOCK = 128  # most propagator powers in one block of a dwell's full steps
_POWER_STACKS = 32  # (matrix, step) pairs whose power stacks are kept


def _rk4_propagator(M, h):
    # One classical RK4 step of z' = M z is the linear map
    # I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24.
    A = M * h
    A2 = A @ A
    return np.eye(M.shape[0]) + A + A2 / 2.0 + (A2 @ A) / 6.0 + (A2 @ A2) / 24.0


def _rk4(F, z, h):
    # One classical RK4 step of z' = F(z); the only RK4 body in etclab.
    k1 = F(z)
    k2 = F(z + (0.5 * h) * k1)
    k3 = F(z + (0.5 * h) * k2)
    k4 = F(z + h * k3)
    return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@functools.lru_cache(maxsize=_MEMO_MATRICES)
def _propagator_memo(M_bytes):
    """{h: RK4 propagator for step h} of the stacked matrix with these bytes.

    ``_stepper`` clears it at 4,096 entries, so the 8 kept memos hold 32,768 matrices at worst.
    """
    return {}


def _stepper(sys: ClosedLoopSystem):
    """Return advance(z, h) -> z', the one flow step of ``simulate`` and ``flow_step``.

    Linear loops apply the RK4 propagator for h from the memo of their
    stacked matrix, fetched once here so that each step looks it up with a
    plain ``dict.get``; the rest run ``_rk4`` on the stacked
    F(z) = (f(x, e), g(x, e)), z = (x, e).
    """
    M, n_x, f, g = sys.stacked_matrix, sys.n_x, sys.f, sys.g
    if M is not None:
        memo = _propagator_memo(M.tobytes())

        def advance(z, h):
            P = memo.get(h)
            if P is None:
                if len(memo) >= _PROPAGATOR_MEMO_SIZE:
                    memo.clear()
                P = memo[h] = _rk4_propagator(M, h)
            return P.dot(z)

        return advance

    def F(z):
        x, e = z[:n_x], z[n_x:]
        return np.concatenate((f(x, e), g(x, e)))

    return lambda z, h: _rk4(F, z, h)


@functools.lru_cache(maxsize=_POWER_STACKS)
def _dwell_powers(M_bytes, n, step):
    """P, P^2, ..., P^_DWELL_BLOCK for the RK4 propagator P of step, as read-only rows.

    M_bytes are the C-order bytes of the n x n stacked matrix; P^j = P P^(j-1).
    The kept stacks hold 32 x 128 = 4,096 matrices at worst.
    """
    P = _rk4_propagator(np.frombuffer(M_bytes).reshape(n, n).copy(), step)  # aligned like M
    powers = [P]
    for _ in range(_DWELL_BLOCK - 1):
        powers.append(P.dot(powers[-1]))
    stack = np.concatenate(powers)
    stack.setflags(write=False)
    return stack


def _block_flow(sys: ClosedLoopSystem, step: float):
    """Return flow_block(z, m) -> the (m, n) states after 1, ..., m steps of length step.

    Row j is P^j z, from one product with ``_dwell_powers``; m is at most
    ``_DWELL_BLOCK``.  None for a loop without a ``stacked_matrix``.
    Overflowing powers or states come out as inf or NaN; callers silence
    numpy's warnings and check the rows.
    """
    M = sys.stacked_matrix
    if M is None:
        return None
    key, n = M.tobytes(), M.shape[0]
    return lambda z, m: _dwell_powers(key, n, step)[: m * n].dot(z).reshape(m, n)


@functools.lru_cache(maxsize=64)
def _dwell_clock(step, T, tau):
    """The clock after each of the next full steps of a dwell at tau, as an array and a tuple.

    A full step is one with step < T - tau, so it does not land on T; the
    clock follows ``simulate``'s float recurrence tau + step, for at most
    ``_DWELL_BLOCK`` steps.
    """
    taus = []
    while step < T - tau and len(taus) < _DWELL_BLOCK:
        tau += step
        taus.append(tau)
    arr = np.array(taus)
    arr.setflags(write=False)
    return arr, tuple(taus)


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
    """One flow step of size h from q: ``simulate``'s single step, from the same memo.

    A step that ``simulate`` takes singly (a dwell landing, a monitored or
    bisection step, any step of a nonlinear loop) records this state bit
    for bit.  Of a dwell block, the first row P z matches it too (with
    numpy's BLAS, as ``TestFlowStep`` checks); later rows equal repeated
    ``flow_step`` only within the bound in the module docstring.

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

    n_x = sys.n_x
    flow = _stepper(sys)
    step, horizon = settings.step, settings.horizon_t
    block = _block_flow(sys, step)
    eps = 1e-15 * max(1.0, horizon)
    T = cfg.T  # 0 in pure-event mode, where the dwell branch never runs
    record = settings.record_states
    # The sample log: (t, z, tau) rows, the row where each jump cuts it, the
    # jump times.  z is never modified in place once recorded, so rows hold
    # references, not copies.
    rows, cuts, jump_times = [], [], []

    tau = q0.tau
    base = -tau  # absolute time is base + tau; a jump at t sets base = t, tau = 0
    monitoring = False  # set once the event test at dwell expiry has failed
    terminated = "horizon"
    if record:
        rows.append((0.0, z, tau))
    while True:
        t = base + tau
        if horizon - t <= eps:
            break
        if monitoring:
            h = min(step, horizon - t)
            tau_next = tau + h
        elif tau < T:
            # Dwell: flow freely and land exactly on T.
            if block is not None and step < T - tau and step <= horizon - t:
                # Full steps, neither landing on T nor cut by the horizon, flow
                # as one block of propagator powers.  t only grows, so the
                # steps that start at least a step before the horizon are a prefix.
                taus, tau_k = _dwell_clock(step, T, tau)
                ts = base + taus
                m = 1 + int(np.count_nonzero(horizon - ts[:-1] >= step))
                with np.errstate(over="ignore", invalid="ignore"):
                    Z = block(z, m)
                    within = math.sqrt(np.einsum("ij,ij->i", Z, Z).max()) <= guard
                if within:
                    z, tau = Z[-1], tau_k[m - 1]
                    if record:
                        rows.extend(zip(ts[:m].tolist(), Z, tau_k[:m]))
                else:
                    # Inf, NaN or past the guard: step singly from here on, so
                    # that a divergence ends as the single-step path ends it.
                    block = None
                continue
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
            monitoring = True
            continue

        if h is not None:
            t_next = base + tau_next
            z_next = flow(z, h)
            if not math.hypot(*z_next.tolist()) <= guard:  # catches NaN as well
                if record:
                    rows.append((t_next, z_next, tau_next))
                raise DivergenceError(
                    f"state norm exceeded blow-up guard {guard:g}",
                    partial=HybridSolution(_segments(rows, cuts, n_x), jump_times, "blow-up"),
                    state=HybridState(z_next[:n_x], z_next[n_x:], tau_next),
                )
            if not monitoring or h_ev(z_next[:n_x], z_next[n_x:]) < 0.0:
                z, tau = z_next, tau_next
                if record:
                    rows.append((t_next, z, tau))
                continue
            # The event fired inside this step: bisect for its first instant.
            lo, hi, z_hi = 0.0, h, z_next
            while hi - lo > settings.event_tol:
                mid = 0.5 * (lo + hi)
                z_mid = flow(z, mid)
                if h_ev(z_mid[:n_x], z_mid[n_x:]) >= 0.0:
                    hi, z_hi = mid, z_mid
                else:
                    lo = mid
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

    return HybridSolution(_segments(rows, cuts, n_x), jump_times, terminated)


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
