"""Hybrid integrator: flow, event localization, jumps, solution records.

The closed loop flows as (x', e', tau') = (f(x, e), g(x, e), 1) and a
transmission (jump) resets (x, e, tau) to (x, 0, 0).  The simulator
adopts a deterministic jump policy: with a dwell time T > 0 it flows
freely until tau = T, then monitors the event excess h(x, e) and jumps
at the first time h >= 0, located by bisection; if h >= 0 already when
the dwell expires, the jump happens at tau = T exactly.  At the
equilibrium this degenerates to periodic sampling with period T.

Flows use classical fixed-step RK4 (no dense output); reproducibility
is exact: identical inputs give bit-identical event logs.
"""

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import ConfigError, DivergenceError, DomainError
from .model import Certificate, ClosedLoopSystem, HybridState
from .trigger import TriggerConfig, ZetaParams, ZetaTracker, event_function, in_flow, in_jump


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
        if not self.step > 0:
            raise ConfigError("step must be positive")
        if not 0 < self.horizon_t < math.inf:
            raise ConfigError("horizon_t must be positive and finite")
        if not self.max_jumps >= 1:
            raise ConfigError("max_jumps must be at least 1")
        if not 0 < self.event_tol < self.step:
            raise ConfigError("event_tol must satisfy 0 < event_tol < step")
        if not self.blowup_norm > 0:
            raise ConfigError("blowup_norm must be positive")


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

    ``inter_event_gaps`` are the positive gaps between consecutive
    transmission epochs, counting t = 0 as the zeroth epoch (the clock
    starts at tau = 0 there); a degenerate jump at t = 0 contributes no
    gap.  ``terminated`` is "horizon", "max-jumps", "blow-up" or "zeno"
    (a jump at the instant of the previous one with e already zero: the
    jump map is then the identity and would repeat forever).
    """

    segments: List[Segment]
    jump_times: List[float]
    inter_event_gaps: List[float]
    terminated: str = "horizon"

    @property
    def n_jumps(self):
        return len(self.jump_times)

    def gap_rows(self):
        """(j, t_j, gap) per gap: the index and time of the jump that closes it."""
        offset = len(self.jump_times) - len(self.inter_event_gaps)
        return [
            (i + 1 + offset, self.jump_times[i + offset], gap)
            for i, gap in enumerate(self.inter_event_gaps)
        ]

    def final_state(self) -> Optional[HybridState]:
        if not self.segments or self.segments[-1].t.size == 0:
            return None
        seg = self.segments[-1]
        return HybridState(seg.x[-1].copy(), seg.e[-1].copy(), float(seg.tau[-1]))


def _rk4_propagator(M, h):
    # One classical RK4 step of z' = M z is the linear map
    # I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24.
    A = M * h
    A2 = A @ A
    return np.eye(M.shape[0]) + A + A2 / 2.0 + (A2 @ A) / 6.0 + (A2 @ A2) / 24.0


def _make_stepper(sys: ClosedLoopSystem):
    """Return step(q, h) -> HybridState; linear loops get a cached propagator."""
    M = sys.stacked_matrix
    if M is None:
        return lambda q, h: flow_step(sys, q, h)
    n_x = sys.n_x
    cache = {}

    def step(q, h):
        P = cache.get(h)
        if P is None:
            P = _rk4_propagator(M, h)
            cache[h] = P
        z = P @ np.concatenate((q.x, q.e))
        return HybridState(z[:n_x], z[n_x:], q.tau + h)

    return step


def flow_step(sys: ClosedLoopSystem, q: HybridState, h: float) -> HybridState:
    """One classical RK4 step of the augmented flow; tau advances by h."""
    if h <= 0:
        raise ValueError("flow_step: h must be positive")
    x, e = q.x, q.e
    f, g = sys.f, sys.g
    k1x = f(x, e)
    k1e = g(x, e)
    x2 = x + (0.5 * h) * k1x
    e2 = e + (0.5 * h) * k1e
    k2x = f(x2, e2)
    k2e = g(x2, e2)
    x3 = x + (0.5 * h) * k2x
    e3 = e + (0.5 * h) * k2e
    k3x = f(x3, e3)
    k3e = g(x3, e3)
    x4 = x + h * k3x
    e4 = e + h * k3e
    k4x = f(x4, e4)
    k4e = g(x4, e4)
    s = h / 6.0
    xn = x + s * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    en = e + s * (k1e + 2.0 * k2e + 2.0 * k3e + k4e)
    if not (np.all(np.isfinite(xn)) and np.all(np.isfinite(en))):
        raise DivergenceError("non-finite derivative evaluation", state=q)
    return HybridState(xn, en, q.tau + h)


class _Recorder:
    """Accumulates per-segment samples and assembles the solution."""

    def __init__(self, record_states):
        self.record_states = record_states
        self.segments: List[Segment] = []
        self.jump_times: List[float] = []
        self._t, self._x, self._e, self._tau = [], [], [], []
        self._j = 0

    def sample(self, t, q):
        if self.record_states:
            self._t.append(t)
            self._x.append(q.x.copy())
            self._e.append(q.e.copy())
            self._tau.append(q.tau)

    def close_segment(self):
        if self.record_states:
            self.segments.append(
                Segment(
                    j=self._j,
                    t=np.asarray(self._t),
                    x=np.asarray(self._x),
                    e=np.asarray(self._e),
                    tau=np.asarray(self._tau),
                )
            )
            self._t, self._x, self._e, self._tau = [], [], [], []
        self._j += 1

    def solution(self, terminated):
        gaps = []
        prev = 0.0
        for tj in self.jump_times:
            gap = tj - prev
            if gap > 0.0:
                gaps.append(gap)
            prev = tj
        return HybridSolution(
            segments=self.segments,
            jump_times=list(self.jump_times),
            inter_event_gaps=gaps,
            terminated=terminated,
        )


def simulate(
    sys: ClosedLoopSystem,
    cert: Certificate,
    cfg: TriggerConfig,
    q0: HybridState,
    settings: SimSettings,
) -> HybridSolution:
    """Simulate the closed loop from q0 until horizon, max_jumps or blow-up.

    Raises DomainError if q0 lies outside the flow and jump sets,
    ConfigError for invalid pairings (dwell time at or above the MASP
    ceiling, step too coarse relative to T), and DivergenceError
    (carrying the partial solution) if the state norm passes the
    blow-up guard.
    """
    if q0.x.shape != (sys.n_x,) or q0.e.shape != (sys.n_e,):
        raise ConfigError(
            f"initial state dimensions {q0.x.shape}, {q0.e.shape} do not match "
            f"the system ({sys.n_x}, {sys.n_e})"
        )
    if not (np.all(np.isfinite(q0.x)) and np.all(np.isfinite(q0.e))):
        raise DomainError("initial state must be finite")
    cfg.validate_against(cert)
    if cfg.mode != "pure-event" and settings.step > cfg.T / 10.0 * (1.0 + 1e-12):
        raise ConfigError(
            f"step {settings.step:g} too coarse: event detection requires step <= T/10 "
            f"= {cfg.T / 10.0:g}"
        )
    tol0 = 1e-12 * max(1.0, q0.norm())
    if not (in_flow(q0, cert, cfg) or in_jump(q0, cert, cfg, tol=tol0)):
        raise DomainError("initial state lies outside the flow and jump sets")

    h_ev = event_function(cert, cfg)
    rec = _Recorder(settings.record_states)
    stepper = _make_stepper(sys)
    step = settings.step
    horizon = settings.horizon_t
    guard = settings.blowup_norm

    q = q0.copy()
    t_seg = 0.0  # absolute time at which the current segment's clock started
    j = 0
    rec.sample(0.0, q)

    def q0_tau_offset():
        # Absolute time = t_seg + (tau - tau_at_segment_start); only the
        # initial segment can start with a nonzero clock.
        return q0.tau if j == 0 else 0.0

    def abs_time(q):
        return t_seg + q.tau - q0_tau_offset()

    def advance(q, h, snap_tau=None):
        qn = stepper(q, h)
        if snap_tau is not None:
            qn.tau = snap_tau
        nrm = qn.norm()
        if not nrm <= guard:  # catches NaN as well
            rec.sample(abs_time(qn), qn)
            rec.close_segment()
            raise DivergenceError(
                f"state norm exceeded blow-up guard {guard:g}",
                partial=rec.solution("blow-up"),
                state=qn,
            )
        return qn

    terminated = None
    while True:
        # Dwell phase: flow freely until the clock reaches T.
        while cfg.mode != "pure-event" and q.tau < cfg.T:
            t = abs_time(q)
            if t >= horizon:
                break
            remaining_tau = cfg.T - q.tau
            remaining_t = horizon - t
            h = min(step, remaining_tau, remaining_t)
            snap = cfg.T if h == remaining_tau else None
            q = advance(q, h, snap_tau=snap)
            rec.sample(abs_time(q), q)
        if abs_time(q) >= horizon - 1e-15 * max(1.0, horizon):
            terminated = "horizon"
            break

        if cfg.mode == "periodic":
            jumped_at = abs_time(q)
        else:
            # Event phase: jump at the first time >= dwell expiry with h >= 0.
            if h_ev(q.x, q.e) >= 0.0:
                jumped_at = abs_time(q)
                if j > 0 and jumped_at == t_seg:
                    # No flow since the last jump: e is still 0, so jumping
                    # again leaves q unchanged, forever.
                    terminated = "zeno"
                    break
            else:
                jumped_at = None
                while True:
                    t = abs_time(q)
                    h = min(step, horizon - t)
                    if h <= 1e-15 * max(1.0, horizon):
                        terminated = "horizon"
                        break
                    q_new = advance(q, h)
                    if h_ev(q_new.x, q_new.e) >= 0.0:
                        lo, hi, q_hi = 0.0, h, q_new
                        while hi - lo > settings.event_tol:
                            mid = 0.5 * (lo + hi)
                            q_mid = stepper(q, mid)
                            if h_ev(q_mid.x, q_mid.e) >= 0.0:
                                hi, q_hi = mid, q_mid
                            else:
                                lo = mid
                        q = q_hi
                        rec.sample(abs_time(q), q)
                        jumped_at = abs_time(q)
                        break
                    q = q_new
                    rec.sample(t + h, q)
                if jumped_at is None:
                    break  # horizon reached while monitoring

        # Jump: reset the error and the clock.
        rec.jump_times.append(jumped_at)
        rec.close_segment()
        j += 1
        q = HybridState(q.x.copy(), np.zeros(sys.n_e), 0.0)
        t_seg = jumped_at
        rec.sample(t_seg, q)
        if j >= settings.max_jumps:
            terminated = "max-jumps"
            break
        if t_seg >= horizon:
            terminated = "horizon"
            break

    rec.close_segment()
    return rec.solution(terminated or "horizon")


def r_monitor(sol: HybridSolution, cert: Certificate, zp: ZetaParams):
    """Evaluate R(q) = V(x) + max(0, lam * zeta(tau) * W(e)^2) along a solution.

    zeta(tau) is obtained by integrating the comparison ODE afresh on
    each segment (the clock resets at jumps).  Returns a list of
    (t, j, R) triples in hybrid-time order.  Callers should choose
    (theta, eta) so that the dwell time stays below the zeta transit
    time, otherwise the monitor is vacuous on long segments.
    """
    lam = zp.lam(cert.gamma)
    out = []
    for seg in sol.segments:
        if seg.t.size == 0:
            continue
        tracker = ZetaTracker(cert.gamma, cert.L, zp)
        # Segments opened by a jump start at tau = 0; the initial
        # segment may start at tau0 > 0, so bring zeta up to speed.
        prev_tau = 0.0
        z = tracker.z
        for i in range(seg.t.size):
            tau = float(seg.tau[i])
            z = tracker.advance(tau - prev_tau)
            prev_tau = tau
            w = cert.W(seg.e[i])
            r = cert.V(seg.x[i]) + max(0.0, lam * z * w * w)
            out.append((float(seg.t[i]), seg.j, r))
    return out
