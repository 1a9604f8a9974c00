import dataclasses
import hashlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from etclab import (
    Certificate,
    ClosedLoopSystem,
    ConfigError,
    DesignInfeasibleError,
    DimensionError,
    DivergenceError,
    DomainError,
    HybridSolution,
    HybridState,
    LmiCertificate,
    LtiController,
    LtiPlant,
    Segment,
    SimSettings,
    TriggerConfig,
    ZetaParams,
    assemble,
    check_assumption_sampled,
    design_certificate,
    event_function,
    extract_assumption,
    flow_step,
    lorenz_loop,
    masp,
    r_monitor,
    simulate,
    tabuada_loop,
    zeta_time,
)
from etclab import hybrid, trigger
from etclab.hybrid import _DWELL_BLOCK, _PROPAGATORS, _rk4_propagator
from etclab.montecarlo import BatchSpec, run_batch, sample_initial
from etclab.systems import TABUADA_EPS2, lti_loop_from_matrices, tabuada_matrices
from etclab.trigger import MODES
from oracles import LtiHybridOracle

SETTINGS = SimSettings(step=1e-3, horizon_t=1.0, event_tol=1e-6)


def _of_cfg(T=0.01):
    return TriggerConfig(mode="output-feedback", T=T)


def _sf_cfg(T=0.075, sigma=0.7):
    return TriggerConfig(mode="state-feedback", T=T, sigma=sigma)


def _assert_in_flow_or_jump_set(sol, cert, cfg):
    # Recorded states meet D's equalities only up to the event tolerance,
    # so the slack scales with the terms the event excess compares.
    h = event_function(cert, cfg)
    for seg in sol.segments:
        for x, e, tau in zip(seg.x, seg.e, seg.tau):
            y = cert.y_of_x(x)
            threshold = cert.alpha(float(np.linalg.norm(x))) + cert.H(x) ** 2 + cert.delta(y)
            scale = max(1.0, cert.gamma**2 * cert.W(e) ** 2, threshold)
            assert any(cfg.membership(h(x, e), float(tau), tol=1e-4 * scale))


def _permissive_cert():
    # A certificate for a scalar loop that accepts any state.
    return Certificate(
        V=lambda x: float(x @ x),
        W=lambda e: float(np.linalg.norm(e)),
        H=lambda x: 0.0,
        delta=lambda y: float(np.atleast_1d(y) @ np.atleast_1d(y)),
        alpha=lambda s: s * s,
        gamma=1.0,
        L=0.0,
        alpha_lower=lambda s: s * s,
        alpha_upper=lambda s: s * s,
        n_x=1,
        n_e=1,
        n_y=1,
    )


def _array_rk4(sys, z, h):
    """The RK4 body on arrays, over F(z) = concatenate((f, g)): the reference for a nonlinear step."""

    def F(z):
        x, e = z[: sys.n_x], z[sys.n_x :]
        return np.concatenate((sys.f(x, e), sys.g(x, e)))

    k1 = F(z)
    k2 = F(z + (0.5 * h) * k1)
    k3 = F(z + (0.5 * h) * k2)
    k4 = F(z + h * k3)
    return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _closure_steps():
    """The step lengths of a nonlinear run at step 1e-3, T = 0.01 and event_tol 1e-6: a full
    step, the dwell landing T - tau after the full steps, and the bisection's halvings
    of the step down to event_tol."""
    step, T, event_tol = 1e-3, 0.01, 1e-6
    tau = 0.0
    while step < T - tau:
        tau += step
    halvings = [step / 2**k for k in range(1, 64) if step / 2**k >= event_tol]
    return [step, T - tau, *halvings, event_tol]


_CLOSURE_STEPS = _closure_steps()


class TestFlowStep:
    def test_equilibrium_fixed_point(self, lorenz):
        sys, _ = lorenz
        q = HybridState(np.zeros(3), np.zeros(1), 0.5)
        qn = flow_step(sys, q, 1e-2)
        assert np.all(qn.x == 0.0) and np.all(qn.e == 0.0)
        assert qn.tau == 0.5 + 1e-2

    def test_fifth_order_local_accuracy(self, tabuada, rng):
        sys, _ = tabuada
        q = HybridState(rng.standard_normal(2), rng.standard_normal(2), 0.0)
        z = np.concatenate((q.x, q.e))

        def err(h):
            qn = flow_step(sys, q, h)
            z_exact = scipy.linalg.expm(sys.stacked_matrix * h) @ z
            return np.linalg.norm(np.concatenate((qn.x, qn.e)) - z_exact)

        e1, e2 = err(1e-2), err(5e-3)
        assert e1 < 1e-7
        assert e1 / e2 > 16.0  # at least O(h^5) locally

    def test_clock_advances_exactly(self, lorenz, rng):
        sys, _ = lorenz
        q = HybridState(rng.standard_normal(3), rng.standard_normal(1), 0.0)
        acc = 0.0
        for _ in range(100):
            q = flow_step(sys, q, 1e-3)
            acc += 1e-3
        assert q.tau == acc

    def test_rejects_nonpositive_step(self, lorenz):
        sys, _ = lorenz
        with pytest.raises(ValueError):
            flow_step(sys, HybridState(np.zeros(3), np.zeros(1), 0.0), 0.0)

    @pytest.mark.parametrize("h", [float("nan"), float("inf")])
    def test_rejects_nonfinite_step(self, lorenz, h):
        sys, _ = lorenz
        with pytest.raises(ValueError, match="positive and finite"):
            flow_step(sys, HybridState(np.ones(3), np.ones(1), 0.0), h)

    def test_rejects_state_of_other_dimensions(self, lorenz):
        sys, _ = lorenz
        with pytest.raises(ConfigError, match="do not match"):
            flow_step(sys, HybridState(np.ones(2), np.ones(1), 0.0), 1e-3)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_nonfinite_state(self, lorenz, bad):
        sys, _ = lorenz
        with pytest.raises(DomainError, match="must be finite"):
            flow_step(sys, HybridState(np.array([1.0, bad, 0.0]), np.zeros(1), 0.0), 1e-3)

    def test_nonfinite_derivative_raises_divergence(self):
        sys = ClosedLoopSystem(
            n_x=1, n_e=1, f=lambda x, e: np.full(1, np.nan), g=lambda x, e: [0.0 * v for v in e]
        )
        q = HybridState(np.array([1.0]), np.zeros(1), 0.0)
        with pytest.raises(DivergenceError, match="non-finite") as info:
            flow_step(sys, q, 1e-3)
        assert info.value.state is q

    @pytest.mark.parametrize("entry", ["simulate", "flow_step"])
    def test_derivatives_of_the_wrong_length_raise_dimension_error(self, entry):
        sys = ClosedLoopSystem(
            n_x=1, n_e=1, f=lambda x, e: np.array((x[0], x[0])),
            g=lambda x, e: [0.0 * v for v in e], name="long-f",
        )
        q = HybridState(np.array([1.0]), np.zeros(1), 0.0)
        settings = SimSettings(step=1e-3, horizon_t=1.0, event_tol=1e-6)
        with pytest.raises(DimensionError, match=r"loop 'long-f' return 3 derivatives.* needs 2"):
            if entry == "simulate":
                simulate(sys, _permissive_cert(), _of_cfg(T=0.05), q, settings)
            else:
                flow_step(sys, q, 1e-3)

    @pytest.mark.parametrize("loop", ["lorenz", "blow-up-closure"])
    def test_nonlinear_step_equals_the_rk4_body_on_arrays(self, loop, request):
        # The float body keeps the array body's sums in order, so every byte agrees.
        if loop == "lorenz":
            sys, _ = request.getfixturevalue("lorenz")
        else:
            sys = _diverging_loops()[loop][0]
        rng = np.random.default_rng(11)
        n = sys.n_x + sys.n_e
        for _ in range(200):
            z = rng.uniform(-5.0, 5.0, n)
            q = HybridState(z[: sys.n_x], z[sys.n_x :], 0.0)
            for h in _CLOSURE_STEPS:
                qn = flow_step(sys, q, h)
                assert np.concatenate((qn.x, qn.e)).tobytes() == _array_rk4(sys, z, h).tobytes()

    @pytest.mark.parametrize("loop, T, radius", [("tabuada", 0.02, 10.0), ("lorenz", 0.01, 5.0)])
    def test_equals_the_first_step_of_simulate(self, loop, T, radius, request):
        # Linear loops take the propagator, the rest the RK4 body, in both.
        sys, cert = request.getfixturevalue(loop)
        rng = np.random.default_rng(7)
        h = 1e-3
        settings = SimSettings(step=h, horizon_t=2 * h, event_tol=1e-6)
        for _ in range(200):
            z = rng.uniform(-radius, radius, sys.n_x + sys.n_e)
            q = HybridState(z[: sys.n_x], z[sys.n_x :], 0.0)
            seg = simulate(sys, cert, TriggerConfig(mode="periodic", T=T), q, settings).segments[0]
            qn = flow_step(sys, q, h)
            assert qn.x.tobytes() == seg.x[1].tobytes()
            assert qn.e.tobytes() == seg.e[1].tobytes()
            assert qn.tau == seg.tau[1]


class TestSimSettings:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("step", float("nan")),
            ("step", float("inf")),
            ("event_tol", 1e-20),
            ("horizon_t", float("nan")),
            ("horizon_t", float("inf")),
            ("max_jumps", float("nan")),
            ("blowup_norm", float("nan")),
            ("blowup_norm", float("inf")),
        ],
    )
    def test_rejects_nan_and_infinite_values(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} "):
            SimSettings(**{field: value})

    def test_rejects_more_than_1e9_steps(self):
        SimSettings(step=1e-3, horizon_t=1e6)  # 1e9 steps: the most allowed
        with pytest.raises(ConfigError, match=r"^horizon_t 1e\+30 over step 0.001 exceeds 1e9"):
            SimSettings(step=1e-3, horizon_t=1e30)

    @pytest.mark.parametrize("value", [2.5, True, "3"])
    def test_max_jumps_must_be_an_integer(self, value):
        with pytest.raises(ConfigError, match="^max_jumps must be an integer >= 1"):
            SimSettings(max_jumps=value)

    def test_event_tol_of_one_ulp_of_the_step_ends_the_bisection(self, tabuada):
        # Adjacent floats below the step lie at most one ulp(step) apart.
        sys, cert = tabuada
        settings = SimSettings(step=1e-3, horizon_t=0.5, event_tol=math.ulp(1e-3))
        q0 = HybridState(np.array([3.0, -2.0]), np.zeros(2), 0.0)
        sol = simulate(sys, cert, _sf_cfg(), q0, settings)
        assert sol.terminated == "horizon" and sol.n_jumps >= 1


class TestHybridSolution:
    def test_gaps_follow_from_jump_times(self):
        sol = HybridSolution(segments=[], jump_times=[0.0, 0.1, 0.25])
        assert sol.gap_rows() == [(2, 0.1, 0.1), (3, 0.25, 0.15)]
        assert sol.inter_event_gaps == [0.1, 0.15]
        assert sol.n_jumps == 3

    def test_stores_no_gap_field(self):
        fields = [f.name for f in dataclasses.fields(HybridSolution)]
        assert fields == ["segments", "jump_times", "terminated", "root_jumps", "bisection_jumps"]

    def test_final_state_is_none_without_recorded_states(self, tabuada):
        sys, cert = tabuada
        q0 = HybridState(np.array([3.0, -2.0]), np.zeros(2), 0.0)
        settings = SimSettings(step=1e-3, horizon_t=0.2, event_tol=1e-6, record_states=False)
        sol = simulate(sys, cert, _sf_cfg(), q0, settings)
        assert sol.n_jumps >= 1 and sol.final_state() is None


class TestSimulate:
    def test_equilibrium_samples_periodically(self, lorenz):
        sys, cert = lorenz
        q0 = HybridState(np.zeros(3), np.zeros(1), 0.0)
        sol = simulate(sys, cert, _of_cfg(0.01), q0, SimSettings(step=1e-3, horizon_t=0.055, event_tol=1e-6))
        assert np.allclose(sol.jump_times, [0.01, 0.02, 0.03, 0.04, 0.05], atol=1e-12)
        assert np.allclose(sol.inter_event_gaps, 0.01, atol=1e-12)
        final = sol.final_state()
        assert np.all(final.x == 0.0)

    def test_periodic_mode_jumps_on_the_clock(self, tabuada):
        sys, cert = tabuada
        q0 = HybridState(np.array([1.0, 1.0]), np.zeros(2), 0.0)
        cfg = TriggerConfig(mode="periodic", T=0.02)
        sol = simulate(sys, cert, cfg, q0, SimSettings(step=1e-3, horizon_t=0.1, event_tol=1e-6))
        assert np.allclose(sol.inter_event_gaps, 0.02, atol=1e-12)

    def test_jump_map_resets_exactly(self, tabuada, rng):
        sys, cert = tabuada
        q0 = HybridState(rng.standard_normal(2) * 10, rng.standard_normal(2), 0.0)
        sol = simulate(sys, cert, _sf_cfg(), q0, SETTINGS)
        assert sol.n_jumps >= 2
        for seg in sol.segments[1:]:
            assert np.all(seg.e[0] == 0.0)
            assert seg.tau[0] == 0.0

    def test_segment_clock_tracks_time(self, tabuada, rng):
        sys, cert = tabuada
        q0 = HybridState(rng.standard_normal(2) * 5, np.zeros(2), 0.0)
        sol = simulate(sys, cert, _sf_cfg(), q0, SETTINGS)
        starts = [0.0] + sol.jump_times
        for seg in sol.segments:
            if seg.t.size == 0:
                continue
            assert np.all(np.diff(seg.t) > 0)
            assert np.array_equal(seg.t, starts[seg.j] + seg.tau)

    @pytest.mark.parametrize(
        "loop, cfg, x0, tau0",
        [
            ("tabuada", _sf_cfg(), [3.0, -2.0], 0.0),
            ("tabuada", _sf_cfg(), [3.0, -2.0], 0.03),
            ("tabuada", TriggerConfig(mode="pure-event", T=0.0, sigma=0.7), [3.0, -2.0], 0.0),
            ("tabuada", TriggerConfig(mode="periodic", T=0.075), [3.0, -2.0], 0.0),
            ("lorenz", _of_cfg(0.01), [1.0, 1.0, 1.0], 0.004),
        ],
        ids=["state-feedback", "state-feedback-tau0", "pure-event", "periodic", "lorenz"],
    )
    def test_every_sample_reads_its_time_from_the_clock(self, loop, cfg, x0, tau0, request):
        # t = t_j + tau exactly, with t_0 = -q0.tau: the hybrid time domain's
        # own clock, whether a sample ends a dwell block, a dwell landing, a
        # monitored step or a bisection.
        sys, cert = request.getfixturevalue(loop)
        q0 = HybridState(np.array(x0), np.zeros(sys.n_e), tau0)
        sol = simulate(sys, cert, cfg, q0, SimSettings(step=1e-3, horizon_t=10.0))
        starts = [-tau0] + sol.jump_times
        assert sol.n_jumps >= 100
        for seg in sol.segments:
            assert np.array_equal(seg.t, starts[seg.j] + seg.tau)

    def test_dwell_time_respected(self, tabuada, rng):
        sys, cert = tabuada
        for k in range(5):
            q0 = HybridState(rng.standard_normal(2) * 50, rng.standard_normal(2) * 20, 0.0)
            sol = simulate(sys, cert, _sf_cfg(), q0, SETTINGS)
            assert all(g >= 0.075 - 1e-6 for g in sol.inter_event_gaps)

    def test_pure_event_no_zeno_at_start(self, tabuada):
        sys, cert = tabuada
        q0 = HybridState(np.array([3.0, -2.0]), np.zeros(2), 0.0)
        cfg = TriggerConfig(mode="pure-event", T=0.0, sigma=0.7)
        sol = simulate(sys, cert, cfg, q0, SETTINGS)
        assert sol.n_jumps >= 1
        assert sol.inter_event_gaps[0] > 0.0

    def test_pure_event_at_equilibrium_stops_as_zeno(self, tabuada):
        # x = e = 0 lies in D and the jump map fixes it: one jump, then stop.
        sys, cert = tabuada
        q0 = HybridState(np.zeros(2), np.zeros(2), 0.0)
        cfg = TriggerConfig(mode="pure-event", T=0.0, sigma=0.7)
        settings = SimSettings(step=1e-3, horizon_t=1.0, max_jumps=1000, event_tol=1e-6)
        sol = simulate(sys, cert, cfg, q0, settings)
        assert sol.terminated == "zeno"
        assert sol.jump_times == [0.0]
        assert sol.inter_event_gaps == []

    def test_pure_event_initial_condition_in_jump_set(self, tabuada):
        # A large initial error puts q0 in D: the run starts with a jump
        # at t = 0, which anchors the clock but contributes no gap.
        sys, cert = tabuada
        q0 = HybridState(np.array([0.1, 0.0]), np.array([50.0, 50.0]), 0.0)
        cfg = TriggerConfig(mode="pure-event", T=0.0, sigma=0.7)
        sol = simulate(sys, cert, cfg, q0, SETTINGS)
        assert sol.jump_times[0] == 0.0
        assert all(g > 0.0 for g in sol.inter_event_gaps)

    def test_deterministic(self, tabuada, rng):
        sys, cert = tabuada
        q0 = HybridState(rng.standard_normal(2) * 30, rng.standard_normal(2), 0.0)
        sol_a = simulate(sys, cert, _sf_cfg(), q0, SETTINGS)
        sol_b = simulate(sys, cert, _sf_cfg(), q0, SETTINGS)
        assert sol_a.jump_times == sol_b.jump_times
        assert sol_a.inter_event_gaps == sol_b.inter_event_gaps

    def test_flow_accuracy_over_inter_event_interval(self, tabuada):
        sys, cert = tabuada
        q0 = HybridState(np.array([3.0, -2.0]), np.zeros(2), 0.0)
        sol = simulate(sys, cert, _sf_cfg(), q0, SETTINGS)
        t1 = sol.jump_times[0]
        seg = sol.segments[0]
        z_exact = scipy.linalg.expm(sys.stacked_matrix * t1) @ np.concatenate(
            (q0.x, q0.e)
        )
        z_num = np.concatenate((seg.x[-1], seg.e[-1]))
        rel = np.linalg.norm(z_num - z_exact) / np.linalg.norm(z_exact)
        assert rel <= 1e-6

    def test_trajectory_stays_in_flow_or_jump_set(self, tabuada, rng):
        sys, cert = tabuada
        cfg = _sf_cfg()
        q0 = HybridState(rng.standard_normal(2) * 10, np.zeros(2), 0.0)
        sol = simulate(sys, cert, cfg, q0, SETTINGS)
        _assert_in_flow_or_jump_set(sol, cert, cfg)

    def test_initial_state_outside_sets_rejected(self, tabuada):
        sys, cert = tabuada
        # tau beyond T with the event excess strictly positive: outside C u D.
        q0 = HybridState(np.array([0.1, 0.0]), np.array([50.0, 50.0]), 0.2)
        with pytest.raises(DomainError):
            simulate(sys, cert, _sf_cfg(), q0, SETTINGS)

    def test_step_coarser_than_dwell_rejected(self, tabuada):
        sys, cert = tabuada
        q0 = HybridState(np.zeros(2), np.zeros(2), 0.0)
        with pytest.raises(ConfigError, match="step"):
            simulate(sys, cert, _sf_cfg(T=0.075), q0, SimSettings(step=0.01, horizon_t=1.0, event_tol=1e-6))

    def test_dwell_above_ceiling_rejected(self, tabuada):
        sys, cert = tabuada
        q0 = HybridState(np.zeros(2), np.zeros(2), 0.0)
        with pytest.raises(ConfigError, match="MASP"):
            simulate(sys, cert, _sf_cfg(T=0.1), q0, SimSettings(step=1e-3, horizon_t=1.0, event_tol=1e-6))

    def test_divergence_carries_partial_solution(self):
        # An artificial unstable loop with a permissive certificate.
        sys = ClosedLoopSystem(
            n_x=1,
            n_e=1,
            f=lambda x, e: [3.0 * v for v in x],
            g=lambda x, e: [0.0 * v for v in e],
        )
        cert = _permissive_cert()
        q0 = HybridState(np.array([1.0]), np.zeros(1), 0.0)
        settings = SimSettings(step=1e-3, horizon_t=20.0, event_tol=1e-6, blowup_norm=1e3)
        with pytest.raises(DivergenceError) as info:
            simulate(sys, cert, _of_cfg(T=0.05), q0, settings)
        assert info.value.partial is not None
        assert info.value.partial.terminated == "blow-up"

    def test_nonfinite_flow_carries_partial_solution(self):
        # f goes NaN once an RK4 stage overshoots x = 1.5; the nonlinear
        # path reports it through the same norm guard as a linear blow-up.
        sys = ClosedLoopSystem(
            n_x=1, n_e=1, f=lambda x, e: np.sqrt(1.5 - np.asarray(x)),
            g=lambda x, e: [0.0 * v for v in e],
        )
        q0 = HybridState(np.array([1.0]), np.zeros(1), 0.0)
        settings = SimSettings(step=1e-3, horizon_t=2.0, event_tol=1e-6)
        with np.errstate(invalid="ignore"), pytest.raises(DivergenceError) as info:
            simulate(sys, _permissive_cert(), _of_cfg(T=0.05), q0, settings)
        partial = info.value.partial
        assert partial is not None
        assert partial.terminated == "blow-up"
        assert np.all(np.isfinite(partial.segments[-1].x[:-1]))
        assert not np.all(np.isfinite(partial.segments[-1].x[-1]))

    @pytest.mark.parametrize("loop", ["division", "overflow"])
    def test_arithmetic_error_in_f_carries_partial_solution(self, loop):
        # A float f raises where numpy scalars gave inf or NaN; the run ends
        # as a non-finite step ends it, with the states before it recorded.
        sys, x0, _, step, n_ok = _raising_loops()[loop]
        q0 = HybridState(np.array([x0]), np.zeros(1), 0.0)
        settings = SimSettings(step=step, horizon_t=1.0, event_tol=1e-6, blowup_norm=1e150)
        with pytest.raises(DivergenceError, match="blow-up guard") as info:
            simulate(sys, _permissive_cert(), _of_cfg(T=0.05), q0, settings)
        partial = info.value.partial
        assert partial.terminated == "blow-up"
        x = np.concatenate([seg.x[:, 0] for seg in partial.segments])
        assert len(x) == n_ok + 1
        assert np.all(np.isfinite(x[:-1])) and np.isnan(x[-1])
        assert np.isnan(info.value.state.x).all()

    @pytest.mark.parametrize("loop", ["division", "overflow"])
    def test_arithmetic_error_in_f_raises_divergence_from_flow_step(self, loop):
        sys, _, x_last, step, _ = _raising_loops()[loop]
        q = HybridState(np.array([x_last]), np.zeros(1), 0.0)
        with pytest.raises(DivergenceError, match="non-finite") as info:
            flow_step(sys, q, step)
        assert info.value.state is q

    def test_other_exceptions_from_f_propagate_as_themselves(self):
        # Only an ArithmeticError ends a step as a NaN one.  math.sqrt of a
        # negative raises ValueError, whose message differs across Python
        # versions; it leaves simulate and flow_step as itself, with no partial.
        sys = ClosedLoopSystem(
            n_x=1, n_e=1, f=lambda x, e: [math.sqrt(1.5 - x[0])],
            g=lambda x, e: [0.0 * v for v in e],
        )
        q0 = HybridState(np.array([1.0]), np.zeros(1), 0.0)
        settings = SimSettings(step=1e-3, horizon_t=2.0, event_tol=1e-6)
        with pytest.raises(ValueError) as info:
            simulate(sys, _permissive_cert(), _of_cfg(T=0.05), q0, settings)
        assert type(info.value) is ValueError
        with pytest.raises(ValueError) as info:
            flow_step(sys, HybridState(np.array([1.4]), np.zeros(1), 0.0), 1.0)
        assert type(info.value) is ValueError

    def test_lorenz_overflow_in_a_stage_raises_divergence(self, lorenz):
        # From x0 = (5e139, 2.5e139, 0) the second stage's x1 x3 passes 1.8e308:
        # f returns inf, which the norm guard reports instead of a RuntimeWarning.
        sys, cert = lorenz
        q0 = HybridState(np.array([5e139, 2.5e139, 0.0]), np.zeros(1), 0.0)
        settings = SimSettings(step=1e-3, horizon_t=1.0, event_tol=1e-6, blowup_norm=1e150)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match=r"guard 1e\+150") as info:
                simulate(sys, cert, _of_cfg(T=0.01), q0, settings)
        partial = info.value.partial
        assert partial.terminated == "blow-up"
        assert np.array_equal(partial.segments[0].x[0], q0.x)
        assert not np.all(np.isfinite(partial.segments[-1].x[-1]))

    @pytest.mark.parametrize("linear", [True, False], ids=["propagator", "closure"])
    def test_guard_above_the_squared_norm_overflow_raises_divergence(self, linear):
        # x' = 2e4 x grows about 1e9-fold per step of 0.02, so from x0 = 10 the
        # first state past the guard at 1e150 is also past 1.3e154, where
        # z.dot(z) overflows: the guard must trip on it without a warning.
        lam = 2e4
        sys = ClosedLoopSystem(
            n_x=1, n_e=1, f=lambda x, e: [lam * v for v in x], g=lambda x, e: [-lam * v for v in x],
            stacked_matrix=np.array([[lam, 0.0], [-lam, 0.0]]) if linear else None,
        )
        q0 = HybridState(np.array([10.0]), np.zeros(1), 0.0)
        settings = SimSettings(step=0.02, horizon_t=10.0, event_tol=1e-6, blowup_norm=1e150)
        cfg = TriggerConfig(mode="periodic", T=0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow RuntimeWarning either
            with pytest.raises(DivergenceError, match=r"guard 1e\+150") as info:
                simulate(sys, _permissive_cert(), cfg, q0, settings)
        seg = info.value.partial.segments[-1]
        norms = [math.hypot(x, e) for x, e in zip(seg.x[:, 0], seg.e[:, 0])]
        assert norms[-2] <= 1e150 < norms[-1] < math.inf
        assert norms[-1] > math.sqrt(np.finfo(float).max)  # so its square overflows

    @pytest.mark.parametrize(
        "x0, guard, error, message",
        [
            (1e160, 1e300, ConfigError, r"^blowup_norm must satisfy 0 < blowup_norm <= 1e150$"),
            (1e160, 1e150, DomainError, r"^initial state norm 1e\+160 exceeds blowup_norm 1e\+150"),
            (1e10, 1e9, DomainError, r"^initial state norm 1e\+10 exceeds blowup_norm 1e\+09"),
        ],
        ids=["guard-above-1e150", "q0-past-a-large-guard", "q0-past-the-default-guard"],
    )
    def test_state_past_the_size_rule_is_rejected_before_any_square(
        self, tabuada, x0, guard, error, message
    ):
        # blowup_norm is at most 1e150 and q0 at most blowup_norm, so no
        # certificate term squares a state above 1e150; a larger q0 used to
        # overflow the initial event excess, or to diverge after one step.
        sys, cert = tabuada
        q0 = HybridState(np.array([x0, 0.0]), np.zeros(2), 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=message):  # a guard above 1e150 fails here
                settings = SimSettings(step=1e-3, horizon_t=1.0, blowup_norm=guard)
                simulate(sys, cert, _sf_cfg(T=0.075), q0, settings)

    def test_gamma_whose_square_overflows_flows_and_bisects(self, tabuada):
        # gamma^2 = inf: the excess at e = 0 is -sigma (...) < 0, not inf * 0 = NaN,
        # so q0 flows; Q is not finite, so there is no screen and each jump is bisected.
        sys, cert = tabuada
        big = dataclasses.replace(cert, gamma=1e160)
        q0 = HybridState(np.array([1.0, -1.0]), np.zeros(2), 0.0)
        settings = SimSettings(step=1e-3, horizon_t=0.01, max_jumps=5, event_tol=1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = simulate(sys, big, _PE, q0, settings)
        assert (sol.terminated, sol.root_jumps, sol.bisection_jumps) == ("max-jumps", 0, 5)
        assert 0.0 < sol.jump_times[0] <= settings.event_tol

    @pytest.mark.parametrize("tau0", [float("nan"), float("inf")])
    def test_nonfinite_initial_clock_rejected(self, tau0):
        # Rejected at construction, so no simulator, flow or jump test sees it.
        with pytest.raises(ValueError, match="finite"):
            HybridState(np.array([1.0, 0.0]), np.zeros(2), tau0)

    def test_max_jumps_terminates(self, lorenz):
        sys, cert = lorenz
        q0 = HybridState(np.zeros(3), np.zeros(1), 0.0)
        settings = SimSettings(step=1e-3, horizon_t=10.0, max_jumps=3, event_tol=1e-6)
        sol = simulate(sys, cert, _of_cfg(0.01), q0, settings)
        assert sol.n_jumps == 3
        assert sol.terminated == "max-jumps"


# Stop reason, jump times and final x of seeded runs as float.hex.  The stop
# reasons and jump times were recorded from the earlier two-loop (dwell loop +
# monitor loop) simulator, and every engine since reproduces them bit for
# bit.  The final x of the six tabuada runs that flow a dwell were re-pinned
# when full dwell steps became blocks of propagator powers (TestDwellBlock
# bounds that move), and those of jump-set and tau0 when monitored steps
# did too (TestMonitoredBlock); the zeno and Lorenz runs keep their pins.
# The located jumps of bisected, horizon-in-dwell, jump-set, max-jumps and
# tau0, and so the final x of those runs, were re-pinned when a linear loop's
# jump moved from the end of a bisection bracket to the root of the excess
# polynomial: each located jump moved by 5.7e-8 to 7.5e-7 on top of the move
# of the jump before it, inside event_tol, and dwell-expiry jumps carry the
# move before them (TestExactLtiReference bounds the new jumps against the
# exact solution).
PINNED = {
    "dwell-expiry": (
        "horizon",
        ["0x1.3333333333333p-4", "0x1.3333333333333p-3"],
        ["-0x1.d0557a9652250p+0", "-0x1.571e21dad239dp+3"],
    ),
    "bisected": (
        "horizon",
        [
            "0x1.401a441653f0ap-4", "0x1.3fb3c2023992bp-3", "0x1.dd8f860954910p-3",
            "0x1.3c529578bce16p-2", "0x1.891f624589ae3p-2", "0x1.d5ec2f12567b0p-2",
        ],
        ["0x1.ee6f4cd530f36p+0", "-0x1.13fc8cad5aee7p+1"],
    ),
    "periodic": (
        "horizon",
        [
            "0x1.47ae147ae147bp-6", "0x1.47ae147ae147bp-5", "0x1.eb851eb851eb8p-5",
            "0x1.47ae147ae147bp-4",
        ],
        ["0x1.16faaa21677aap+0", "0x1.97e216db6a0bep-1"],
    ),
    "zeno": (
        "zeno",
        ["0x0.0p+0"],
        ["0x0.0p+0", "0x0.0p+0"],
    ),
    "jump-set": (
        "horizon",
        [
            "0x0.0p+0", "0x1.c65f2627e9426p-5", "0x1.ccaf83a051bbcp-4",
            "0x1.5eb769ec3e17bp-3", "0x1.db3429effec52p-3", "0x1.2e25763207a36p-2",
        ],
        ["0x1.874f4bbf9e57ap-4", "-0x1.cd18d8b9d51c6p-6"],
    ),
    "tau0": (
        "horizon",
        [
            "0x1.401a441653f0bp-4", "0x1.3fb3c2023992cp-3", "0x1.dd8f860954912p-3",
            "0x1.3c529578bce18p-2", "0x1.891f624589ae5p-2", "0x1.d5ec2f12567b2p-2",
        ],
        ["0x1.ee6f4cd530f2fp+0", "-0x1.13fc8cad5aee1p+1"],
    ),
    "horizon-in-dwell": (
        "horizon",
        [
            "0x1.401a441653f0ap-4", "0x1.3fb3c2023992bp-3", "0x1.dd8f860954910p-3",
            "0x1.3c529578bce16p-2", "0x1.891f624589ae3p-2", "0x1.d5ec2f12567b0p-2",
            "0x1.115c7def91a3ep-1", "0x1.37c2e455f80a4p-1", "0x1.5e294abc5e70ap-1",
            "0x1.848fb122c4d70p-1", "0x1.aaf617892b3d6p-1", "0x1.d15c7def91a3cp-1",
            "0x1.f7c2e455f80a2p-1",
        ],
        ["0x1.dde59c2975a2ep-1", "-0x1.c738783789b4bp+0"],
    ),
    "max-jumps": (
        "max-jumps",
        [
            "0x1.401a441653f0ap-4", "0x1.3fb3c2023992bp-3", "0x1.dd8f860954910p-3",
            "0x1.3c529578bce16p-2",
        ],
        ["0x1.2c678d6bad705p+1", "-0x1.16d1910cc10dcp+1"],
    ),
    "lorenz": (
        "horizon",
        [
            "0x1.47ae147ae147bp-7", "0x1.47ae147ae147bp-6", "0x1.eb851eb851eb8p-6",
            "0x1.47ae147ae147bp-5", "0x1.999999999999ap-5", "0x1.eb851eb851eb9p-5",
            "0x1.1eb851eb851ecp-4", "0x1.47ae147ae147bp-4", "0x1.70a3d70a3d70ap-4",
            "0x1.9f428f5c28f5cp-4", "0x1.dbae147ae147bp-4", "0x1.1b8189374bc6bp-3",
        ],
        ["0x1.5533ac125ee07p-3", "0x1.4f0a835163c82p-3", "-0x1.5fb7e4f1ef6bep-3"],
    ),
}


_PE = TriggerConfig(mode="pure-event", T=0.0, sigma=0.7)
_NO_CAP = SimSettings().max_jumps

# name: (loop fixture, trigger, x0, e0, tau0, horizon, max_jumps)
PINNED_RUNS = {
    "dwell-expiry": ("tabuada", _sf_cfg(), [0.1, 0.0], [50.0, 50.0], 0.0, 0.2, _NO_CAP),
    "bisected": ("tabuada", _sf_cfg(), [3.0, -2.0], [0.0, 0.0], 0.0, 0.5, _NO_CAP),
    "periodic": ("tabuada", TriggerConfig(mode="periodic", T=0.02), [1.0, 1.0], [0.0, 0.0], 0.0,
                 0.1, _NO_CAP),
    "zeno": ("tabuada", _PE, [0.0, 0.0], [0.0, 0.0], 0.0, 1.0, _NO_CAP),
    "jump-set": ("tabuada", _PE, [0.1, 0.0], [50.0, 50.0], 0.0, 0.3, _NO_CAP),
    "tau0": ("tabuada", _sf_cfg(), [3.0, -2.0], [0.0, 0.0], 0.03, 0.5, _NO_CAP),
    "horizon-in-dwell": ("tabuada", _sf_cfg(), [3.0, -2.0], [0.0, 0.0], 0.0, 0.9999, _NO_CAP),
    "max-jumps": ("tabuada", _sf_cfg(), [3.0, -2.0], [0.0, 0.0], 0.0, 10.0, 4),
    "lorenz": ("lorenz", _of_cfg(0.01), [0.1, 0.2, -0.3], [0.0], 0.0, 0.2, _NO_CAP),
}


class TestReproducibility:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_matches_pinned_run(self, name, request):
        loop, cfg, x0, e0, tau0, horizon, max_jumps = PINNED_RUNS[name]
        sys, cert = request.getfixturevalue(loop)
        q0 = HybridState(np.array(x0), np.array(e0), tau0)
        settings = SimSettings(step=1e-3, horizon_t=horizon, max_jumps=max_jumps, event_tol=1e-6)
        sol = simulate(sys, cert, cfg, q0, settings)
        terminated, jump_times, final_x = PINNED[name]
        assert sol.terminated == terminated
        assert [t.hex() for t in sol.jump_times] == jump_times
        assert [float(v).hex() for v in sol.final_state().x] == final_x

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_gap_rows_match_the_offset_rule(self, name, request):
        # Matching the positive gaps to the last len(gaps) jumps holds while
        # only a leading jump can be degenerate; gap_rows must agree with it.
        loop, cfg, x0, e0, tau0, horizon, max_jumps = PINNED_RUNS[name]
        sys, cert = request.getfixturevalue(loop)
        q0 = HybridState(np.array(x0), np.array(e0), tau0)
        settings = SimSettings(step=1e-3, horizon_t=horizon, max_jumps=max_jumps, event_tol=1e-6)
        sol = simulate(sys, cert, cfg, q0, settings)
        starts = [0.0] + sol.jump_times
        gaps = [b - a for a, b in zip(starts, starts[1:]) if b - a > 0.0]
        offset = len(sol.jump_times) - len(gaps)
        expected = [(i + 1 + offset, sol.jump_times[i + offset], g) for i, g in enumerate(gaps)]
        assert sol.gap_rows() == expected
        assert sol.inter_event_gaps == gaps


def _state_digest(sol):
    """SHA-256 over each segment's j, t, x, e, tau bytes, the stop reason and the jump times."""
    digest = hashlib.sha256()
    for seg in sol.segments:
        digest.update(str(seg.j).encode())
        for a in (seg.t, seg.x, seg.e, seg.tau):
            digest.update(f"{a.dtype}{a.shape}".encode())
            digest.update(a.tobytes())
    digest.update(sol.terminated.encode())
    digest.update(" ".join(t.hex() for t in sol.jump_times).encode())
    return digest.hexdigest()


def _raising_loops():
    """name: (loop, x0, x_last, step, n): f raises ArithmeticError in the step from x_last.

    A run from x0 records n states, x_last the last, before that step.
    "division": x' = -x / x, that is -1 until x = 0, from 1/64 on steps of
    1/1024: every stage is exact, and the last stage of the 16th step divides
    by 0.0.  "overflow": x' = x ** 2 from 1e75 on steps of 1e-3: the third
    stage of the first step squares 1.25e290.
    """
    division = ClosedLoopSystem(1, 1, f=lambda x, e: [-x[0] / x[0]], g=lambda x, e: [0.0])
    overflow = ClosedLoopSystem(1, 1, f=lambda x, e: [x[0] ** 2], g=lambda x, e: [0.0])
    return {
        "division": (division, 2.0**-6, 2.0**-10, 2.0**-10, 16),
        "overflow": (overflow, 1e75, 1e75, 1e-3, 1),
    }


def _diverging_loops():
    """name: (loop, certificate, trigger) for runs that pass a blow-up guard of 1e3.

    x' = 3x + e, e' = -x' jumps on the clock on the RK4 body and on its
    events (bisected) on the propagator before it diverges.
    """
    M = np.array([[3.0, 1.0], [-3.0, -1.0]])

    def loop(stacked_matrix):
        return ClosedLoopSystem(
            n_x=1, n_e=1,
            f=lambda x, e: M[:1].dot(np.concatenate((x, e))),
            g=lambda x, e: M[1:].dot(np.concatenate((x, e))),
            stacked_matrix=stacked_matrix,
        )

    return {
        "blow-up-closure": (loop(None), _permissive_cert(), TriggerConfig(mode="periodic", T=0.05)),
        "blow-up-linear": (
            loop(M), dataclasses.replace(_permissive_cert(), gamma=3.0), _of_cfg(T=0.01)
        ),
    }


# _state_digest of each PINNED_RUNS run and each _diverging_loops partial,
# recorded from the simulator that kept one recorder object per run; the
# seven runs whose dwell states flow as blocks were re-pinned with PINNED.
# jump-set, lorenz and blow-up-linear were re-pinned when every sample's t
# became t_j + tau: a monitored step's t had been t + h, one rounding off.
# jump-set and tau0 were re-pinned when monitored steps became blocks too, and
# the five runs with located jumps when those moved to the excess polynomial's root.
# blow-up-linear was re-pinned when blocks came to be taken only inside
# ``_dwell_reach``'s bound: its states near the guard step singly, and 132 of its
# 2,454 samples moved by rounding (at most 3.4e-16 relative), its jumps and stop
# unmoved (``BLOW_UP_LINEAR_JUMPS``).
STATE_DIGESTS = {
    "dwell-expiry": "2696d4d3d52d65abc7247775830e903bdf9610014f30527731a58e25cc6b3817",
    "bisected": "6e21ff28b36e101f2766cd97e12733d727469c82d6296f558886b9fdbb892639",
    "periodic": "abbf15924dd22c700635ca535335cbd324da8a5471849ac617d3a48c93768a38",
    "zeno": "4ea559136a82b2c353b172cb95de3ff67d81b7af73ac4fe8be171e2d8287595b",
    "jump-set": "b9f6b0b946041cdad7da248bdbf46ff47491b959878f0e8aeba5fc3882a6a0b1",
    "tau0": "863a277552c6387ae231fe5803f31757db075ecf90c6d702d733245e77b042b3",
    "horizon-in-dwell": "fdabb75cd23e0d73dfeae34a37ebec3d6e481a39eb7e21747be26b8792c7b5f3",
    "max-jumps": "135a79201528b62fbdddf36de476d12fbf8ff12b150ab48cf311a94f3f32b5d9",
    "lorenz": "d3b40331950b48352acf7360e71241c408e7bc010137f78a4b061ad5a2129ef0",
    "blow-up-closure": "800832b37df681e12ac938c7c52e23299929dbb277d179ae59b383d7a49b8770",
    "blow-up-linear": "5c5d74e8516a2244a8f271a5ed7928bbe4221b5e83115a1c4d5adbe557ad17b5",
}

# The blow-up-linear partial's jump times, recorded before that re-pin.
BLOW_UP_LINEAR_JUMPS = [
    "0x1.2696872b020c8p-3", "0x1.2696872b020c8p-2", "0x1.b9e1cac08312cp-2", "0x1.2696872b020c8p-1",
    "0x1.703c28f5c28fap-1", "0x1.b9e1cac08312cp-1", "0x1.01c3b645a1cafp+0", "0x1.2696872b020c8p+0",
    "0x1.4b695810624e1p+0", "0x1.703c28f5c28fap+0", "0x1.950ef9db22d13p+0", "0x1.b9e1cac08312cp+0",
    "0x1.deb49ba5e3545p+0", "0x1.01c3b645a1cafp+1", "0x1.142d1eb851ebcp+1", "0x1.2696872b020c8p+1",
]


# A tabuada start of norm 500 under a blow-up guard of 1e3.  Its first dwells start
# outside ``_dwell_reach``'s bound (reach |z| > 1e3, reach 2.41) and step singly; its
# 11 dwell blocks, after the state has decayed, start inside it.
NEAR_GUARD = (_sf_cfg(), [300.0, -400.0], 1.0, 1e3)  # (trigger, x0, horizon, blowup_norm)


def _recorded_run(name, request, record_states=True):
    """The solution of a PINNED_RUNS or NEAR_GUARD run, or the partial of a _diverging_loops run."""
    if name == "near-guard":
        cfg, x0, horizon, guard = NEAR_GUARD
        q0 = HybridState(np.array(x0), np.zeros(2), 0.0)
        settings = SimSettings(step=1e-3, horizon_t=horizon, event_tol=1e-6, blowup_norm=guard,
                               record_states=record_states)
        return simulate(*tabuada_loop(), cfg, q0, settings)
    if name in PINNED_RUNS:
        loop, cfg, x0, e0, tau0, horizon, max_jumps = PINNED_RUNS[name]
        sys, cert = request.getfixturevalue(loop)
        q0 = HybridState(np.array(x0), np.array(e0), tau0)
        settings = SimSettings(step=1e-3, horizon_t=horizon, max_jumps=max_jumps, event_tol=1e-6,
                               record_states=record_states)
        return simulate(sys, cert, cfg, q0, settings)
    sys, cert, cfg = _diverging_loops()[name]
    q0 = HybridState(np.array([1.0]), np.zeros(1), 0.0)
    settings = SimSettings(step=1e-3, horizon_t=20.0, event_tol=1e-6, blowup_norm=1e3,
                           record_states=record_states)
    with pytest.raises(DivergenceError) as info:
        simulate(sys, cert, cfg, q0, settings)
    return info.value.partial


class TestRecordedStates:
    @pytest.mark.parametrize("name", sorted(STATE_DIGESTS))
    def test_matches_pinned_digest(self, name, request):
        assert _state_digest(_recorded_run(name, request)) == STATE_DIGESTS[name]

    def test_blow_up_linear_keeps_its_jumps(self):
        partial = _recorded_run("blow-up-linear", None)
        assert (partial.terminated, len(partial.segments)) == ("blow-up", 17)
        assert [t.hex() for t in partial.jump_times] == BLOW_UP_LINEAR_JUMPS

    @pytest.mark.parametrize("name", sorted(STATE_DIGESTS))
    def test_segments_meet_at_the_jumps(self, name, request):
        sol = _recorded_run(name, request)
        assert [seg.j for seg in sol.segments] == list(range(sol.n_jumps + 1))
        for j, t_j in enumerate(sol.jump_times):
            before, after = sol.segments[j], sol.segments[j + 1]
            assert before.t[-1] == t_j == after.t[0]
            assert not after.e[0].any() and after.tau[0] == 0.0
            assert after.x[0].tobytes() == before.x[-1].tobytes()

    @pytest.mark.parametrize("name", [*sorted(STATE_DIGESTS), "near-guard"])
    def test_recording_off_keeps_the_event_log(self, name, request):
        on = _recorded_run(name, request)
        off = _recorded_run(name, request, record_states=False)
        assert off.segments == []
        assert (off.terminated, off.jump_times) == (on.terminated, on.jump_times)


def _batches(sys, cert):
    """Recorded runs of a pure-event and a state-feedback batch on the planar loop."""
    rng = np.random.default_rng(11)
    settings = SimSettings(step=1e-3, horizon_t=0.4, event_tol=1e-6)
    return [
        simulate(sys, cert, cfg, HybridState(rng.uniform(-3.0, 3.0, 2), np.zeros(2), 0.0), settings)
        for cfg in (_PE, _sf_cfg())
        for _ in range(3)
    ]


def _assert_same_runs(sols, ref):
    assert len(sols) == len(ref)
    for sol, r in zip(sols, ref):
        assert sol.terminated == r.terminated
        assert [t.hex() for t in sol.jump_times] == [t.hex() for t in r.jump_times]
        assert len(sol.segments) == len(r.segments)
        for seg, rseg in zip(sol.segments, r.segments):
            for name in ("t", "x", "e", "tau"):
                assert getattr(seg, name).tobytes() == getattr(rseg, name).tobytes()


def _power_stack(M, h, k):
    """P^1, ..., P^k for the RK4 propagator P of step h, stacked as (k n, n) rows."""
    P = _rk4_propagator(M, h)
    powers = [P]
    for _ in range(k - 1):
        powers.append(P.dot(powers[-1]))
    return np.concatenate(powers)


def _clear_flow_caches():
    hybrid._propagator.cache_clear()
    hybrid._dwell_powers.cache_clear()


def _recording_builds(run):
    """run()'s result and the step lengths of the propagators it built, in order."""
    with mock.patch.object(hybrid, "_rk4_propagator", wraps=_rk4_propagator) as build:
        result = run()
    return result, [c.args[1] for c in build.call_args_list]


_STACKS = _PROPAGATORS // _DWELL_BLOCK  # power stacks kept


class TestPropagatorCache:
    # The caches are keyed by the stacked matrix, so every tabuada loop
    # shares them; the tests that count entries start them cold.

    def test_warm_and_cold_caches_give_identical_runs(self):
        _clear_flow_caches()
        sys, cert = tabuada_loop()
        first, built = _recording_builds(lambda: _batches(sys, cert))
        assert len(built) > 1  # the bisections and dwell landings filled it
        assert hybrid._dwell_powers.cache_info().currsize == 1  # one step length
        misses = hybrid._propagator.cache_info().misses
        _assert_same_runs(_batches(sys, cert), first)  # warm
        assert hybrid._propagator.cache_info().misses == misses  # nothing built again
        _clear_flow_caches()
        cold, rebuilt = _recording_builds(lambda: _batches(*tabuada_loop()))
        _assert_same_runs(cold, first)
        assert rebuilt == built
        key, M = sys.stacked_matrix.tobytes(), sys.stacked_matrix
        hits = hybrid._propagator.cache_info().hits
        for h in built:
            P = hybrid._propagator(key, 4, h)
            assert not P.flags.writeable
            assert P.tobytes() == _rk4_propagator(M, h).tobytes()
        assert hybrid._propagator.cache_info().hits == hits + len(built)  # the cold runs cached them
        hits = hybrid._dwell_powers.cache_info().hits
        powers = hybrid._dwell_powers(key, 4, 1e-3)
        assert hybrid._dwell_powers.cache_info().hits == hits + 1
        assert not powers.flags.writeable
        assert powers.tobytes() == _power_stack(M, 1e-3, _DWELL_BLOCK).tobytes()
        # The stack starts from the cached full-step propagator, not a second one.
        assert powers[:4].tobytes() == hybrid._propagator(key, 4, 1e-3).tobytes()

    def test_replace_copy_shares_the_caches_and_gives_identical_runs(self):
        sys, cert = tabuada_loop()
        first = _batches(sys, cert)
        built = hybrid._propagator.cache_info().misses, hybrid._dwell_powers.cache_info().misses
        copy = dataclasses.replace(sys, name="copy")
        _assert_same_runs(_batches(copy, cert), first)
        # No propagator and no power stack was built again.
        assert (hybrid._propagator.cache_info().misses,
                hybrid._dwell_powers.cache_info().misses) == built

    def test_power_stacks_stay_bounded(self):
        # Each run's step length gets one stack of _DWELL_BLOCK powers; a
        # dwell of T / step = 200 steps takes two blocks from it.
        assert _DWELL_BLOCK <= 128 and _STACKS <= 32
        assert hybrid._dwell_powers.cache_info().maxsize == _STACKS
        _clear_flow_caches()
        sys, cert = tabuada_loop()
        key = sys.stacked_matrix.tobytes()
        cfg = TriggerConfig(mode="periodic", T=0.075)
        q0 = HybridState(np.array([1.0, -1.0]), np.zeros(2), 0.0)
        n = _STACKS + 5
        for k in range(n):
            step = 3.75e-4 * (1.0 - k * 1e-6)
            simulate(sys, cert, cfg, q0, SimSettings(step=step, horizon_t=0.1, event_tol=1e-6))
            info = hybrid._dwell_powers.cache_info()
            assert info.currsize <= _STACKS
            assert hybrid._dwell_powers(key, 4, step).shape == (_DWELL_BLOCK * 4, 4)
            assert hybrid._dwell_powers.cache_info().hits == info.hits + 1  # the run cached it
        info = hybrid._dwell_powers.cache_info()
        assert info.misses == n and info.currsize == _STACKS  # the oldest were dropped

    def test_propagators_stay_bounded_and_exact(self):
        assert _PROPAGATORS <= 4096
        assert hybrid._propagator.cache_info().maxsize == _PROPAGATORS
        _clear_flow_caches()
        sys, _ = tabuada_loop()
        M = sys.stacked_matrix
        z = np.array([0.3, -1.2, 0.5, 0.7])
        q = HybridState(z[:2], z[2:], 0.0)
        n = _PROPAGATORS + 500
        for k in range(n):
            h = 1e-3 + k * 1e-9
            qn = flow_step(sys, q, h)
            info = hybrid._propagator.cache_info()
            assert info.misses == k + 1 and info.currsize <= _PROPAGATORS
            expected = _rk4_propagator(M, h).dot(z)
            assert np.concatenate((qn.x, qn.e)).tobytes() == expected.tobytes()
        assert info.currsize == _PROPAGATORS  # the oldest were dropped

    def test_bounds_hold_across_many_matrices(self):
        # Propagators and stacks of all matrices share the two bounds.
        _clear_flow_caches()
        q = HybridState(np.array([1.0]), np.zeros(1), 0.0)
        # 8 steps of 2^-12 land on the horizon exactly: one block, no shorter last step.
        cfg = TriggerConfig(mode="periodic", T=0.2)
        settings = SimSettings(step=2.0**-12, horizon_t=2.0**-9, event_tol=1e-6)
        loops = [
            ClosedLoopSystem(1, 1, None, None, stacked_matrix=[[-1.0 - k, 0.0], [1.0 + k, 0.0]])
            for k in range(_PROPAGATORS + 3)
        ]
        for k, sys in enumerate(loops[: _STACKS + 3]):
            simulate(sys, _permissive_cert(), cfg, q, settings)  # one propagator, one stack
            assert hybrid._dwell_powers.cache_info().currsize == min(k + 1, _STACKS)
        for sys in loops[_STACKS + 3 :]:
            flow_step(sys, q, 2.0**-12)
        info = hybrid._propagator.cache_info()
        assert info.misses == len(loops) and info.currsize == _PROPAGATORS


# Re-stepped from its first sample, a segment's recorded states stay within
# these bounds, relative to max(1, |z|), of the step path: rounding of P^j z
# against j products P(...(P z)), which grows with j.  A dwell's states stay
# within 32 ulps (seen: at most 12 on 120 tabuada runs and 8.5 to 10.6 on 340
# random LQR loops).  After the dwell the k-th state of a segment stays within
# 32 + k/2 ulps (seen: at most 20.2 on 120 tabuada runs of 10 s and on 60
# random LQR loops; 43.9 at k near 100 on the property test's pinned loop).
_DWELL_RTOL = 32 * np.finfo(float).eps
_MONITOR_RTOL_PER_STEP = np.finfo(float).eps / 2
# A jump placed at the root of the excess polynomial is exact for the RK4 flow
# up to rounding: the root's bracket (1e-13 of the step) and the rounding of
# the state before it.  A state off by r relative to |z| moves the excess
# z^T Q z by up to about 2 r |Q|_inf |z|^2, so the root by that over the
# excess's rate.  On fixed loops root-placed jumps are bounded by _ROOT_TOL
# alone; elsewhere by ``_root_bound``, which adds that move for the block
# bound of the located sample (seen: at most 0.39 of it against the exact
# solution on 300 random LQR draws).
_ROOT_TOL = 1e-13


def _root_bound(sys, cert, cfg, z, k):
    """_ROOT_TOL plus the root's move for a jump state z off by the k-th sample's block bound."""
    Q, M = trigger.event_form(cert, cfg), sys.stacked_matrix
    rate = abs(z.dot(M.T.dot(Q) + Q.dot(M)).dot(z))  # d/dt z^T Q z along z' = M z
    off = (_DWELL_RTOL + k * _MONITOR_RTOL_PER_STEP) * max(1.0, math.sqrt(z.dot(z)))
    move = 2.0 * np.abs(Q).sum(axis=1).max() * math.sqrt(z.dot(z)) * off
    return _ROOT_TOL + (move / rate if rate else math.inf)


def _block_deviation(sys, cert, cfg, sol, settings, tau0=0.0):
    """Largest ratio of a recorded state's or located jump's move under re-stepping to its bound.

    Each segment is re-stepped from its first sample with
    ``_rk4_propagator(M, h).dot`` over the step lengths of ``simulate``'s
    single-step schedule, in the dwell and after it, whose t and tau the
    samples must carry bit for bit.  State deviations are relative to
    max(1, |z|) of the re-stepped state; the bounds are ``_DWELL_RTOL`` in
    the dwell and ``_DWELL_RTOL + k * _MONITOR_RTOL_PER_STEP`` for the
    segment's k-th sample after it.  Only a segment's last sample, a located
    jump, may be off the schedule: its tau must lie within ``_root_bound`` of
    the root that the re-stepped state gives its step (plus event_tol if the
    run bisected), so blocks move a jump only through the rounding of the
    state before it.
    """
    M, step, horizon, T = sys.stacked_matrix, settings.step, settings.horizon_t, cfg.T
    screen, n = trigger.event_screen(cert, cfg), M.shape[0]
    propagators = {}
    worst = 0.0
    for seg in sol.segments:
        base = -tau0 if seg.j == 0 else seg.t[0]
        z, tau = np.concatenate((seg.x[0], seg.e[0])), seg.tau[0]
        for k in range(1, seg.t.size):
            dwell = tau < T
            h = min(step, T - tau if dwell else step, horizon - (base + tau))
            tau_before, tau = tau, T if dwell and h == T - tau else tau + h
            if (seg.t[k], seg.tau[k]) != (base + tau, tau):
                assert not dwell and k == seg.t.size - 1 and screen is not None
                V = hybrid._taylor_stack(M.tobytes(), n)[0].dot(z).reshape(-1, n)
                root = hybrid._excess_root(screen.coefficients(V), h)
                if root is not None:  # None: form and closure disagree within rounding
                    bound = _root_bound(sys, cert, cfg, np.concatenate((seg.x[k], seg.e[k])), k)
                    bound += settings.event_tol if sol.bisection_jumps else 0.0
                    worst = max(worst, abs(seg.tau[k] - (tau_before + root)) / bound)
                break
            if h not in propagators:
                propagators[h] = _rk4_propagator(M, h)
            z = propagators[h].dot(z)
            z_k = np.concatenate((seg.x[k], seg.e[k]))
            dev = np.linalg.norm(z_k - z) / max(1.0, np.linalg.norm(z))
            bound = _DWELL_RTOL + (0 if dwell else k * _MONITOR_RTOL_PER_STEP)
            worst = max(worst, dev / bound)
    return worst


def _step_path(sys, cert, cfg, q0, settings):
    """``simulate`` with every step taken singly, in the dwell and after it."""
    with mock.patch.object(hybrid, "_dwell_powers", lambda M_bytes, n, step: None):
        return simulate(sys, cert, cfg, q0, settings)


def _block_products(run):
    """run()'s result and, per block it took, (powers in its product, reach |z| at its start).

    Each block is one product with rows of ``_dwell_powers``' stack.
    """
    real, products, keys = hybrid._dwell_powers, [], []

    class Counted(np.ndarray):
        def dot(self, z):
            start = hybrid._dwell_reach(*keys[-1]) * math.hypot(*z.tolist())
            products.append((len(self) // z.size, start))
            return self.view(np.ndarray).dot(z)

    def counted(*key):
        keys.append(key)
        return real(*key).view(Counted)

    with mock.patch.object(hybrid, "_dwell_powers", counted):
        return run(), products


def _assert_blocks_within_bound(sys, cert, cfg, q0, settings):
    """The run makes the step path's decisions, and its states and jumps keep the block bounds.

    The decisions are the stop reason, the jumps, the step in which each jump
    falls and the clock of every sample but a located jump's.  Jump times are
    not compared bit for bit: each located jump moves with the rounding of the
    state before it (bounded per segment by ``_block_deviation``), and the
    moves compound through the jumps: by at most 11 ulps of t on 40 planar
    runs of 10 s (3,444 of 6,055 jumps moved), by up to 5,891 ulps of
    max(1, t) on 107 random LQR designs over 1 s, where crossings are shallow.
    """
    sol = simulate(sys, cert, cfg, q0, settings)
    ref = _step_path(sys, cert, cfg, q0, settings)
    assert (sol.terminated, sol.n_jumps) == (ref.terminated, ref.n_jumps)
    assert (sol.root_jumps, sol.bisection_jumps) == (ref.root_jumps, ref.bisection_jumps)
    assert len(sol.segments) == len(ref.segments)
    for seg, rseg in zip(sol.segments, ref.segments):
        assert seg.tau.size == rseg.tau.size
        assert seg.tau[:-1].tobytes() == rseg.tau[:-1].tobytes()
    assert _block_deviation(sys, cert, cfg, sol, settings, q0.tau) <= 1.0
    return sol


def _assert_jump_times_within_ulps(sol, ref, ulps):
    """Each jump time of sol within ulps units in the last place of max(1, t) of ref's."""
    assert len(sol.jump_times) == len(ref.jump_times)
    for t, r in zip(sol.jump_times, ref.jump_times):
        assert abs(t - r) <= ulps * math.ulp(max(1.0, abs(r)))


# Whole planar runs keep their step path's jump times to this many ulps of
# max(1, t) (seen: at most 9 on 40 runs of 10 s, pure-event and state-feedback).
_PLANAR_JUMP_ULPS = 16


# name: (trigger, x0, e0, tau0, horizon, step) on the planar loop
BLOCK_RUNS = {
    "state-feedback": (_sf_cfg(), [3.0, -2.0], [0.0, 0.0], 0.0, 0.5, 1e-3),
    "dwell-expiry": (_sf_cfg(), [0.1, 0.0], [50.0, 50.0], 0.0, 0.2, 1e-3),
    "periodic": (TriggerConfig(mode="periodic", T=0.02), [1.0, 1.0], [0.0, 0.0], 0.0, 0.1, 1e-3),
    "output-feedback": (_of_cfg(T=0.05), [3.0, -2.0], [0.5, -0.5], 0.0, 1.0, 1e-3),
    "tau0": (_sf_cfg(), [3.0, -2.0], [0.0, 0.0], 0.03, 0.5, 1e-3),
    "horizon-in-dwell": (_sf_cfg(), [3.0, -2.0], [0.0, 0.0], 0.0, 0.9999, 1e-3),
    # 149 full steps per dwell: a block of _DWELL_BLOCK, then one of 21.
    "two-blocks": (_sf_cfg(), [3.0, -2.0], [0.0, 0.0], 0.0, 0.5, 5e-4),
    # No dwell: monitored blocks of up to _DWELL_BLOCK steps between the jumps.
    "pure-event": (_PE, [3.0, -2.0], [0.0, 0.0], 0.0, 1.0, 1e-3),
}


class TestDwellBlock:
    @pytest.mark.parametrize("name", sorted(BLOCK_RUNS))
    def test_dwell_states_within_bound_of_the_step_path(self, name):
        cfg, x0, e0, tau0, horizon, step = BLOCK_RUNS[name]
        sys, cert = tabuada_loop()
        q0 = HybridState(np.array(x0), np.array(e0), tau0)
        settings = SimSettings(step=step, horizon_t=horizon, event_tol=1e-6)
        before = hybrid._dwell_powers.cache_info()
        sol = _assert_blocks_within_bound(sys, cert, cfg, q0, settings)
        after = hybrid._dwell_powers.cache_info()
        assert sol.n_jumps >= 2
        ref = _step_path(sys, cert, cfg, q0, settings)
        _assert_jump_times_within_ulps(sol, ref, _PLANAR_JUMP_ULPS)
        # The dwells flowed as blocks.
        assert after.hits + after.misses > before.hits + before.misses

    def test_overflow_inside_a_block_ends_as_the_step_path(self):
        # x' = 2e4 x grows 8,221-fold per RK4 step: the 128th power of the
        # propagator overflows, so reach is not finite, no block is taken,
        # and the run steps singly from the dwell's start until the guard
        # trips two steps later.
        lam = 2e4
        sys = ClosedLoopSystem(
            n_x=1, n_e=1, f=lambda x, e: lam * x, g=lambda x, e: -lam * x,
            stacked_matrix=np.array([[lam, 0.0], [-lam, 0.0]]),
        )
        cfg = TriggerConfig(mode="periodic", T=0.2)
        q0 = HybridState(np.array([1.0]), np.zeros(1), 0.0)
        settings = SimSettings(step=1e-3, horizon_t=1.0, event_tol=1e-6, blowup_norm=1e6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow RuntimeWarning either
            with pytest.raises(DivergenceError) as info:
                simulate(sys, _permissive_cert(), cfg, q0, settings)
            with pytest.raises(DivergenceError) as ref:
                _step_path(sys, _permissive_cert(), cfg, q0, settings)
        with np.errstate(over="ignore", invalid="ignore"):
            stack = hybrid._dwell_powers(sys.stacked_matrix.tobytes(), 2, 1e-3)
        assert not np.isfinite(stack).all()
        partial = info.value.partial
        assert partial.terminated == "blow-up" and partial.segments[0].t.size == 3
        assert _state_digest(partial) == _state_digest(ref.value.partial)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_one_row_product_is_the_blocks_last_row(self, n):
        # An unrecorded dwell block inside the bound takes only P^m z, which
        # must be the row that the full product would have given.
        rng = np.random.default_rng(n)
        M = rng.standard_normal((n, n))
        stack = hybrid._dwell_powers(M.tobytes(), n, 1e-3)
        z = 100.0 * rng.standard_normal(n)
        for m in range(1, _DWELL_BLOCK + 1):
            block = stack[: m * n].dot(z).reshape(m, n)
            assert stack[(m - 1) * n : m * n].dot(z).tobytes() == block[-1].tobytes()

    @pytest.mark.parametrize("name", ["tabuada", "lqr3", "lqr2"])
    def test_reach_bounds_every_power(self, name):
        sys, _, _, _ = _exact_reference_case(name, "state-feedback")
        M, n = sys.stacked_matrix, sys.stacked_matrix.shape[0]
        stack = hybrid._dwell_powers(M.tobytes(), n, 1e-3)
        norms = [np.linalg.norm(stack[j * n : (j + 1) * n]) for j in range(_DWELL_BLOCK)]
        reach = hybrid._dwell_reach(M.tobytes(), n, 1e-3)
        assert max(norms) < reach <= (1.0 + 1e-12) * max(norms)

    @pytest.mark.parametrize(
        "M", [[[2e4, 0.0], [-2e4, 0.0]], [[1e4, 1e4], [1e4, -1e4]]], ids=["nan", "inf"]
    )
    def test_reach_is_not_finite_for_an_overflowing_stack(self, M):
        key = np.array(M).tobytes()
        hybrid._dwell_reach.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow RuntimeWarning either
            reach = hybrid._dwell_reach(key, 2, 1e-3)
        assert not math.isfinite(reach)  # reach |z| <= guard fails, for z = 0 too

    def test_unrecorded_dwell_blocks_inside_the_bound_take_one_product(self):
        # All 11 dwell blocks of the near-guard run start inside the bound: recorded,
        # each takes the full product; unrecorded, P^m z alone.
        (on, full), (off, taken) = (
            _block_products(lambda: _recorded_run("near-guard", None, record))
            for record in (True, False)
        )
        assert len(full) == 11 and min(rows for rows, _ in full) > 1
        assert [rows for rows, _ in taken] == [1] * 11
        assert max(start for _, start in full + taken) <= NEAR_GUARD[3]
        assert (off.terminated, off.jump_times) == (on.terminated, on.jump_times)

    @pytest.mark.parametrize("case", ["recorded", "unrecorded", "pure-event"])
    def test_no_block_starts_outside_the_bound(self, case):
        # From |z| = 500 under a guard of 1e3, reach |z| passes the guard (reach 2.41):
        # those states step singly, and blocks start once the state has decayed.
        cfg, x0, horizon, guard = NEAR_GUARD
        if case == "pure-event":
            q0 = HybridState(np.array(x0), np.zeros(2), 0.0)
            settings = SimSettings(step=1e-3, horizon_t=horizon, event_tol=1e-6, blowup_norm=guard)
            sol, products = _block_products(lambda: simulate(*tabuada_loop(), _PE, q0, settings))
        else:
            sol, products = _block_products(
                lambda: _recorded_run("near-guard", None, case == "recorded"))
        assert sol.n_jumps >= 10 and len(products) >= 10
        assert [start for _, start in products if not start <= guard] == []

    @pytest.mark.parametrize("reach", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("cfg", [_PE, _sf_cfg()], ids=["pure-event", "state-feedback"])
    def test_reach_that_is_not_finite_gives_the_step_path(self, cfg, reach):
        # A stack whose powers overflow has a reach of inf or NaN: no state is then
        # inside the bound, and every step is taken singly, bit for bit the step path.
        sys, cert = tabuada_loop()
        for q0, settings in TestMonitoredBlock._seeded_runs():
            with mock.patch.object(hybrid, "_dwell_reach", lambda *key: reach):
                sol = simulate(sys, cert, cfg, q0, settings)
            _assert_same_runs([sol], [_step_path(sys, cert, cfg, q0, settings)])


class TestStackedMatrix:
    def test_loop_holds_no_simulator_state(self):
        fields = [f.name for f in dataclasses.fields(ClosedLoopSystem)]
        # ``columns`` declares how f and g may be called; it holds no state.
        assert fields == ["n_x", "n_e", "f", "g", "stacked_matrix", "name", "columns"]

    def test_wrong_shape_rejected_at_construction(self, tabuada):
        sys, _ = tabuada
        with pytest.raises(DimensionError, match=r"\(3, 3\).*\(4, 4\)"):
            ClosedLoopSystem(2, 2, sys.f, sys.g, stacked_matrix=np.eye(3))

    def test_is_read_only(self):
        sys, _ = tabuada_loop()
        with pytest.raises(ValueError, match="read-only"):
            sys.stacked_matrix[0, 0] = 1.0

    def test_editing_the_callers_array_leaves_runs_unchanged(self):
        ref, cert = tabuada_loop()
        M = np.array(ref.stacked_matrix)
        sys = ClosedLoopSystem(2, 2, ref.f, ref.g, stacked_matrix=M)
        before = _batches(sys, cert)
        M[:] = 0.0
        _assert_same_runs(_batches(sys, cert), before)
        _assert_same_runs(_batches(dataclasses.replace(sys), cert), before)


class TestRMonitor:
    @pytest.mark.parametrize("loop, cfg", [("tabuada", _sf_cfg()), ("lorenz", _of_cfg())])
    def test_triples_match_the_per_sample_formula(self, loop, cfg, request):
        # Reference: each sample's numpy scalars t and tau converted one at a time.
        sys, cert = request.getfixturevalue(loop)
        q0 = HybridState(np.full(sys.n_x, 2.0), np.zeros(sys.n_e), 0.0)
        sol = simulate(sys, cert, cfg, q0, SETTINGS)
        zp = ZetaParams(theta=0.01, eta=0.01)
        lam, zeta = zp.lam(cert.gamma), trigger.zeta_solution(cert.gamma, cert.L, zp)
        expected = []
        for seg in sol.segments:
            for t, x, e, tau in zip(seg.t, seg.x, seg.e, seg.tau):
                w = cert.W(e)
                expected.append((float(t), seg.j, cert.V(x) + lam * zeta(float(tau)) * w * w))
        samples = r_monitor(sol, cert, zp)
        assert samples == expected
        assert [tuple(map(type, s)) for s in samples] == [tuple(map(type, s)) for s in expected]

    def test_gamma_whose_square_overflows(self, tabuada):
        # lam = sqrt(gamma^2 + eta) overflowed to inf past gamma = 1.34e154, and
        # zeta(0) with it to 0.0, so R read inf * 0 = NaN.
        _, cert = tabuada
        cert = dataclasses.replace(cert, gamma=1e160)
        x, e = np.array([1.0, 0.0]), np.array([1.0, 0.0])
        seg = Segment(j=0, t=np.zeros(1), x=x[None], e=e[None], tau=np.zeros(1))
        [(t, j, r)] = r_monitor(HybridSolution([seg], []), cert, ZetaParams(0.5, 1.0))
        assert (t, j) == (0.0, 0)
        assert r == pytest.approx(cert.V(x) + 2e160 * cert.W(e) ** 2, rel=1e-15)

    def test_r_equals_v_right_after_jumps(self, tabuada):
        sys, cert = tabuada
        q0 = HybridState(np.array([5.0, -1.0]), np.zeros(2), 0.0)
        sol = simulate(sys, cert, _sf_cfg(), q0, SETTINGS)
        zp = ZetaParams(theta=0.01, eta=0.01)
        samples = r_monitor(sol, cert, zp)
        by_time = {(t, j): r for t, j, r in samples}
        for seg in sol.segments[1:]:
            if seg.t.size:
                r0 = by_time[(float(seg.t[0]), seg.j)]
                assert r0 == pytest.approx(cert.V(seg.x[0]), rel=1e-12)

    def test_nonincreasing_at_jumps(self, tabuada, rng):
        sys, cert = tabuada
        q0 = HybridState(rng.standard_normal(2) * 20, rng.standard_normal(2) * 5, 0.0)
        sol = simulate(sys, cert, _sf_cfg(), q0, SETTINGS)
        zp = ZetaParams(theta=0.01, eta=0.01)
        samples = r_monitor(sol, cert, zp)
        for i in range(1, len(samples)):
            t_prev, j_prev, r_prev = samples[i - 1]
            t_cur, j_cur, r_cur = samples[i]
            if j_cur == j_prev + 1:
                assert r_cur <= r_prev + 1e-9 * max(1.0, r_prev)

    def test_nonincreasing_along_valid_certificate_run(self, tabuada, rng):
        # The planar certificate genuinely satisfies the decay inequalities,
        # so the envelope must not increase (theta, eta chosen so the dwell
        # time stays below the zeta transit time).
        sys, cert = tabuada
        zp = ZetaParams(theta=0.01, eta=0.01)
        assert zeta_time(cert.gamma, cert.L, zp) > 0.075
        for _ in range(3):
            q0 = HybridState(rng.standard_normal(2) * 30, rng.standard_normal(2) * 10, 0.0)
            sol = simulate(
                sys, cert, _sf_cfg(), q0, SimSettings(step=1e-3, horizon_t=3.0, event_tol=1e-6)
            )
            r = np.array([v[2] for v in r_monitor(sol, cert, zp)])
            assert r.size > 100
            assert np.diff(r).max() <= 1e-6 * r[0]


# Entries on a 0.05 grid in [-2, 2]: an entry of B is 0 or at least 0.05 in size.
_ENTRY = st.integers(-40, 40).map(lambda k: k / 20)


def _lqr_gain(A, B):
    """B^T X for the stabilizing solution X of the Riccati equation with unit weights."""
    return B.T @ scipy.linalg.solve_continuous_are(A, B, np.eye(A.shape[0]), np.eye(1))


@st.composite
def _lqr_loops(draw):
    """(A, B, K, x0): a 2- or 3-state plant, its LQR gain and an initial state."""
    n = draw(st.integers(2, 3))
    A = draw(arrays(np.float64, (n, n), elements=_ENTRY))
    B = draw(arrays(np.float64, (n, 1), elements=_ENTRY))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            K = _lqr_gain(A, B)
        except (np.linalg.LinAlgError, ValueError, Warning):
            K = None  # (A, B) is not stabilizable, or the Riccati solve failed
    assume(K is not None and np.any(K))  # K = 0 leaves no loop to close
    x0 = draw(arrays(np.float64, n, elements=st.floats(-1.0, 1.0)))
    return A, B, K, x0


@settings(max_examples=8, deadline=None)
@given(loop=_lqr_loops())
# gamma = 385 and T = 2e-3: a fixed event_tol of 1e-6 leaves jump states
# whose excess is 7e-4 of its terms, outside the 1e-4 slack.
@example(
    loop=(
        np.array([[0.0, 0.0], [0.0, 0.4]]),
        np.array([[-1.55], [0.25]]),
        np.array([[1.0, 15.6638413]]),
        np.array([1.0, 1.0]),
    )
)
# |x0| near 6e-162 puts R near 4.9e-322, where one rounding step (5e-324)
# exceeds the relative slack 1e-6 R, which underflows to 0.
@example(
    loop=(
        np.array([[0.0, 0.0], [0.0, 0.05]]),
        np.array([[0.05], [0.05]]),
        _lqr_gain(np.array([[0.0, 0.0], [0.0, 0.05]]), np.array([[0.05], [0.05]])),
        np.array([4.52e-162, 4.52e-162]),
    )
)
def test_random_lqr_loop_keeps_the_dwell_time_and_the_hybrid_sets(loop):
    """Gaps of at least T, states in C u D, reproducible jump times, nonincreasing R,
    blocks that keep the step path's decisions and bounds, and exact root-placed jumps.

    Each loop is designed with eps1 = 1e-2 and with eps1 = 1, where more of the
    output-feedback jumps are located after the dwell; a pure-event run on the
    same loop is monitored throughout, in blocks.  C and D are the flow and
    jump sets of the hybrid solution concept of Goebel, Sanfelice and Teel (2012).
    The pure-event runs and the eps1 = 1 output-feedback, state-feedback
    (sigma = 0.7, same T) and periodic runs are also compared with the exact
    solution (``_assert_jumps_exact``), cut to 8 jumps.
    """
    A, B, K, x0 = loop
    n = A.shape[0]
    clm = assemble(LtiPlant(A=A, B=B, C=np.eye(n)), LtiController(D=-K))
    sys = lti_loop_from_matrices(clm)
    q0 = HybridState(x0, np.zeros(n), 0.0)
    designs = 0
    for eps1 in (1e-2, 1.0):
        try:
            cand = design_certificate(clm, eps1=eps1)
            cert = extract_assumption(clm, cand)
        except DesignInfeasibleError:
            continue
        T = masp(cert.gamma, cert.L) / 2
        # Nearly uncontrollable draws give T down to 1e-10 and so billions of
        # steps over the horizon; 1e-3 caps a run at 20,000 steps.
        if T < 1e-3:
            continue
        designs += 1
        # A located event's excess is off by about 2 event_tol / tau relative to
        # its terms, so event_tol scales with T like the step does.
        sim = SimSettings(step=T / 20, horizon_t=1.0, event_tol=T * 1e-6)
        cfg = TriggerConfig(mode="output-feedback", T=T)
        sol = _assert_blocks_within_bound(sys, cert, cfg, q0, sim)
        assert all(gap >= T - sim.event_tol for gap in sol.inter_event_gaps)
        _assert_in_flow_or_jump_set(sol, cert, cfg)
        assert simulate(sys, cert, cfg, q0, sim).jump_times == sol.jump_times
        # The R envelope does not increase (same tolerance as the planar test,
        # floored at a few subnormal spacings, which matters only for R below about 2e-317).
        zp = ZetaParams(theta=1e-4, eta=1e-6)
        assert T < zeta_time(cert.gamma, cert.L, zp)
        r = np.array([v[2] for v in r_monitor(sol, cert, zp)])
        assert np.diff(r).max() <= max(1e-6 * r[0], 4 * math.ulp(0.0))
        _assert_in_flow_or_jump_set(_assert_blocks_within_bound(sys, cert, _PE, q0, sim), cert, _PE)
        sf = TriggerConfig(mode="state-feedback", T=T, sigma=0.7)
        periodic = TriggerConfig(mode="periodic", T=T)
        for mode_cfg in (_PE, cfg, sf, periodic) if eps1 == 1.0 else (_PE,):
            _assert_jumps_exact(clm, cand, sys, cert, mode_cfg, q0, T)
    assume(designs)


def _assert_jumps_exact(clm, cand, sys, cert, cfg, q0, T):
    """Every jump of a run cut to 8 jumps near the exact one: a root-placed jump
    within ``_root_bound``, a jump at dwell expiry within event_tol (as
    ``TestExactLtiReference`` bounds it).

    ``LtiHybridOracle`` restarts from each segment's start.  The step,
    at most 1e-3 / |M|_2 (and T / 20), puts RK4's own error far below the
    bound (seen: 1.0e-12 at step 3.7e-4 on a loop whose pre-jump state is off
    by rounding over 2,686 steps, 0.39 of its bound; the same at a quarter of
    that step), so the bound tests the placement, not the integrator.
    """
    step = min(T / 20, 1e-3 / np.linalg.norm(sys.stacked_matrix, 2))
    sim = SimSettings(step=step, horizon_t=1.0, max_jumps=8, event_tol=step * 1e-3)
    sol = simulate(sys, cert, cfg, q0, sim)
    oracle = LtiHybridOracle(clm, cand.eps1, cand.eps2, cert.gamma, cfg.mode, cfg.T, cfg.sigma)
    assert sol.root_jumps + sol.bisection_jumps == _located(sol, cfg.T)
    # Fallbacks (seen only where |z|^2 is subnormal) leave each jump's placement unknown.
    slack = sim.event_tol if sol.bisection_jumps else 0.0
    for j, seg in enumerate(sol.segments[: sol.n_jumps]):
        t0, z0 = float(seg.t[0]), np.concatenate((seg.x[0], seg.e[0]))
        s = oracle.next_jump(z0, float(seg.tau[0]), sim.horizon_t - t0)
        bound = sim.event_tol
        if seg.tau[-1] > cfg.T:  # located inside a step, not taken at dwell expiry
            z = np.concatenate((seg.x[-1], seg.e[-1]))
            bound = _root_bound(sys, cert, cfg, z, seg.t.size - 1) + slack
        assert s is not None and abs(sol.jump_times[j] - (t0 + s)) <= bound


# Two LQR loops drawn once on the property test's 0.05 grid: (A, B).
_FIXED_LQR = {
    "lqr3": (
        [[-1.35, 0.95, 1.05], [1.85, 1.15, -0.85], [-0.75, 0.6, 0.6]], [[0.8], [1.5], [-0.85]]
    ),
    "lqr2": ([[-0.95, -1.4], [0.8, 0.95]], [[-1.9], [-1.55]]),
}


def _exact_reference_case(name, mode, eps1=1e-2):
    """(loop, cert, trigger, oracle): tabuada at T = 0.075, or an LQR loop at masp / 2.

    An LQR loop's certificate is designed with the weight eps1.
    """
    if name == "tabuada":
        clm, T, eps = tabuada_matrices(), 0.075, (0.0, TABUADA_EPS2)
        sys, cert = tabuada_loop()
    else:
        A, B = map(np.array, _FIXED_LQR[name])
        n = A.shape[0]
        K = B.T @ scipy.linalg.solve_continuous_are(A, B, np.eye(n), np.eye(1))
        clm = assemble(LtiPlant(A=A, B=B, C=np.eye(n)), LtiController(D=-K))
        cand = design_certificate(clm, eps1=eps1)
        cert, eps = extract_assumption(clm, cand), (cand.eps1, cand.eps2)
        sys, T = lti_loop_from_matrices(clm), masp(cert.gamma, cert.L) / 2
    cfg = TriggerConfig(
        mode=mode, T=0.0 if mode == "pure-event" else T,
        sigma=0.7 if mode in ("state-feedback", "pure-event") else None,
    )
    return sys, cert, cfg, LtiHybridOracle(clm, *eps, cert.gamma, mode, cfg.T, cfg.sigma)


class TestExactLtiReference:
    """Each jump time of ``simulate`` against the exact LTI hybrid solution.

    The oracle (``oracles.LtiHybridOracle``: expm flow, grid scan, brentq)
    restarts from every jump state that ``simulate`` records, so errors do
    not accumulate over the jumps.  These loops carry a current form, so
    every jump located after the dwell is placed at the root of the RK4
    excess polynomial, exact for the RK4 flow up to rounding; RK4 at step
    1e-3 moves the crossing far less still here, so each such jump lies
    within ``_ROOT_TOL`` = 1e-13 of the exact one (largest seen: 1.6e-14).
    Dwell-expiry and periodic jumps keep event_tol (they agree exactly), as
    do bisected jumps: the end of a bracket of at most event_tol around the
    RK4 crossing lies within it (largest seen: 9.8e-7 for 1e-6).
    In output-feedback mode the default eps1 = 1e-2 puts every LQR jump at
    dwell expiry, so the loops are also run designed with eps1 = 1, where
    most of lqr3's and some of lqr2's jumps are located.
    """

    @pytest.mark.parametrize(
        "name, mode, n_runs",
        [
            ("tabuada", "state-feedback", 10),
            ("tabuada", "pure-event", 6),
            ("tabuada", "periodic", 4),
            ("lqr3", "state-feedback", 4),
            ("lqr3", "output-feedback", 4),
            ("lqr3", "pure-event", 4),
            ("lqr2", "state-feedback", 4),
            ("lqr2", "output-feedback", 4),
            ("lqr2", "pure-event", 4),
        ],
    )
    def test_jump_times_within_their_bounds_of_the_exact_solution(self, name, mode, n_runs):
        self._check_against_the_oracle(name, mode, n_runs)

    @pytest.mark.parametrize("name", ["lqr3", "lqr2"])
    def test_located_output_feedback_jumps_within_the_root_bound(self, name):
        # 160 of lqr3's 203 jumps and 41 of lqr2's 148 are located; at least
        # one must be, so that these cases cannot turn periodic unnoticed.
        assert self._check_against_the_oracle(name, "output-feedback", 4, eps1=1.0) >= 1

    @staticmethod
    def _check_against_the_oracle(name, mode, n_runs, eps1=1e-2):
        """Assert every jump of n_runs seeded runs within its bound of the oracle's.

        Returns how many of the jumps were located after the dwell, not taken at its expiry.
        """
        sys, cert, cfg, oracle = _exact_reference_case(name, mode, eps1)
        settings = SimSettings(step=1e-3, horizon_t=2.0, event_tol=1e-6)
        spec = BatchSpec(n_runs=n_runs, radius=100.0, horizon_t=2.0, seed=0,
                         trigger=cfg, sim=settings)
        worst, worst_root, n_jumps, n_located = 0.0, 0.0, 0, 0
        for k in range(n_runs):
            sol = simulate(sys, cert, cfg, sample_initial(spec, k, sys.n_x, sys.n_e), settings)
            located = 0
            # Segment j starts at the state that jump j leaves (j = 0: q0).
            for j, seg in enumerate(sol.segments):
                t0, z0 = float(seg.t[0]), np.concatenate((seg.x[0], seg.e[0]))
                s = oracle.next_jump(z0, float(seg.tau[0]), settings.horizon_t - t0)
                if j == sol.n_jumps:
                    assert s is None, f"run {k}: exact jump at {t0 + s!r} after the last"
                    continue
                assert s is not None, f"run {k}: no exact jump for jump {j + 1}"
                miss = abs(sol.jump_times[j] - (t0 + s))
                if seg.tau[-1] > cfg.T:  # a dwell-expiry jump has tau = T exactly
                    located += 1
                    worst_root = max(worst_root, miss)
                else:
                    worst = max(worst, miss)
            # Every located jump was placed at the root, none by the bisection.
            assert (sol.root_jumps, sol.bisection_jumps) == (located, 0)
            n_jumps += sol.n_jumps
            n_located += located
        assert n_jumps >= 10 * n_runs
        assert worst <= settings.event_tol
        assert worst_root <= _ROOT_TOL
        return n_located

    @pytest.mark.parametrize(
        "name, mode, eps1",
        [
            ("tabuada", "pure-event", 1e-2),
            ("lqr3", "state-feedback", 1e-2),
            ("lqr3", "output-feedback", 1.0),
            ("lqr2", "pure-event", 1e-2),
        ],
    )
    def test_root_lies_in_the_last_bracket_of_the_bisection(self, name, mode, eps1):
        # A formless copy bisects.  Restarted from each segment start of a
        # root-placed run for one jump, it ends at the end of a bracket of at
        # most event_tol around the RK4 crossing, so its jump lies at most
        # event_tol after the root, up to rounding.
        sys, cert, cfg, _ = _exact_reference_case(name, mode, eps1)
        bare = dataclasses.replace(cert, lti_form=None)
        settings = SimSettings(step=1e-3, horizon_t=2.0, event_tol=1e-6)
        spec = BatchSpec(n_runs=2, radius=100.0, horizon_t=2.0, seed=0, trigger=cfg, sim=settings)
        moves = []
        for k in range(spec.n_runs):
            sol = simulate(sys, cert, cfg, sample_initial(spec, k, sys.n_x, sys.n_e), settings)
            for j, seg in enumerate(sol.segments[: sol.n_jumps]):
                if not seg.tau[-1] > cfg.T:
                    continue
                t0 = float(seg.t[0])
                once = simulate(
                    sys, bare, cfg, HybridState(seg.x[0], seg.e[0], float(seg.tau[0])),
                    SimSettings(step=1e-3, horizon_t=2.0 - t0, max_jumps=1, event_tol=1e-6),
                )
                assert (once.n_jumps, once.root_jumps, once.bisection_jumps) == (1, 0, 1)
                moves.append(once.jump_times[0] - (sol.jump_times[j] - t0))
        assert len(moves) >= 10
        assert -_ROOT_TOL <= min(moves) and max(moves) <= settings.event_tol + _ROOT_TOL


def _located(sol, T=0.0):
    """How many of sol's jumps were located inside a step, not taken at dwell expiry."""
    return sum(int(seg.tau[-1] > T) for seg in sol.segments[: sol.n_jumps])


def _counting_closure():
    """A stand-in for ``hybrid.event_function`` whose closures count their calls in calls[0]."""
    calls = [0]

    def counted(cert, cfg):
        h = event_function(cert, cfg)

        def h_counted(x, e):
            calls[0] += 1
            return h(x, e)

        return h_counted

    return counted, calls


class TestRootPlacement:
    """Which jumps the root of the excess polynomial places, and what that costs."""

    def test_linear_loops_place_every_located_jump_at_the_root(self):
        # The bisection took 10 closure calls per jump on top of the two that
        # find the fired step; a change that quietly restores it fails here.
        sys, cert = tabuada_loop()
        counted, calls = _counting_closure()
        for q0, sim in TestMonitoredBlock._seeded_runs():
            calls[0] = 0
            with mock.patch.object(hybrid, "event_function", counted):
                sol = simulate(sys, cert, _PE, q0, sim)
            assert (sol.root_jumps, sol.bisection_jumps) == (_located(sol), 0)
            assert sol.root_jumps >= 10
            assert calls[0] < 3 * sol.n_jumps

    def test_nonlinear_loops_keep_the_bisection(self, lorenz):
        sys, cert = lorenz
        q0 = HybridState(np.array([0.1, 0.2, -0.3]), np.zeros(1), 0.0)
        sol = simulate(sys, cert, _of_cfg(0.01), q0, SimSettings(step=1e-3, horizon_t=1.0))
        assert (sol.root_jumps, sol.bisection_jumps) == (0, _located(sol, 0.01))
        assert sol.bisection_jumps >= 5

    @pytest.mark.parametrize("c", [1.0, -1.0], ids=["disagrees-at-0", "disagrees-at-h"])
    def test_form_that_disagrees_with_the_closure_falls_back_to_the_bisection(self, c):
        # A polynomial that is positive at 0 or negative at h, where the closure
        # says the step fired, breaks the bracket invariant p(0) < 0 <= p(h):
        # every located jump is then the bisection's, and counted as such.
        sys, cert = tabuada_loop()
        cfg, x0, e0, tau0, horizon, step = BLOCK_RUNS["pure-event"]
        q0 = HybridState(np.array(x0), np.array(e0), tau0)
        settings = SimSettings(step=step, horizon_t=horizon, event_tol=1e-6)

        def disagreeing(cert, cfg):
            screen = trigger.event_screen(cert, cfg)
            return trigger.EventScreen(screen.quiet, lambda V: np.full(2 * len(V) - 1, c), screen.norm)

        with mock.patch.object(hybrid, "event_screen", disagreeing):
            sol, n_blocks = _monitored_blocks(lambda: simulate(sys, cert, cfg, q0, settings))
        bare = simulate(sys, dataclasses.replace(cert, lti_form=None), cfg, q0, settings)
        assert n_blocks >= 1
        assert (sol.root_jumps, sol.bisection_jumps) == (0, _located(sol)) == (0, _located(bare))
        assert sol.bisection_jumps >= 10
        assert [t.hex() for t in sol.jump_times] == [t.hex() for t in bare.jump_times]

    def test_divergence_partial_carries_the_counts(self):
        sys, cert, cfg = _diverging_loops()["blow-up-linear"]
        partial = _recorded_run("blow-up-linear", None)
        assert partial.terminated == "blow-up"
        # The permissive certificate has no form: its located jumps are bisected.
        assert (partial.root_jumps, partial.bisection_jumps) == (0, _located(partial, cfg.T))
        assert partial.bisection_jumps >= 1

    def test_a_coefficient_that_is_not_finite_gives_no_root(self):
        # Regula falsi would close in on 0 and place the jump at the step's start.
        assert hybrid._excess_root(np.array([-1.0, math.inf]), 1e-3) is None
        assert hybrid._excess_root(np.array([-1.0, math.nan, 1.0]), 1e-3) is None

    @pytest.mark.parametrize("mu", [1e20, 1e30, 1e306])
    def test_screen_that_overflows_leaves_the_jumps_to_the_closure(self, mu):
        # A feasible big gamma: at blowup_norm = 1e150 the screen's bound on its products
        # is not finite, so the run has no screen (a warning fails the test): no row is
        # cleared and no root placed, and the jumps are the bisection's.  At mu = 1e306
        # the screen's probes overflow too, and event_screen gives none.
        clm = tabuada_matrices()
        cand = dataclasses.replace(design_certificate(clm, eps1=0.0, eps2=TABUADA_EPS2), mu=mu)
        sys, cert = lti_loop_from_matrices(clm), extract_assumption(clm, cand)
        cfg = TriggerConfig(mode="pure-event", sigma=0.7)
        q0 = HybridState(np.array([1e145, -1e145]), np.zeros(2), 0.0)
        settings = SimSettings(step=1e-4, horizon_t=0.01, blowup_norm=1e150, max_jumps=20)
        assert (trigger.event_screen(cert, cfg) is None) == (mu > 1e300)
        sol = simulate(sys, cert, cfg, q0, settings)
        bare = simulate(sys, dataclasses.replace(cert, lti_form=None), cfg, q0, settings)
        assert (sol.terminated, sol.root_jumps, sol.bisection_jumps) == ("max-jumps", 0, 20)
        assert [t.hex() for t in sol.jump_times] == [t.hex() for t in bare.jump_times]

    @staticmethod
    def _big_gamma_run(blowup_norm):
        """Tabuada designed with mu = 1e20 (gamma = 1e10), pure-event from (3, -2) to 50 jumps."""
        clm = tabuada_matrices()
        cand = dataclasses.replace(design_certificate(clm, eps1=0.0, eps2=TABUADA_EPS2), mu=1e20)
        sys, cert = lti_loop_from_matrices(clm), extract_assumption(clm, cand)
        q0 = HybridState(np.array([3.0, -2.0]), np.zeros(2), 0.0)
        settings = SimSettings(step=1e-4, horizon_t=1.0, blowup_norm=blowup_norm, max_jumps=50)
        bare = dataclasses.replace(cert, lti_form=None)
        return [simulate(sys, c, _PE, q0, settings) for c in (cert, bare)]

    def test_screen_is_kept_only_inside_its_bound(self):
        # n |Q|_inf S^2 (1e150)^2 overflows for n = 4 and |Q|_inf = gamma^2 = 1e20, so the run
        # has no screen and bisects as the run without a form does; under 1e9 it places roots.
        sol, bare = self._big_gamma_run(1e150)
        assert (sol.terminated, sol.root_jumps, sol.bisection_jumps) == ("max-jumps", 0, 50)
        assert [t.hex() for t in sol.jump_times] == [t.hex() for t in bare.jump_times]
        sol, _ = self._big_gamma_run(1e9)
        assert (sol.terminated, sol.root_jumps, sol.bisection_jumps) == ("max-jumps", 50, 0)

    @settings(max_examples=8, deadline=None)
    @given(loop=_lqr_loops())
    def test_screen_products_stay_within_the_bound(self, loop):
        # B = n max(|Q|_inf, 1) S^2, by which ``simulate`` admits a screen, bounds |z^T Q z|
        # and every excess coefficient c_k from V = (M^i / i!) z, relative to |z|_inf^2.
        A, B, K, _ = loop
        clm = assemble(LtiPlant(A=A, B=B, C=np.eye(A.shape[0])), LtiController(D=-K))
        sys, rng = lti_loop_from_matrices(clm), np.random.default_rng(0)
        try:
            cert = extract_assumption(clm, design_certificate(clm))
        except DesignInfeasibleError:
            assume(False)
        M, n = sys.stacked_matrix, sys.n_x + sys.n_e
        taylor, S = hybrid._taylor_stack(M.tobytes(), n)
        for cfg in (_of_cfg(), _sf_cfg()):
            screen, Q = trigger.event_screen(cert, cfg), trigger.event_form(cert, cfg)
            bound = n * max(screen.norm, 1.0) * S * S
            for z in rng.uniform(-1.0, 1.0, (16, n)) * rng.uniform(0.0, 1.0, (16, 1)):
                a2 = np.abs(z).max() ** 2
                c = screen.coefficients(taylor.dot(z).reshape(-1, n))
                assert abs(z.dot(Q).dot(z)) <= bound * a2 and np.abs(c).max() <= bound * a2

    def test_screen_at_the_edge_of_its_bound_is_quiet(self):
        # Tabuada's published certificate keeps its screen up to a guard of about 1.15e151;
        # at 1e150, from a state of norm 1e149, its products stay finite (a warning fails).
        sys, cert = tabuada_loop()
        q0 = HybridState(np.array([1e149, -1e149]) / math.sqrt(2.0), np.zeros(2), 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = simulate(sys, cert, _PE, q0, SimSettings(horizon_t=2.0, blowup_norm=1e150))
        assert sol.terminated == "horizon" and sol.root_jumps > 0

    def test_a_located_jump_state_past_the_guard_ends_the_run(self):
        # x' = -x, e' = 1000 x - e: over one step of 1.55 the RK4 polynomial takes e up to
        # about 350 and back to 47, so the step ends inside the guard of 60 while the
        # event, gamma^2 e^2 >= 2 sigma x^2, is first on at tau = 0.1, where |z| = 90.5.
        # That jump state must pass the guard like every other state, so the run blows up.
        loop = ClosedLoopSystem(n_x=1, n_e=1, f=lambda x, e: [-x[0]], g=lambda x, e: [1e3 * x[0] - e[0]])
        cert = dataclasses.replace(_permissive_cert(), gamma=0.01)
        q0 = HybridState(np.array([1.0]), np.array([0.0]), 0.0)
        settings = SimSettings(step=1.55, horizon_t=1.55, blowup_norm=60.0)
        with pytest.raises(DivergenceError) as exc:
            simulate(loop, cert, TriggerConfig(mode="pure-event", sigma=0.5), q0, settings)
        partial, state = exc.value.partial, exc.value.state
        assert (partial.terminated, partial.jump_times, partial.bisection_jumps) == ("blow-up", [], 0)
        assert state.tau < 0.11 and math.hypot(*state.x, *state.e) > 90.0

    def test_roots_never_reach_the_propagator_cache(self):
        _clear_flow_caches()
        sys, cert = tabuada_loop()
        runs = TestMonitoredBlock._seeded_runs()
        sols, built = _recording_builds(lambda: [simulate(sys, cert, _PE, *run) for run in runs])
        assert sum(sol.root_jumps for sol in sols) >= 40
        # The full step and each run's last step, cut by the horizon: no root
        # and no bisection sub-step is a propagator's length.
        assert built[0] == 1e-3
        assert hybrid._propagator.cache_info().currsize == len(built) <= 1 + len(sols)


def _monitored_blocks(run):
    """run()'s result and the number of monitored blocks it took (their clock has no end)."""
    with mock.patch.object(hybrid, "_block_clock", wraps=hybrid._block_clock) as clock:
        result = run()
    return result, sum(c.args[1] == math.inf for c in clock.call_args_list)


class TestMonitoredBlock:
    """Monitored steps flow as blocks; event_screen clears rows and h_ev decides every jump."""

    @staticmethod
    def _seeded_runs(n_runs=4, horizon=2.0):
        """(q0, settings) of the first n_runs of a criterion-4 style batch, recording states."""
        settings = SimSettings(step=1e-3, horizon_t=horizon, event_tol=1e-6)
        spec = BatchSpec(n_runs=n_runs, radius=100.0, horizon_t=horizon, seed=0, trigger=_PE,
                         sim=settings)
        return [(sample_initial(spec, k, 2, 2), settings) for k in range(n_runs)]

    @pytest.mark.parametrize("case", ["pure-event", "periodic", "lorenz"])
    def test_pure_event_runs_take_monitored_blocks(self, case):
        # simulate builds the screen once per run of a loop with a stacked
        # matrix, before its loop, and never on a nonlinear loop.  A periodic
        # run's screen is None, and neither it nor a Lorenz run takes a block.
        if case == "lorenz":
            (sys, cert), cfg = lorenz_loop(), _of_cfg(0.01)
            q0 = HybridState(np.array([0.1, 0.2, -0.3]), np.zeros(1), 0.0)
            runs = [(q0, SimSettings(step=1e-3, horizon_t=1.0))]
        else:
            (sys, cert), runs = tabuada_loop(), self._seeded_runs()
            cfg = _PE if case == "pure-event" else TriggerConfig(mode="periodic", T=0.075)
        for q0, sim in runs:
            screens = []

            def recording(cert, cfg):
                screens.append(trigger.event_screen(cert, cfg))
                return screens[-1]

            with mock.patch.object(hybrid, "event_screen", recording):
                sol, n_blocks = _monitored_blocks(lambda: simulate(sys, cert, cfg, q0, sim))
            assert sol.n_jumps >= 10
            if case == "pure-event":
                assert len(screens) == 1 and screens[0] is not None
                assert n_blocks >= sol.n_jumps
            else:
                assert screens == ([None] if case == "periodic" else [])
                assert n_blocks == 0

    def test_a_full_block_is_followed_by_the_next_block(self):
        # Pure-event at step 1e-4: 43 monitored blocks, 36 of them full (_DWELL_BLOCK rows,
        # no row a candidate), and 6 root-placed jumps.  After a full block the phase goes
        # on with the next block, not with a single step, whose state would differ by
        # rounding; the digest was recorded before the phase became (end, lead).
        sys, cert = tabuada_loop()
        q0 = HybridState(np.array([3.0, -2.0]), np.zeros(2), 0.0)
        settings = SimSettings(step=1e-4, horizon_t=0.5, event_tol=1e-6)
        sol, n_blocks = _monitored_blocks(lambda: simulate(sys, cert, _PE, q0, settings))
        assert (sol.n_jumps, sol.root_jumps, n_blocks) == (6, 6, 43)
        assert _state_digest(sol) == (
            "1747336a91a6f57103d4583ba88d8113a2ae3a79496859dc8e0143e65120308c"
        )

    def test_short_monitored_phases_stay_single(self):
        # The first ten of criterion 4's state-feedback runs, over 2 s, end
        # their monitored phases within the lead-in, so none of them takes a
        # monitored block; each run builds the screen exactly once, before its
        # loop, though only the runs with a located jump read it.
        sys, cert = tabuada_loop()
        cfg = _sf_cfg()
        settings = SimSettings(step=1e-3, horizon_t=2.0, event_tol=1e-6)
        spec = BatchSpec(n_runs=10, radius=100.0, horizon_t=2.0, seed=0, trigger=cfg, sim=settings)
        for k in range(spec.n_runs):
            q0 = sample_initial(spec, k, 2, 2)
            with mock.patch.object(hybrid, "event_screen", wraps=hybrid.event_screen) as screen:
                sol, n_blocks = _monitored_blocks(lambda: simulate(sys, cert, cfg, q0, settings))
            assert sol.n_jumps >= 10 and n_blocks == 0
            screen.assert_called_once()

    @pytest.mark.parametrize("name", ["pure-event", "tau0"])
    def test_overestimating_form_cannot_decide_a_jump(self, name):
        # A screen that clears no row, as Q = +I would, makes every row a candidate:
        # each monitored step is then taken singly, and the jumps are those of the
        # true screen and of the step path.
        sys, cert = tabuada_loop()
        cfg, x0, e0, tau0, horizon, step = BLOCK_RUNS[name]
        q0 = HybridState(np.array(x0), np.array(e0), tau0)
        settings = SimSettings(step=step, horizon_t=horizon, event_tol=1e-6)
        true_q, n_blocks = _monitored_blocks(lambda: simulate(sys, cert, cfg, q0, settings))
        assert n_blocks >= 1

        def none_cleared(cert, cfg):
            screen = trigger.event_screen(cert, cfg)
            return trigger.EventScreen(lambda Z: np.zeros(len(Z), dtype=bool), screen.coefficients,
                                       screen.norm)

        with mock.patch.object(hybrid, "event_screen", none_cleared):
            plus_i = _assert_blocks_within_bound(sys, cert, cfg, q0, settings)
        _assert_jump_times_within_ulps(plus_i, true_q, _PLANAR_JUMP_ULPS)
        if name == "pure-event":  # no dwell either: every step is the step path's
            _assert_same_runs([plus_i], [_step_path(sys, cert, cfg, q0, settings)])

    @pytest.mark.parametrize("cfg", [_PE, _sf_cfg()], ids=["pure-event", "state-feedback"])
    def test_replaced_gamma_keeps_the_step_paths_jumps(self, cfg):
        sys, cert = tabuada_loop()
        half = dataclasses.replace(cert, gamma=cert.gamma / 2)
        Q = trigger.event_form(half, cfg)
        assert np.array_equal(Q[2:, 2:], (half.gamma * half.gamma) * np.eye(2))
        for q0, sim in self._seeded_runs(n_runs=3):
            sol, n_blocks = _monitored_blocks(
                lambda: _assert_blocks_within_bound(sys, half, cfg, q0, sim)
            )
            assert n_blocks >= 1 and sol.n_jumps >= 2

    @pytest.mark.parametrize("name", ["tabuada", "lqr3", "lqr2"])
    @pytest.mark.parametrize("mode", MODES)
    def test_form_is_the_oracles_Q(self, name, mode):
        sys, cert, cfg, oracle = _exact_reference_case(name, mode)
        Q = trigger.event_form(cert, cfg)
        if oracle.Q is None:
            assert Q is None
        else:
            assert Q.tobytes() == oracle.Q.tobytes()

    @pytest.mark.parametrize("name", ["tabuada", "lqr3", "lqr2"])
    @pytest.mark.parametrize("mode", ["output-feedback", "state-feedback"])
    def test_form_agrees_with_the_closure_far_inside_the_margin(self, name, mode):
        # The screen's margin, 1e-12 |Q|_inf |z|^2, rests on z^T Q z and h_ev
        # agreeing to about 10 n eps |Q|_inf |z|^2; check that on states of
        # sizes from 1e-100 to 1e100.
        sys, cert, cfg, _ = _exact_reference_case(name, mode)
        Q, h = trigger.event_form(cert, cfg), event_function(cert, cfg)
        n, q_inf = Q.shape[0], np.abs(Q).sum(axis=1).max()
        rng = np.random.default_rng(5)
        for _ in range(2000):
            z = rng.standard_normal(n) * 10.0 ** rng.uniform(-100, 100)
            err = abs(float(z.dot(Q).dot(z)) - h(z[: sys.n_x], z[sys.n_x :]))
            assert err <= 10 * n * np.finfo(float).eps * q_inf * z.dot(z)

    @staticmethod
    def _screened(name, mode, low, high, seed):
        """(|z|^2, cleared, h_ev, per row; |Q|_inf) for 4,000 states of sizes 10^low..10^high.

        e is scaled by up to 1e-8 against x, as it grows from 0 after a jump, so
        that some rows are cleared in every mode.
        """
        sys, cert, cfg, _ = _exact_reference_case(name, mode)
        quiet, h = trigger.event_screen(cert, cfg).quiet, event_function(cert, cfg)
        rng, n_x = np.random.default_rng(seed), sys.n_x
        Z = rng.standard_normal((4000, n_x + sys.n_e)) * 10.0 ** rng.uniform(low, high, (4000, 1))
        Z[:, n_x:] *= 10.0 ** rng.uniform(-8, 0, (4000, 1))
        sq = np.einsum("ij,ij->i", Z, Z)
        h_rows = np.array([h(z[:n_x], z[n_x:]) for z in Z])
        q_inf = np.abs(trigger.event_form(cert, cfg)).sum(axis=1).max()
        return sq, quiet(Z), h_rows, q_inf

    @pytest.mark.parametrize("name", ["tabuada", "lqr3", "lqr2"])
    @pytest.mark.parametrize("mode", ["output-feedback", "state-feedback", "pure-event"])
    def test_screen_clears_only_rows_with_a_negative_excess(self, name, mode):
        _, cleared, h_rows, _ = self._screened(name, mode, -150, 100, seed=11)
        if (name, mode) == ("tabuada", "output-feedback"):  # eps1 = 0: Q = diag(0, gamma^2 I)
            assert not cleared.any()
        else:
            assert 100 <= cleared.sum() < cleared.size
        assert (h_rows[cleared] < 0.0).all()

    @pytest.mark.parametrize("name", ["tabuada", "lqr3", "lqr2"])
    @pytest.mark.parametrize("mode", ["output-feedback", "state-feedback", "pure-event"])
    def test_screen_clears_no_row_whose_form_may_be_subnormal(self, name, mode):
        # |z^T Q z| <= |Q|_inf |z|^2, so where that bound lies below tiny the
        # floor keeps every row a candidate: rounding there is absolute, and h
        # can read 0 where z^T Q z reads a negative subnormal.  (A row with
        # |z|^2 just below tiny may still be cleared when |Q|_inf > 1.)
        sq, cleared, h_rows, q_inf = self._screened(name, mode, -175, -150, seed=13)
        below = q_inf * sq < np.finfo(float).tiny
        assert below.sum() >= 1000
        assert not cleared[below].any()
        assert (h_rows[cleared] < 0.0).all()

    @pytest.mark.parametrize("term", ["W", "H", "delta", "alpha"])
    @pytest.mark.parametrize("cfg", [_PE, _sf_cfg()], ids=["pure-event", "state-feedback"])
    def test_form_of_a_copy_is_kept_only_while_it_matches_the_terms(self, cfg, term):
        _, cert = tabuada_loop()
        f = getattr(cert, term)
        same = dataclasses.replace(cert, **{term: lambda v: f(v)})
        assert trigger.event_form(same, cfg).tobytes() == trigger.event_form(cert, cfg).tobytes()
        assert trigger.event_screen(same, cfg) is not None
        other = dataclasses.replace(cert, **{term: lambda v: f(v) + 1.0})
        assert trigger.event_screen(other, cfg) is None

    def test_stale_form_is_ignored_and_the_steps_go_singly(self):
        # A copy with another W keeps lti_form.  Screened with that form, the
        # run jumped 34 times; its own excess, stepped singly, jumps 96 times.
        sys, cert = tabuada_loop()
        stale = dataclasses.replace(cert, W=lambda e: 3.0 * math.sqrt(e.dot(e)))
        q0 = HybridState(np.array([3.0, -2.0]), np.zeros(2), 0.0)
        settings = SimSettings(step=1e-3, horizon_t=2.0, event_tol=1e-6)
        sol, n_blocks = _monitored_blocks(lambda: simulate(sys, stale, _PE, q0, settings))
        assert n_blocks == 0 and sol.n_jumps == 96
        _assert_same_runs([sol], [_step_path(sys, stale, _PE, q0, settings)])
        bare = dataclasses.replace(stale, lti_form=None)
        _assert_same_runs([sol], [simulate(sys, bare, _PE, q0, settings)])

    def test_certificate_without_a_form_steps_singly(self):
        sys, cert = tabuada_loop()
        bare = dataclasses.replace(cert, lti_form=None)
        cfg, x0, e0, tau0, horizon, step = BLOCK_RUNS["pure-event"]
        q0 = HybridState(np.array(x0), np.array(e0), tau0)
        settings = SimSettings(step=step, horizon_t=horizon, event_tol=1e-6)
        sol, n_blocks = _monitored_blocks(lambda: simulate(sys, bare, cfg, q0, settings))
        assert n_blocks == 0
        # Without a form every located jump is bisected, as on the step path of
        # the same certificate.
        assert sol.root_jumps == 0 and sol.bisection_jumps >= 10
        _assert_same_runs([sol], [_step_path(sys, bare, cfg, q0, settings)])


def _assumption_report():
    sys, cert = tabuada_loop()
    return check_assumption_sampled(sys, cert, n_samples=20, radius=1.0, seed=0)


_TABUADA_CERT = tabuada_loop()[1]
# One builder per type that holds arrays or callables: each call builds an
# instance from equal but separate arrays (or a ``replace`` copy).
_IDENTITY_TYPES = {
    "Certificate": lambda: dataclasses.replace(_TABUADA_CERT),
    "ClosedLoopSystem": lambda: tabuada_loop()[0],
    "HybridState": lambda: HybridState(np.array([1.0, -1.0]), np.zeros(2), 0.0),
    "Segment": lambda: Segment(0, np.zeros(2), np.ones((2, 2)), np.zeros((2, 2)), np.zeros(2)),
    "HybridSolution": lambda: HybridSolution([Segment(0, np.zeros(1), np.ones((1, 2)),
                                                      np.zeros((1, 2)), np.zeros(1))], []),
    "LtiPlant": lambda: LtiPlant(np.array([[0.0, 1.0], [-2.0, 3.0]]), np.array([[0.0], [1.0]]), np.eye(2)),
    "LtiController": lambda: LtiController(D=np.array([[1.0, -4.0]])),
    "ClosedLoopMatrices": tabuada_matrices,
    "LmiCertificate": lambda: LmiCertificate(np.eye(2), 0.0, 0.68, 1.0),
    "AssumptionReport": _assumption_report,
}


@pytest.mark.parametrize("name", list(_IDENTITY_TYPES))
def test_array_holding_types_compare_by_identity(name):
    a, b = _IDENTITY_TYPES[name](), _IDENTITY_TYPES[name]()
    assert type(a).__name__ == name
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a) and len({a, b}) == 2


def test_a_copy_without_its_form_is_another_certificate():
    _, cert = tabuada_loop()
    assert dataclasses.replace(cert, lti_form=None) != cert


class TestScreenMemo:
    """``event_screen`` builds one screen per certificate object and config."""

    def test_a_batch_builds_its_screen_once(self):
        sys, cert = tabuada_loop()  # a certificate object that no screen has seen
        spec = BatchSpec(n_runs=5, radius=100.0, horizon_t=0.3, seed=0, trigger=_PE,
                         sim=SimSettings(step=1e-3, horizon_t=0.3, event_tol=1e-6))
        with mock.patch.object(trigger, "event_form", wraps=trigger.event_form) as form:
            rep = run_batch(sys, cert, spec)
        assert rep.n_events_total >= 10 and not rep.failures
        form.assert_called_once()

    def test_a_copy_without_a_form_builds_its_own_screen_and_bisects(self):
        sys, cert = tabuada_loop()
        assert trigger.event_screen(cert, _PE) is not None
        bare = dataclasses.replace(cert, lti_form=None)
        assert trigger.event_screen(bare, _PE) is None
        q0 = HybridState(np.array([3.0, -2.0]), np.zeros(2), 0.0)
        sol = simulate(sys, bare, _PE, q0, SimSettings(step=1e-3, horizon_t=0.5, event_tol=1e-6))
        assert sol.root_jumps == 0 and sol.bisection_jumps >= 5

    def test_memo_stays_bounded(self):
        _, cert = tabuada_loop()
        memo = trigger.event_screen.cache_info().maxsize
        copies = [dataclasses.replace(cert, name=f"copy-{k}") for k in range(3 * memo)]
        for copy in copies:
            assert trigger.event_screen(copy, _PE) is not None
            assert trigger.event_screen.cache_info().currsize <= memo
        with mock.patch.object(trigger, "event_form", wraps=trigger.event_form) as form:
            trigger.event_screen(copies[-1], _PE)  # kept
            assert form.call_count == 0
            trigger.event_screen(copies[0], _PE)  # dropped long ago: built again
            assert form.call_count == 1

    def test_a_hit_keeps_the_screen_as_the_latest(self):
        _, first = tabuada_loop()
        memo = trigger.event_screen.cache_info().maxsize
        trigger.event_screen(first, _PE)
        for k in range(memo - 1):
            trigger.event_screen(dataclasses.replace(first, name=f"copy-{k}"), _PE)
        trigger.event_screen(first, _PE)  # a hit: now the latest
        trigger.event_screen(dataclasses.replace(first, name="one-more"), _PE)  # drops the oldest copy
        with mock.patch.object(trigger, "event_form", wraps=trigger.event_form) as form:
            assert trigger.event_screen(first, _PE) is not None
        form.assert_not_called()
