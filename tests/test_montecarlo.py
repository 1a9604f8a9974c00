import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from etclab import montecarlo
from etclab import (
    BatchSpec,
    Certificate,
    ClosedLoopSystem,
    ConfigError,
    SimSettings,
    TriggerConfig,
    emit_report,
    run_batch,
    sample_initial,
    simulate,
)

SIM = SimSettings(step=1e-3, horizon_t=1.0, event_tol=1e-6, record_states=False)


def _norm(q):
    """Euclidean norm of the (x, e) part of a hybrid state."""
    return float(np.linalg.norm(np.concatenate((q.x, q.e))))


def _spec(n_runs=4, seed=11, horizon=1.0, trigger=None):
    return BatchSpec(
        n_runs=n_runs,
        radius=100.0,
        horizon_t=horizon,
        seed=seed,
        trigger=trigger or TriggerConfig(mode="state-feedback", T=0.075, sigma=0.7),
        sim=SIM,
    )


class TestBatchSpec:
    @pytest.mark.parametrize(
        "field, value",
        [("n_runs", float("nan")), ("radius", float("nan")), ("radius", float("inf")),
         ("horizon_t", float("nan")), ("horizon_t", float("inf"))],
    )
    def test_rejects_nan_and_infinite_values(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            replace(_spec(), **{field: value})

    @pytest.mark.parametrize("seed", [-1, 2.5, True, np.int64(-3), "0", None])
    def test_rejects_a_seed_that_is_not_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="^seed "):
            _spec(seed=seed)

    @pytest.mark.parametrize("n_runs", [2.5, True, "3"])
    def test_rejects_a_run_count_that_is_not_an_integer(self, n_runs):
        with pytest.raises(ValueError, match="^n_runs must be an integer >= 1, got "):
            _spec(n_runs=n_runs)

    def test_accepts_numpy_integer_seeds(self):
        assert _spec(seed=np.int64(3)).seed == 3


class TestSampleInitial:
    def test_deterministic(self):
        spec = _spec()
        a = sample_initial(spec, 2, 2, 2)
        b = sample_initial(spec, 2, 2, 2)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.e, b.e)
        assert a.tau == 0.0

    def test_distinct_runs_differ(self):
        spec = _spec()
        a = sample_initial(spec, 0, 2, 2)
        b = sample_initial(spec, 1, 2, 2)
        assert not np.array_equal(a.x, b.x)

    def test_ball_coverage(self):
        spec = _spec(n_runs=10_000)
        norms = np.array(
            [_norm(sample_initial(spec, k, 2, 2)) for k in range(10_000)]
        )
        assert norms.max() <= 100.0
        assert norms.max() > 95.0

    def test_radius_shrinks_to_origin(self):
        spec = BatchSpec(
            n_runs=1,
            radius=1e-12,
            horizon_t=1.0,
            seed=0,
            trigger=TriggerConfig(mode="periodic", T=0.01),
            sim=SIM,
        )
        assert _norm(sample_initial(spec, 0, 2, 2)) <= 1e-12

    def test_index_out_of_range(self):
        for k in (2, -1):
            with pytest.raises(ValueError, match="run index"):
                sample_initial(_spec(n_runs=2), k, 2, 2)

    @pytest.mark.parametrize("k", [0.5, True])
    def test_index_must_be_an_integer(self, k):
        with pytest.raises(ValueError, match="^run index must be an integer >= 0, got "):
            sample_initial(_spec(n_runs=2), k, 2, 2)


class TestRunBatch:
    def test_single_run_matches_direct_simulation(self, tabuada):
        sys, cert = tabuada
        spec = _spec(n_runs=1)
        rep = run_batch(sys, cert, spec)
        q0 = sample_initial(spec, 0, sys.n_x, sys.n_e)
        sol = simulate(sys, cert, spec.trigger, q0, SIM)
        assert rep.n_events_total == sol.n_jumps
        assert rep.tau_min == min(sol.inter_event_gaps)
        assert rep.tau_avg == pytest.approx(float(np.mean(sol.inter_event_gaps)))
        assert rep.per_run[0].n_events == sol.n_jumps

    def test_more_than_one_worker_rejected(self, tabuada):
        sys, cert = tabuada
        with pytest.raises(ValueError, match="n_workers"):
            run_batch(sys, cert, _spec(n_runs=1), n_workers=2)

    @pytest.mark.parametrize("radius", [1.5e9, 1e12])
    def test_ball_past_the_blowup_guard_is_rejected_before_any_run(self, tabuada, monkeypatch,
                                                                   radius):
        sys, cert = tabuada
        simulated = []
        monkeypatch.setattr(montecarlo, "simulate", lambda *args: simulated.append(args))
        spec = replace(_spec(n_runs=3), radius=radius)
        with pytest.raises(ConfigError) as info:
            run_batch(sys, cert, spec)
        assert str(info.value) == f"batch radius {radius:g} exceeds blowup_norm 1e+09"
        assert simulated == []

    def test_ball_at_the_blowup_guard_runs(self, tabuada):
        sys, cert = tabuada
        spec = replace(_spec(n_runs=2), sim=replace(SIM, blowup_norm=100.0))
        assert run_batch(sys, cert, spec).n_runs == 2

    def test_zeno_free_at_batch_scale(self, tabuada):
        sys, cert = tabuada
        rep = run_batch(sys, cert, _spec(n_runs=8))
        assert rep.tau_min >= 0.075 - 1e-6
        assert rep.tau_min <= rep.tau_avg

    def test_pool_min_monotonicity(self, tabuada):
        sys, cert = tabuada
        rep = run_batch(sys, cert, _spec(n_runs=6))
        full_min = min(gap for _, _, _, gap in rep.events)
        assert full_min == rep.tau_min
        for drop in range(6):
            kept = [gap for run, _, _, gap in rep.events if run != drop]
            if kept:
                assert min(kept) >= full_min

    def test_divergent_runs_are_recorded_not_raised(self):
        sys = ClosedLoopSystem(n_x=1, n_e=1, f=lambda x, e: 4.0 * x, g=lambda x, e: 0.0 * e)
        cert = Certificate(
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
        spec = BatchSpec(
            n_runs=3,
            radius=10.0,
            horizon_t=5.0,
            seed=3,
            trigger=TriggerConfig(mode="output-feedback", T=0.05),
            sim=SimSettings(step=1e-3, horizon_t=5.0, event_tol=1e-6, blowup_norm=1e3),
        )
        rep = run_batch(sys, cert, spec)
        assert rep.failures == [0, 1, 2]
        assert rep.n_events_total == 0


class TestEmitReport:
    def test_files_round_trip(self, tabuada, tmp_path):
        sys, cert = tabuada
        rep = run_batch(sys, cert, _spec(n_runs=3))
        summary_path, events_path = emit_report(rep, tmp_path / "out")
        with open(summary_path) as fh:
            summary = json.load(fh)
        assert set(summary) == {"tau_min", "tau_avg", "n_events_total", "n_runs", "failures"}
        assert summary["tau_min"] == rep.tau_min
        assert summary["tau_avg"] == rep.tau_avg
        assert summary["n_events_total"] == rep.n_events_total
        assert summary["n_runs"] == 3
        with open(events_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["run", "j", "t_j", "gap"]
        assert len(rows) - 1 == len(rep.events)
        keys = [(int(r[0]), int(r[1])) for r in rows[1:]]
        assert keys == sorted(keys)
        # full-precision floats round-trip exactly
        gaps = [float(r[3]) for r in rows[1:]]
        assert min(gaps) == rep.tau_min

    def test_overwrite_is_idempotent(self, tabuada, tmp_path):
        sys, cert = tabuada
        rep = run_batch(sys, cert, _spec(n_runs=2))
        emit_report(rep, tmp_path / "out")
        summary_path, events_path = emit_report(rep, tmp_path / "out")
        with open(events_path) as fh:
            n_rows = len(list(csv.reader(fh)))
        assert n_rows - 1 == len(rep.events)

    def test_event_row_count_matches_gaps(self, tabuada, tmp_path):
        sys, cert = tabuada
        spec = BatchSpec(
            n_runs=1,
            radius=1.0,
            horizon_t=0.035,
            seed=1,
            trigger=TriggerConfig(mode="periodic", T=0.01),
            sim=SimSettings(step=1e-3, horizon_t=0.035, event_tol=1e-6, record_states=False),
        )
        rep = run_batch(sys, cert, spec)
        assert rep.n_events_total == 3  # horizon fits three sampling periods
        _, events_path = emit_report(rep, tmp_path)
        with open(events_path) as fh:
            assert len(list(csv.reader(fh))) - 1 == 3
