import copy
import csv
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etclab import ConfigError, HybridState, SimSettings, TriggerConfig, simulate
from etclab.cli import Resolved, RunConfig, dispatch, emit_config, emit_plot_data, load_config


def _run(capsys, *argv):
    rc = dispatch(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestMaspCommand:
    def test_planar_benchmark_display(self, capsys):
        rc, out, _ = _run(capsys, "masp", "--gamma", "17.3495", "--L", "4.1231")
        assert rc == 0
        assert out.strip() == "0.0790"

    def test_equal_gains(self, capsys):
        rc, out, _ = _run(capsys, "masp", "--gamma", "2", "--L", "2")
        assert rc == 0
        assert float(out) == 0.5

    def test_table_one_bound(self, capsys):
        rc, out, _ = _run(capsys, "masp", "--gamma", "89.9666", "--L", "4")
        assert rc == 0
        assert abs(float(out) - 0.017) <= 5e-4

    def test_degenerate_gains_exit_code(self, capsys):
        rc, _, err = _run(capsys, "masp", "--gamma", "0", "--L", "0")
        assert rc == 1
        assert "error" in err

    @pytest.mark.parametrize("gamma, L", [("nan", "1"), ("1", "inf"), ("-1", "1")])
    def test_non_finite_or_negative_gains_exit_one(self, capsys, gamma, L):
        rc, out, err = _run(capsys, "masp", "--gamma", gamma, "--L", L)
        assert rc == 1
        assert out == ""
        assert err.startswith("error: masp:")


class TestDesignCommand:
    def test_emits_certificate_document(self, capsys, tmp_path):
        out_path = tmp_path / "cert.json"
        rc, _, _ = _run(
            capsys, "design", "--system", "lti-sf-tabuada",
            "--eps1", "0", "--eps2", "0.68", "--out", str(out_path),
        )
        assert rc == 0
        doc = json.loads(out_path.read_text())
        assert set(doc) == {"P", "eps1", "eps2", "mu", "gamma", "L", "T_max"}
        assert doc["eps2"] == 0.68
        assert doc["gamma"] == pytest.approx(np.sqrt(doc["mu"]))
        assert doc["L"] == pytest.approx(4.1231, abs=1e-3)
        assert doc["T_max"] > 0
        assert np.asarray(doc["P"]).shape == (2, 2)

    def test_infinite_eps_exits_one_naming_it(self, capsys):
        rc, out, err = _run(capsys, "design", "--system", "lti-sf-tabuada", "--eps2", "inf")
        assert rc == 1
        assert out == ""
        assert err == "error: eps2 must be finite and positive\n"


class TestCheckCommand:
    def test_planar_passes(self, capsys):
        rc, out, _ = _run(
            capsys, "check", "--system", "lti-sf-tabuada", "--samples", "500"
        )
        assert rc == 0
        assert "PASS" in out

    @pytest.mark.parametrize(
        "flag, value",
        [("--samples", "0"), ("--samples", "-5"), ("--radius", "nan"), ("--radius", "inf")],
    )
    def test_no_evidence_is_an_error(self, capsys, flag, value):
        rc, out, err = _run(capsys, "check", "--system", "lti-sf-tabuada", flag, value)
        assert rc == 1
        assert "PASS" not in out
        assert err.startswith("error: ")

    def test_lorenz_fails_honestly(self, capsys):
        # The published Lorenz gains violate the decay inequality; the
        # checker must say so and exit nonzero.
        rc, out, _ = _run(capsys, "check", "--system", "lorenz", "--samples", "500")
        assert rc == 1
        assert "FAIL" in out
        assert "v-decay" in out


LORENZ_CFG = {
    "system": {"name": "lorenz"},
    "certificate": "auto",
    "trigger": {"mode": "output-feedback", "T": 0.01},
    "sim": {"step": 1e-3, "horizon_t": 1.0, "event_tol": 1e-6},
    "batch": {"n_runs": 2, "radius": 5.0, "seed": 7, "horizon_t": 1.0},
    "initial": {"x": [1.0, 1.0, 1.0], "e": [0.0]},
    "zeta": {"theta": 1e-4, "eta": 1e-6},
    "output_dir": "out",
}

# The planar benchmark written out as a custom LTI loop, designed with
# eps2 = 0.68 rather than the default 1e-2.
LTI_CFG = {
    "system": {
        "name": "lti-custom",
        "plant": {"A": [[0.0, 1.0], [-2.0, 3.0]], "B": [[0.0], [1.0]], "C": [[1.0, 0.0], [0.0, 1.0]]},
        "controller": {"D": [[1.0, -4.0]]},
        "design": {"eps1": 0.0, "eps2": 0.68},
    },
    "trigger": {"mode": "state-feedback", "T": 0.05, "sigma": 0.7},
    "sim": {"step": 1e-3, "horizon_t": 0.5},
    "initial": {"x": [1.0, -1.0], "e": [0.0, 0.0]},
}


def _write_config(tmp_path, base, mutate=None):
    cfg = {**copy.deepcopy(base), "output_dir": str(tmp_path / "out")}
    if mutate is not None:
        mutate(cfg)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


@pytest.fixture()
def lorenz_config(tmp_path):
    return _write_config(tmp_path, LORENZ_CFG)


class TestSimulateCommand:
    def test_writes_all_artifacts(self, capsys, lorenz_config):
        path, cfg = lorenz_config
        rc, out, _ = _run(capsys, "simulate", "--config", str(path))
        assert rc == 0
        outdir = cfg["output_dir"]
        for name in ("states.csv", "events.csv", "rmonitor.csv", "plot.csv"):
            assert os.path.exists(os.path.join(outdir, name))
        with open(os.path.join(outdir, "states.csv")) as fh:
            header = next(csv.reader(fh))
        assert header == ["t", "j", "x0", "x1", "x2", "e0", "tau"]
        with open(os.path.join(outdir, "plot.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["event_index", "t_j", "gap", "T_ref"]
        gaps = [float(r[2]) for r in rows[1:]]
        assert gaps and all(g >= 0.01 - 1e-6 for g in gaps)

    def test_dwell_above_ceiling_fails_before_integration(self, capsys, tmp_path):
        rc, _, err = _run(
            capsys, "simulate", "--system", "lorenz",
            "--T", "0.02", "--mode", "output-feedback",
            "--output-dir", str(tmp_path / "never"),
        )
        assert rc == 1
        assert "dwell time exceeds MASP" in err
        assert not os.path.exists(tmp_path / "never")

    def test_malformed_config_reports_location(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"system": {"name": "lorenz",}}')
        rc, _, err = _run(capsys, "simulate", "--config", str(bad))
        assert rc == 1
        assert "line" in err

    def test_unknown_field_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"system": {"name": "lorenz"}, "extra": 1}))
        rc, _, err = _run(capsys, "simulate", "--config", str(bad))
        assert rc == 1
        assert "extra" in err

    def test_divergent_run_exits_two(self, capsys, tmp_path):
        # A very stiff loop deliberately under-resolved: the fixed-step
        # integrator is unstable and the blow-up guard must trip.
        cfg = {
            "system": {
                "name": "lti-custom",
                "plant": {"A": [[-999.0]], "B": [[1.0]], "C": [[1.0]]},
                "controller": {"D": [[-1.0]]},
                "design": {"eps1": 0.0, "eps2": 0.1},
            },
            "certificate": "auto",
            "trigger": {"mode": "output-feedback", "T": 0.2},
            "sim": {"step": 0.02, "horizon_t": 5.0, "event_tol": 1e-3, "blowup_norm": 1e6},
            "batch": {"n_runs": 1, "radius": 1.0, "seed": 0},
            "initial": {"x": [1.0], "e": [0.0]},
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc, _, err = _run(capsys, "simulate", "--config", str(path))
        assert rc == 2
        assert "diverged" in err


class TestBatchCommand:
    def test_writes_report(self, capsys, lorenz_config):
        path, cfg = lorenz_config
        rc, out, _ = _run(capsys, "batch", "--config", str(path))
        assert rc == 0
        outdir = cfg["output_dir"]
        with open(os.path.join(outdir, "summary.json")) as fh:
            summary = json.load(fh)
        assert summary["n_runs"] == 2
        assert summary["failures"] == []
        assert summary["tau_min"] >= 0.01 - 1e-6

    def test_env_seed_override(self, capsys, lorenz_config, monkeypatch):
        path, cfg = lorenz_config
        rc, _, _ = _run(capsys, "batch", "--config", str(path))
        with open(os.path.join(cfg["output_dir"], "summary.json")) as fh:
            base = json.load(fh)
        monkeypatch.setenv("ETC_LAB_SEED", "99")
        rc, _, _ = _run(capsys, "batch", "--config", str(path))
        with open(os.path.join(cfg["output_dir"], "summary.json")) as fh:
            other = json.load(fh)
        assert rc == 0
        assert other["tau_avg"] != base["tau_avg"]  # different ICs were drawn


class TestConfigRoundTrip:
    def test_load_emit_load(self, lorenz_config, tmp_path):
        path, _ = lorenz_config
        cfg = load_config(path)
        copy_path = tmp_path / "copy.json"
        emit_config(cfg, copy_path)
        assert load_config(copy_path) == cfg

    def test_unknown_certificate_form_rejected(self):
        with pytest.raises(Exception, match="certificate"):
            RunConfig.from_dict({"system": {"name": "lorenz"}, "certificate": 5})


class TestConfigResolver:
    @pytest.mark.parametrize(
        "base, section, mutate",
        [
            (LTI_CFG, "system.plant", lambda c: c["system"]["plant"].pop("C")),
            (LTI_CFG, "system.plant", lambda c: c["system"]["plant"].update(D=[[0.0]])),
            (LORENZ_CFG, "sim", lambda c: c["sim"].update(step="0.001")),
            (LORENZ_CFG, "zeta", lambda c: c["zeta"].pop("eta")),
            (LORENZ_CFG, "system.params", lambda c: c["system"].update(params={"q": 1.0})),
            (LTI_CFG, "trigger", lambda c: c["trigger"].update(sigma="0.7")),
            (LORENZ_CFG, "trigger", lambda c: c.update(trigger=["output-feedback", 0.01])),
            (LTI_CFG, "system.design", lambda c: c["system"]["design"].update(eps3=0.1)),
        ],
        ids=[
            "plant-without-C", "plant-extra-key", "step-string", "zeta-without-eta",
            "lorenz-unknown-param", "sigma-string", "trigger-list", "design-unknown-key",
        ],
    )
    def test_malformed_section_exits_one_naming_it(self, capsys, tmp_path, base, section, mutate):
        path, cfg = _write_config(tmp_path, base, mutate)
        rc, _, err = _run(capsys, "simulate", "--config", str(path))
        assert rc == 1
        assert err.startswith(f"error: config.{section}:")
        assert not os.path.exists(cfg["output_dir"])

    def test_infinite_certificate_weight_exits_one_naming_it(self, capsys, tmp_path):
        cert = {"P": [[1.0, 0.0], [0.0, 1.0]], "eps1": 0.0, "eps2": 0.68, "mu": float("inf")}
        path, cfg = _write_config(tmp_path, LTI_CFG, lambda c: c.update(certificate=cert))
        assert "Infinity" in path.read_text()
        rc, out, err = _run(capsys, "simulate", "--config", str(path))
        assert rc == 1
        assert out == ""
        assert err == "error: config.certificate: mu must be finite and nonnegative\n"
        assert not os.path.exists(cfg["output_dir"])

    def test_design_and_simulate_report_the_same_gamma(self, capsys, tmp_path):
        path, _ = _write_config(tmp_path, LTI_CFG)
        cert_path = tmp_path / "cert.json"
        rc, _, design_err = _run(capsys, "design", "--config", str(path), "--out", str(cert_path))
        assert rc == 0
        doc = json.loads(cert_path.read_text())
        assert (doc["eps1"], doc["eps2"]) == (0.0, 0.68)  # from system.design
        rc, out, _ = _run(capsys, "simulate", "--config", str(path))
        assert rc == 0
        assert out.splitlines()[0] == design_err.splitlines()[0]
        assert out.startswith(f"gamma = {doc['gamma']:.4f},")
        # Command-line eps take precedence over system.design.
        rc, _, _ = _run(
            capsys, "design", "--config", str(path), "--eps2", "0.01", "--out", str(cert_path)
        )
        assert rc == 0
        assert json.loads(cert_path.read_text())["eps2"] == 0.01


def _key_paths(d, prefix=()):
    for k, v in d.items():
        yield prefix + (k,)
        if isinstance(v, dict):
            yield from _key_paths(v, prefix + (k,))


@settings(max_examples=150, deadline=None)
@given(
    path=st.sampled_from(list(_key_paths(LORENZ_CFG))),
    change=st.sampled_from(["drop", "add", "string", "list", "nan"]),
)
def test_mutated_config_resolves_or_raises_config_error(path, change):
    cfg = copy.deepcopy(LORENZ_CFG)
    *parents, key = path
    node = cfg
    for p in parents:
        node = node[p]
    if change == "drop":
        del node[key]
    elif change == "add":
        node["unexpected"] = 1.0
    else:
        node[key] = {"string": "x", "list": [1.0, 2.0], "nan": float("nan")}[change]
    try:
        Resolved(RunConfig.from_dict(cfg), run=True).loop()
    except ConfigError:
        pass


class TestEmitPlotData:
    def test_constant_gap_column_at_equilibrium(self, tmp_path, lorenz):
        sys, cert = lorenz
        q0 = HybridState(np.zeros(3), np.zeros(1), 0.0)
        sol = simulate(
            sys, cert, TriggerConfig(mode="output-feedback", T=0.01), q0,
            SimSettings(step=1e-3, horizon_t=0.05, event_tol=1e-6),
        )
        out = tmp_path / "plot.csv"
        emit_plot_data(sol, out, t_ref=0.01)
        rows = list(csv.reader(out.read_text().splitlines()))
        gaps = {float(r[2]) for r in rows[1:]}
        assert len(rows) - 1 == sol.n_jumps
        assert all(abs(g - 0.01) < 1e-9 for g in gaps)
        assert {float(r[3]) for r in rows[1:]} == {0.01}

    def test_no_events_writes_header_only(self, tmp_path, tabuada):
        sys, cert = tabuada
        q0 = HybridState(np.array([0.001, 0.0]), np.zeros(2), 0.0)
        sol = simulate(
            sys, cert, TriggerConfig(mode="state-feedback", T=0.075, sigma=0.7), q0,
            SimSettings(step=1e-3, horizon_t=0.05, event_tol=1e-6),
        )
        assert sol.n_jumps == 0
        out = tmp_path / "plot.csv"
        emit_plot_data(sol, out, t_ref=0.075)
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows == [["event_index", "t_j", "gap", "T_ref"]]
