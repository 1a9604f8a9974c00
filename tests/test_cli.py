import copy
import csv
import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from etclab import (
    ConfigError,
    HybridState,
    SimSettings,
    TriggerConfig,
    design_certificate,
    simulate,
    tabuada_loop,
)
from etclab.systems import TABUADA_EPS2, tabuada_matrices
from etclab.cli import Resolved, dispatch, emit_plot_data


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

    def test_tiny_gamma_over_L(self, capsys):
        # The arctanh branch, about ln(2L/gamma)/L; a literal atanh raises here.
        rc, out, err = _run(capsys, "masp", "--gamma", "1e-9", "--L", "1")
        assert (rc, out, err) == (0, "21.4164\n", "")

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

    def test_builtin_defaults_reproduce_its_certificate(self, capsys, tmp_path):
        # With no flags, design uses the weights the built-in was designed with,
        # so it emits exactly the P that tabuada_loop pins the published gains to.
        out_path = tmp_path / "cert.json"
        rc, _, err = _run(capsys, "design", "--system", "lti-sf-tabuada", "--out", str(out_path))
        assert rc == 0
        doc = json.loads(out_path.read_text())
        designed = design_certificate(tabuada_matrices(), eps1=0.0, eps2=TABUADA_EPS2)
        assert (doc["eps1"], doc["eps2"]) == (0.0, TABUADA_EPS2)
        assert np.array_equal(np.asarray(doc["P"]), designed.P)
        assert doc["mu"] == designed.mu
        assert err.startswith("gamma = 13.3263,")
        _, cert = tabuada_loop()
        x = np.array([0.3, -1.7])
        P = np.asarray(doc["P"])
        assert cert.V(x) == float(x @ (0.5 * (P + P.T)) @ x)

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

    def test_negative_seed_exits_one_naming_it(self, capsys):
        rc, out, err = _run(capsys, "check", "--system", "lti-sf-tabuada", "--seed", "-1")
        assert (rc, out) == (1, "")
        assert err.startswith("error: seed ")

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

    @staticmethod
    def _first_rise(outdir):
        """(t, j, increase) of the first R step in rmonitor.csv above 1e-6 R[0], or None."""
        with open(os.path.join(outdir, "rmonitor.csv")) as fh:
            rows = [(float(t), int(j), float(r)) for t, j, r in list(csv.reader(fh))[1:]]
        for (_, _, r0), (t, j, r1) in zip(rows, rows[1:]):
            if r1 - r0 > 1e-6 * rows[0][2]:
                return t, j, r1 - r0
        return None

    def test_r_monitor_check_reports_no_rise(self, capsys, tmp_path):
        path, cfg = _write_config(tmp_path, LTI_CFG)
        rc, out, _ = _run(capsys, "simulate", "--config", str(path))
        assert rc == 0
        assert out.splitlines()[-1] == "R monitor: R never rose by more than 1e-6 R[0]"
        assert self._first_rise(cfg["output_dir"]) is None

    def test_r_monitor_check_locates_the_first_rise(self, capsys, tmp_path):
        # At x = (0, 1, 0), e = 0 the published Lorenz gains leave V-dot a budget of
        # -60 against the -110 the decay inequality needs, so R rises at once.
        path, cfg = _write_config(
            tmp_path, LORENZ_CFG, lambda c: c["initial"].update(x=[0.0, 1.0, 0.0]))
        rc, out, _ = _run(capsys, "simulate", "--config", str(path))
        assert rc == 0
        t, j, up = self._first_rise(cfg["output_dir"])
        assert (t, j) == (0.001, 0)
        assert out.splitlines()[-1] == (
            f"R monitor: R rose by {up:.6g} (more than 1e-6 R[0]) at t = {t:.6g}, j = {j}")

    def test_dwell_above_ceiling_fails_before_integration(self, capsys, tmp_path):
        rc, _, err = _run(
            capsys, "simulate", "--system", "lorenz",
            "--T", "0.02", "--mode", "output-feedback",
            "--output-dir", str(tmp_path / "never"),
        )
        assert rc == 1
        assert "dwell time exceeds MASP" in err
        assert not os.path.exists(tmp_path / "never")

    @pytest.mark.parametrize("mode", ["periodic", "output-feedback", "pure-event"])
    def test_mode_flag_drops_the_config_field_its_mode_rejects(self, capsys, tmp_path, mode):
        # The config is state-feedback with T = 0.05 and sigma = 0.7: periodic and
        # output-feedback mode reject its sigma, pure-event mode its T.
        path, _ = _write_config(tmp_path, LTI_CFG)
        rc, out, _ = _run(capsys, "simulate", "--config", str(path), "--mode", mode)
        assert rc == 0
        assert "terminated: horizon" in out

    def test_mode_flag_keeps_an_explicit_field_its_mode_rejects(self, capsys, tmp_path):
        path, cfg = _write_config(tmp_path, LTI_CFG)
        rc, out, err = _run(
            capsys, "simulate", "--config", str(path), "--mode", "periodic", "--sigma", "0.5"
        )
        assert (rc, out) == (1, "")
        assert err == "error: config.trigger: periodic mode takes no sigma, got 0.5\n"
        assert not os.path.exists(cfg["output_dir"])

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

    def test_unknown_system_name_exits_one_naming_it(self, capsys, tmp_path):
        rc, out, err = _run(
            capsys, "simulate", "--system", "no-such-loop", "--output-dir", str(tmp_path / "out")
        )
        assert (rc, out) == (1, "")
        assert err.startswith("error: config.system: unknown system name 'no-such-loop'")
        assert not os.path.exists(tmp_path / "out")

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

    def test_workers_flag_is_gone(self, capsys, lorenz_config):
        path, cfg = lorenz_config
        rc, _, err = _run(capsys, "batch", "--config", str(path), "--workers", "2")
        assert rc == 1
        assert "--workers" in err
        assert not os.path.exists(cfg["output_dir"])

    @pytest.mark.parametrize("command", ["batch", "simulate"])
    def test_negative_seed_exits_one_naming_it(self, capsys, tmp_path, monkeypatch, command):
        path, cfg = _write_config(tmp_path, LORENZ_CFG, lambda c: c["batch"].update(seed=-1))
        rc, _, err = _run(capsys, command, "--config", str(path))
        assert rc == 1
        assert err.startswith("error: config.batch: seed ")
        monkeypatch.setenv("ETC_LAB_SEED", "-5")
        path, cfg = _write_config(tmp_path, LORENZ_CFG)
        rc, _, err = _run(capsys, command, "--config", str(path))
        assert rc == 1
        assert err.startswith("error: config.batch: seed ")
        assert not os.path.exists(cfg["output_dir"])


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
            (LORENZ_CFG, "zeta", lambda c: c["zeta"].update(eta=float("inf"))),
            (LTI_CFG, "system.controller", lambda c: c["system"]["controller"].update(A=[[-1.0]])),
        ],
        ids=[
            "plant-without-C", "plant-extra-key", "step-string", "zeta-without-eta",
            "lorenz-unknown-param", "sigma-string", "trigger-list", "design-unknown-key",
            "zeta-infinite-eta", "controller-A-without-B",
        ],
    )
    def test_malformed_section_exits_one_naming_it(self, capsys, tmp_path, base, section, mutate):
        path, cfg = _write_config(tmp_path, base, mutate)
        rc, _, err = _run(capsys, "simulate", "--config", str(path))
        assert rc == 1
        assert err.startswith(f"error: config.{section}:")
        assert not os.path.exists(cfg["output_dir"])

    @pytest.mark.parametrize(
        "section, field, value",
        [("sim", "event_tol", 1e-20), ("sim", "step", float("inf")),
         ("batch", "radius", float("inf"))],
    )
    def test_out_of_range_value_exits_one_naming_it(self, capsys, tmp_path, section, field, value):
        # A pure-event run has no dwell to bound the step, so only the range check stops these.
        def mutate(c):
            c["trigger"] = {"mode": "pure-event", "sigma": 0.7}
            c.setdefault(section, {})[field] = value

        path, cfg = _write_config(tmp_path, LTI_CFG, mutate)
        rc, out, err = _run(capsys, "simulate", "--config", str(path))
        assert (rc, out) == (1, "")
        assert err.startswith(f"error: config.{section}: {field} must ")
        assert not os.path.exists(cfg["output_dir"])

    def test_state_feedback_needs_the_whole_state_transmitted(self, capsys, tmp_path):
        # y = diag(2, 1) x has n_y = n_x, but e = (ey, eu) has three entries.
        def mutate(c):
            c["system"]["plant"]["C"] = [[2.0, 0.0], [0.0, 1.0]]
            c["system"]["controller"]["D"] = [[0.5, -4.0]]
            c["initial"]["e"] = [0.0, 0.0, 0.0]

        path, cfg = _write_config(tmp_path, LTI_CFG, mutate)
        rc, out, err = _run(capsys, "simulate", "--config", str(path))
        assert (rc, out) == (1, "")
        assert err.startswith("error: state-feedback mode requires a full-state output")
        assert "n_e = 3" in err
        assert not os.path.exists(cfg["output_dir"])

    @pytest.mark.parametrize("command", ["simulate", "batch"])
    def test_output_dir_flag_does_not_hide_a_bad_config_value(self, capsys, tmp_path, command):
        path, _ = _write_config(tmp_path, LORENZ_CFG, lambda c: c.update(output_dir=5))
        rc, _, err = _run(
            capsys, command, "--config", str(path), "--output-dir", str(tmp_path / "o")
        )
        assert (rc, err) == (1, "error: config.output_dir: expected a string\n")
        assert not os.path.exists(tmp_path / "o")

    def test_unknown_certificate_form_rejected(self):
        with pytest.raises(ConfigError, match='^config.certificate: expected "auto" or an object$'):
            Resolved({"system": {"name": "lorenz"}, "certificate": 5})

    def test_infinite_certificate_weight_exits_one_naming_it(self, capsys, tmp_path):
        cert = {"P": [[1.0, 0.0], [0.0, 1.0]], "eps1": 0.0, "eps2": 0.68, "mu": float("inf")}
        path, cfg = _write_config(tmp_path, LTI_CFG, lambda c: c.update(certificate=cert))
        assert "Infinity" in path.read_text()
        rc, out, err = _run(capsys, "simulate", "--config", str(path))
        assert rc == 1
        assert out == ""
        assert err == "error: config.certificate: mu must be finite and nonnegative\n"
        assert not os.path.exists(cfg["output_dir"])

    @pytest.mark.parametrize("command", ["check", "simulate"])
    def test_asymmetric_certificate_p_exits_one_naming_it(self, capsys, tmp_path, command):
        # lmi_residual symmetrises P, so this candidate is feasible; P itself is not symmetric.
        P = design_certificate(tabuada_matrices(), eps1=0.0, eps2=TABUADA_EPS2).P.tolist()
        P[0][1] += 1e-3
        cert = {"P": P, "eps1": 0.0, "eps2": 0.68, "mu": 17.3495**2}
        path, cfg = _write_config(tmp_path, LTI_CFG, lambda c: c.update(certificate=cert))
        rc, out, err = _run(capsys, command, "--config", str(path))
        assert (rc, out) == (1, "")
        assert err == "error: config.certificate: P: not symmetric within tolerance 1e-09\n"
        assert not os.path.exists(cfg["output_dir"])

    @pytest.mark.parametrize("command", ["check", "simulate"])
    @pytest.mark.parametrize(
        "cert, message",
        [
            (
                {"P": np.eye(3).tolist(), "eps1": 0.0, "eps2": 0.68, "mu": 400.0},
                "P has shape (3, 3), expected (2, 2)",
            ),
            (
                {"P": np.eye(2).tolist(), "eps1": 0.0, "eps2": 0.5, "mu": 400.0},
                "candidate is not feasible (residual 2.130e+00)",
            ),
        ],
        ids=["wrong-shape", "infeasible"],
    )
    def test_rejected_certificate_exits_one_naming_it(self, capsys, tmp_path, command, cert, message):
        path, cfg = _write_config(tmp_path, LTI_CFG, lambda c: c.update(certificate=cert))
        rc, out, err = _run(capsys, command, "--config", str(path))
        assert (rc, out) == (1, "")
        assert err == f"error: config.certificate: {message}\n"
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


# LTI_CFG, which has no batch section, under a guard below the default ball radius 25.
SMALL_GUARD_CFG = {**LTI_CFG, "sim": {**LTI_CFG["sim"], "blowup_norm": 10.0}}

# An output-feedback LTI loop with one controller state (MASP 0.849).
ONE_STATE_CFG = {
    "system": {
        "name": "lti-custom",
        "plant": {"A": [[0.0, 1.0], [-2.0, -3.0]], "B": [[0.0], [1.0]], "C": [[1.0, 0.0]]},
        "controller": {"A": [[-1.0]], "B": [[1.0]], "C": [[-1.0]], "D": [[-0.5]]},
        "design": {"eps1": 1e-2, "eps2": 1e-2},
    },
    "trigger": {"mode": "output-feedback", "T": 0.05},
    "sim": {"step": 1e-3, "horizon_t": 0.2},
    "batch": {"n_runs": 2, "radius": 5.0, "seed": 0, "horizon_t": 0.2},
    "initial": {"x": [1.0, 0.0, 0.0], "e": [0.0, 0.0]},
}

# ONE_STATE_CFG with plant B = [[0], [1e308]].  Every closed-loop block is finite, but
# A1's eigenvalues are -1 and -1.5 +- 7.1e153 i beside entries near 1e308: the pair's
# sum is within rounding of 0, so scipy's Lyapunov solver would perturb A1.
TINY_MARGIN_CFG = copy.deepcopy(ONE_STATE_CFG)
TINY_MARGIN_CFG["system"]["plant"]["B"][1][0] = 1e308
TINY_MARGIN_ERROR = (
    "error: solve_lyapunov: a's stability margin 1.000e+00 is within rounding of 0 "
    "at its norm 1.118e+308\n"
)

# ONE_STATE_CFG with plant B = [[0], [1e160]] and a controller that feeds back nothing:
# A1 is a plain stable loop, but B1^T P is near 1e160 and its square overflows.
HUGE_B1_CFG = copy.deepcopy(ONE_STATE_CFG)
HUGE_B1_CFG["system"]["plant"].update(A=[[-1.0, 1.0], [-2.0, -3.0]], B=[[0.0], [1e160]])
HUGE_B1_CFG["system"]["controller"].update(C=[[0.0]], D=[[0.0]])
# Two fuzzer mutations of ONE_STATE_CFG whose pricing squares a norm past 1.34e154.
HUGE_COUPLING_CFG = copy.deepcopy(ONE_STATE_CFG)
HUGE_COUPLING_CFG["system"]["plant"]["A"][1][0] = 1e308
HUGE_COUPLING_CFG["system"]["controller"]["D"][0][0] = -1e308
# A1 = [[-1, 1e6], [-1e-6, -1]] has eigenvalues -1 +- i, far from 0 at its norm 1e6,
# but it is so far from normal that LAPACK's trsyl would perturb it (scipy warns).
NON_NORMAL_CFG = copy.deepcopy(ONE_STATE_CFG)
NON_NORMAL_CFG["system"].update(
    plant={"A": [[-1.0, 1e6], [-1e-6, -1.0]], "B": [[1.0, 0.0], [0.0, 1.0]],
           "C": [[1.0, 0.0], [0.0, 1.0]]},
    controller={"D": [[0.0, 0.0], [0.0, 0.0]]},
)
NON_NORMAL_CFG["initial"] = {"x": [1.0, 0.0], "e": [0.0, 0.0]}
# A1 = 1 - 1.00000001 = -1e-8 with eps2 = 1e301: P = 1.001e301 / 2e-8 passes 1.8e308.
# LAPACK's trsyl solves for a scaled right-hand side to stay finite, and the true P overflows.
LYAPUNOV_OVERFLOW_CFG = {
    "system": {
        "name": "lti-custom",
        "plant": {"A": [[1.0]], "B": [[1.0]], "C": [[1.0]]},
        "controller": {"D": [[-1.00000001]]},
        "design": {"eps1": 0.0, "eps2": 1e301},
    },
}
# A = 1 under a zero gain: A1 = [[1.0]] is not Hurwitz, so the design stops before any solve.
UNSTABLE_LOOP_CFG = {
    "system": {
        "name": "lti-custom",
        "plant": {"A": [[1.0]], "B": [[1.0]], "C": [[1.0]]},
        "controller": {"D": [[0.0]]},
    },
}
# LTI_CFG with a feasible inline certificate: tabuada's P designed with eps2 = 0.68.
INLINE_CERT_CFG = {**LTI_CFG, "certificate": {
    "P": design_certificate(tabuada_matrices(), eps1=0.0, eps2=TABUADA_EPS2).P.tolist(),
    "eps1": 0.0, "eps2": 0.68, "mu": 17.3495**2,
}}


def _with_cert(**values):
    """INLINE_CERT_CFG with the certificate fields replaced, P by the (i, j, value) entries."""
    cert = copy.deepcopy(INLINE_CERT_CFG["certificate"])
    for i, j, v in values.pop("P", []):
        cert["P"][i][j] = v
    return {**INLINE_CERT_CFG, "certificate": {**cert, **values}}

# name: (argv, config document (or its JSON text) or None, ETC_LAB_SEED or None,
# exit code, start of stderr, check of stdout and the output directory, or None
# for "no output"); "{config}" in argv and stderr is the document, written to a file.
CLI_EXITS = {
    "config-file-not-found": (
        ["simulate", "--config", "{absent}"], None, None, 1, "error: config file not found: ", None,
    ),
    "config-not-an-object": (
        ["simulate", "--config", "{config}"], [LORENZ_CFG], None, 1,
        "error: config: expected an object, got list", None,
    ),
    "certificate-on-a-built-in": (
        ["check", "--config", "{config}"], {**LORENZ_CFG, "certificate": {"P": [[1.0]]}}, None, 1,
        "error: config.certificate: built-in system 'lorenz' carries its own certificate", None,
    ),
    "seed-not-an-integer": (
        ["simulate", "--config", "{config}"], LORENZ_CFG, "7.5", 1,
        "error: ETC_LAB_SEED must be an integer, got '7.5'", None,
    ),
    "neither-config-nor-system": (
        ["simulate"], None, None, 1, "error: simulate requires --config or --system", None,
    ),
    "design-of-a-nonlinear-loop": (
        ["design", "--system", "lorenz"], None, None, 1,
        "error: design expects an LTI system, got 'lorenz'", None,
    ),
    "design-to-stdout": (
        ["design", "--out", "-"], None, None, 0, "gamma = ",
        lambda out, outdir: json.loads(out)["T_max"] > 0.0,
    ),
    "sigma-on-output-feedback": (
        ["simulate", "--config", "{config}"],
        {**LORENZ_CFG, "trigger": {**LORENZ_CFG["trigger"], "sigma": 0.7}}, None, 1,
        "error: config.trigger: output-feedback mode takes no sigma, got 0.7\n", None,
    ),
    "blowup-norm-above-1e150": (
        ["simulate", "--config", "{config}"],
        {**LORENZ_CFG, "sim": {**LORENZ_CFG["sim"], "blowup_norm": 1e200}}, None, 1,
        "error: config.sim: blowup_norm must satisfy 0 < blowup_norm <= 1e150\n", None,
    ),
    "batch-horizon-past-1e9-steps": (
        # BatchSpec folds its horizon into sim, so the work rule holds for it before any run.
        ["batch", "--config", "{config}"],
        {**LORENZ_CFG, "batch": {**LORENZ_CFG["batch"], "horizon_t": 1e30}}, None, 1,
        "error: config.batch: horizon_t 1e+30 over step 0.001 exceeds 1e9 steps\n", None,
    ),
    "batch-radius-past-the-guard": (
        ["batch", "--config", "{config}"],
        {**LORENZ_CFG, "batch": {**LORENZ_CFG["batch"], "radius": 1e12}}, None, 1,
        "error: config.batch: batch radius 1e+12 exceeds blowup_norm 1e+09\n", None,
    ),
    "batch-radius-past-the-guard-on-simulate": (
        # simulate starts from config.initial, not from the ball.
        ["simulate", "--config", "{config}"],
        {**LORENZ_CFG, "batch": {**LORENZ_CFG["batch"], "radius": 1e12}}, None, 0, "",
        lambda out, outdir: out.startswith("gamma = ") and (outdir / "states.csv").exists(),
    ),
    "default-ball-past-a-small-guard": (
        # No batch section: its default radius 25 exceeds blowup_norm 10 only for a batch.
        ["batch", "--config", "{config}"], SMALL_GUARD_CFG, None, 1,
        "error: config.batch: batch radius 25 exceeds blowup_norm 10\n", None,
    ),
    "default-ball-past-a-small-guard-on-simulate": (
        ["simulate", "--config", "{config}"], SMALL_GUARD_CFG, None, 0, "",
        lambda out, outdir: out.startswith("gamma = ") and (outdir / "states.csv").exists(),
    ),
    "default-ball-past-a-small-guard-on-design": (
        ["design", "--config", "{config}"], SMALL_GUARD_CFG, None, 0, "gamma = ",
        lambda out, outdir: json.loads(out)["T_max"] > 0.0 and not outdir.exists(),
    ),
    "default-ball-past-a-small-guard-on-check": (
        ["check", "--config", "{config}", "--samples", "200"], SMALL_GUARD_CFG, None, 0, "",
        lambda out, outdir: out.endswith("PASS\n") and not outdir.exists(),
    ),
    "lyapunov-pair-within-rounding-on-design": (
        ["design", "--config", "{config}"], TINY_MARGIN_CFG, None, 1, TINY_MARGIN_ERROR, None,
    ),
    "lyapunov-pair-within-rounding-on-simulate": (
        ["simulate", "--config", "{config}"], TINY_MARGIN_CFG, None, 1, TINY_MARGIN_ERROR, None,
    ),
    "slack-pricing-overflows": (
        ["design", "--config", "{config}"], HUGE_B1_CFG, None, 1,
        "error: mu = |B1^T P|^2 / rho overflows at slack ", None,
    ),
    "slack-pricing-overflows-after-two-mutations": (
        ["simulate", "--config", "{config}"], HUGE_COUPLING_CFG, None, 1,
        "error: mu = |B1^T P|^2 / rho overflows at slack ", None,
    ),
    "lyapunov-schur-block-near-singular": (
        ["design", "--config", "{config}"], NON_NORMAL_CFG, None, 1,
        "error: solve_lyapunov: LAPACK trsyl perturbed a near-singular Schur block of a "
        "(info 1)\n", None,
    ),
    "lyapunov-solution-overflows": (
        ["design", "--config", "{config}"], LYAPUNOV_OVERFLOW_CFG, None, 1,
        "error: solve_lyapunov: the solution overflows (LAPACK trsyl scale ", None,
    ),
    "design-unstable-loop": (
        ["design", "--config", "{config}"], UNSTABLE_LOOP_CFG, None, 1,
        "error: A1 is not Hurwitz: the emulated controller does not stabilize the loop\n", None,
    ),
    "certificate-p-whose-sum-overflows": (
        # 1e308 + 1e308 overflows when P is symmetrized; A1^T P + P A1 overflows too.
        ["check", "--config", "{config}"], _with_cert(P=[(1, 1, 1e308)]), None, 1,
        "error: config.certificate: candidate is not feasible (residual inf)\n", None,
    ),
    "certificate-eps2-whose-sum-overflows": (
        # The block matrix is finite, but symmetrizing it for the eigensolve overflowed.
        ["simulate", "--config", "{config}"], _with_cert(eps2=1e308), None, 1,
        "error: config.certificate: candidate is not feasible (residual 1.000e+308)\n", None,
    ),
    "certificate-on-a-loop-whose-a2-squared-overflows": (
        # Controller D = [[1e308, -4]]: A2^T A2 overflows in the block and in the feasibility scale.
        ["simulate", "--config", "{config}"],
        {**INLINE_CERT_CFG, "system": {**LTI_CFG["system"], "controller": {"D": [[1e308, -4.0]]}}},
        None, 1, "error: config.certificate: candidate is not feasible (residual inf)\n", None,
    ),
    "initial-past-the-guard": (
        ["simulate", "--config", "{config}"],
        {**LORENZ_CFG, "initial": {"x": [1e10, 0.0, 0.0], "e": [0.0]}}, None, 1,
        "error: initial state norm 1e+10 exceeds blowup_norm 1e+09\n", None,
    ),
    "controller-D-of-the-wrong-shape": (
        ["simulate", "--config", "{config}"],
        {**LTI_CFG, "system": {**LTI_CFG["system"], "controller": {"D": [[1.0, -4.0, 0.0]]}}},
        None, 1, "error: config.system: controller D has shape (1, 3), expected (1, 2)\n", None,
    ),
    "string-in-plant-a": (
        ["design", "--config", "{config}"],
        {**LTI_CFG, "system": {**LTI_CFG["system"], "plant": {
            **LTI_CFG["system"]["plant"], "A": [["0", 1.0], [-2.0, 3.0]],
        }}},
        None, 1, "error: config.system.plant: field 'A' has the wrong type str\n", None,
    ),
    "bool-in-controller-d": (
        ["check", "--config", "{config}"],
        {**LTI_CFG, "system": {**LTI_CFG["system"], "controller": {"D": [[True, -4.0]]}}},
        None, 1, "error: config.system.controller: field 'D' has the wrong type bool\n", None,
    ),
    "string-in-initial-x": (
        ["simulate", "--config", "{config}"], {**LTI_CFG, "initial": {"x": [1.0, "2"], "e": [0.0, 0.0]}},
        None, 1, "error: config.initial: field 'x' has the wrong type str\n", None,
    ),
    "plant-products-overflow": (
        # Every entry is finite, but -C A in block A2 passes 1.8e308.
        ["simulate", "--config", "{config}"],
        {**LTI_CFG, "system": {
            **LTI_CFG["system"],
            "plant": {"A": [[-2.0, 1.0], [-2.0, -3.0]], "B": [[0.0], [1.0]], "C": [[-1e308, 0.0]]},
            "controller": {"D": [[0.0]]},
        }},
        None, 1, "error: config.system: closed-loop block A2 is not finite", None,
    ),
    "check-right-side-overflows": (
        # mu = 1e308 is feasible; gamma^2 W(e)^2 overflows to +inf far out, where
        # the v-decay excess is -inf, which holds, not an infinite violation.
        ["check", "--config", "{config}", "--samples", "200"], _with_cert(mu=1e308), None, 0,
        "", lambda out, outdir: out.endswith("PASS\n") and not outdir.exists(),
    ),
    "check-overflow-far-out": (
        # At radius 1e200 the norms, V, W, delta and f overflow: each is an infinite
        # violation, and numpy warns of none of them (a warning fails the test).
        ["check", "--system", "lorenz", "--samples", "50", "--radius", "1e200"], None, None, 1,
        "", lambda out, outdir: out.endswith("FAIL\n") and not outdir.exists(),
    ),
    "config-nests-too-deep": (
        # The JSON parser recurses once per level: 995 lists pass the recursion limit.
        ["design", "--config", "{config}"],
        '{"system": {"name": "lti-custom", "plant": {"A": ' + "[" * 995 + "]" * 995 + "}}}",
        None, 1, "error: {config}: JSON nests too deep to parse\n", None,
    ),
    "config-not-utf-8": (
        # UTF-16 LE's byte-order mark: a config is UTF-8 JSON (RFC 8259), whatever the locale.
        ["design", "--config", "{config}"], b"\xff\xfe{}", None, 1,
        "error: {config}: not UTF-8 text: invalid start byte at byte 0\n", None,
    ),
    "simulate-output-dir-is-a-file": (
        # The outputs are written after the run; the failure names the directory.
        ["simulate", "--config", "{config}", "--output-dir", "{config}"], LORENZ_CFG, None, 1,
        "error: failed to write outputs under '{config}': [Errno 17] File exists: '{config}'\n",
        None,
    ),
    "design-out-is-a-directory": (
        ["design", "--config", "{config}", "--out", "{dir}"], LTI_CFG, None, 1,
        "error: failed to write the certificate to '{dir}': [Errno 21] Is a directory: '{dir}'\n",
        None,
    ),
    "zeta-transit-warning": (
        # The default zeta's transit time, 0.00988, is below T = 0.01.
        ["simulate", "--config", "{config}"], {k: v for k, v in LORENZ_CFG.items() if k != "zeta"},
        None, 0,
        "warning: dwell time is not below the zeta transit time; R-monitor output is empty",
        lambda out, outdir: (outdir / "rmonitor.csv").read_text() == "t,j,R\n"
        and "R monitor" not in out,
    ),
}


@pytest.mark.parametrize("name", list(CLI_EXITS))
def test_exit_code_and_message(capsys, tmp_path, monkeypatch, name):
    argv, doc, seed, code, message, check = CLI_EXITS[name]
    outdir = tmp_path / "out"
    if isinstance(doc, dict):
        doc = {**doc, "output_dir": str(outdir)}
    if doc is not None:  # as UTF-8; a str or bytes document verbatim
        if not isinstance(doc, bytes):
            doc = (doc if isinstance(doc, str) else json.dumps(doc)).encode()
        (tmp_path / "config.json").write_bytes(doc)
    if seed is not None:
        monkeypatch.setenv("ETC_LAB_SEED", seed)
    paths = {"config": tmp_path / "config.json", "absent": tmp_path / "absent.json",
             "dir": tmp_path}
    argv = [a.format(**paths) for a in argv]
    rc, out, err = _run(capsys, *argv)
    assert rc == code
    assert err.startswith(message.format(**paths))
    if check is None:
        assert out == "" and not outdir.exists()
    else:
        assert check(out, outdir)


@pytest.mark.parametrize(
    "argv, code, out",
    [(["masp", "--gamma", "1", "--L", "1"], 0, "1.0000\n"), (["frobnicate"], 1, "")],
    ids=["masp", "unknown-subcommand"],
)
def test_module_entry_point_exits_with_dispatchs_code(argv, code, out):
    # python -m etclab runs __main__.py, which calls cli.main and exits with its code.
    proc = subprocess.run(
        [sys.executable, "-m", "etclab", *argv], cwd=pathlib.Path(__file__).resolve().parents[1],
        env={**os.environ, "PYTHONPATH": "src"}, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (code, out)
    if code:
        assert "invalid choice: 'frobnicate'" in proc.stderr


def test_config_is_read_as_utf_8_in_an_ascii_locale(tmp_path):
    # In the C locale, with UTF-8 mode and locale coercion off, open() defaults to ASCII.
    config = tmp_path / "config.json"
    config.write_bytes(json.dumps({**LTI_CFG, "output_dir": "\u00e9t\u00e9"}, ensure_ascii=False).encode())
    proc = subprocess.run(
        [sys.executable, "-m", "etclab", "design", "--config", str(config)],
        cwd=pathlib.Path(__file__).resolve().parents[1], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": "src", "LC_ALL": "C", "PYTHONUTF8": "0",
             "PYTHONCOERCECLOCALE": "0"},
    )
    assert (proc.returncode, proc.stderr) == (0, "gamma = 13.3263, L = 4.1231, T_max = 0.0991\n")


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
        Resolved(cfg, run=True).loop()
    except ConfigError:
        pass


# The config fuzzer's bases, its mutation pool and its commands.  Each example replaces
# one or two values of one base (a key's or a list entry's) with values from the pool, or
# drops them; a dropped list entry leaves a ragged matrix or a short vector.
FUZZ_BASES = {
    "lorenz": {**LORENZ_CFG, "sim": {**LORENZ_CFG["sim"], "horizon_t": 0.2},
               "batch": {**LORENZ_CFG["batch"], "horizon_t": 0.2}},
    "lti-sf-tabuada": {
        "system": {"name": "lti-sf-tabuada"},
        "trigger": {"mode": "state-feedback", "T": 0.05, "sigma": 0.7},
        "sim": {"step": 1e-3, "horizon_t": 0.2},
        "batch": {"n_runs": 2, "radius": 5.0, "seed": 0, "horizon_t": 0.2},
        "initial": {"x": [1.0, -1.0], "e": [0.0, 0.0]},
    },
    "lti-custom": ONE_STATE_CFG,
    "lti-inline-certificate": {**INLINE_CERT_CFG, "sim": {**LTI_CFG["sim"], "horizon_t": 0.2}},
}
_DROP = "<drop>"
FUZZ_VALUES = [
    _DROP, "x", True, None, {}, float("nan"), float("inf"), -float("inf"), 1e308, -1e308,
    5e-324, 0, -1, 10**30, [], [[]], [[1.0], [1.0, 2.0]],
]
# --runs and --output-dir bound the batch's work and keep every file under tmp_path.
FUZZ_COMMANDS = [
    ["design"], ["check", "--samples", "50"], ["simulate", "--output-dir", "{out}"],
    ["batch", "--runs", "2", "--output-dir", "{out}"],
]


def _value_paths(node, prefix=()):
    """The path of every value in a config document, through objects and lists."""
    for k, v in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield prefix + (k,)
        if isinstance(v, (dict, list)):
            yield from _value_paths(v, prefix + (k,))


@st.composite
def _mutations(draw):
    """A base and one or two (path, value) changes to it, the second on any path of the base."""
    base, path = draw(st.sampled_from(
        [(b, p) for b in FUZZ_BASES for p in _value_paths(FUZZ_BASES[b])]
    ))
    changes = [(path, draw(st.sampled_from(FUZZ_VALUES)))]
    if draw(st.booleans()):
        path = draw(st.sampled_from(list(_value_paths(FUZZ_BASES[base]))))
        changes.append((path, draw(st.sampled_from(FUZZ_VALUES))))
    return base, changes


def _mutate(doc, path, value):
    """Set the value at path, or drop it for ``_DROP``; skip a path that an earlier change cut."""
    *parents, key = path
    node = doc
    try:
        for p in parents:
            node = node[p]
        if value == _DROP:
            del node[key]
        else:
            node[key] = copy.deepcopy(value)
    except (KeyError, IndexError, TypeError):
        pass


class _Overran(Exception):
    """An example outran its time bound (not an OSError, which dispatch would report)."""


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_mutations())
@example(case=("lti-custom", [(("system", "plant", "B", 1, 0), 1e308)]))  # TINY_MARGIN_CFG
@example(case=("lti-custom", [(("system", "plant", "A", 0, 1), 1e308)]))  # A2^T A2 overflows
@example(case=("lti-custom", [(("system", "design", "eps2"), 1e308)]))  # so do the slacks
@example(case=("lti-custom", [(("system", "plant", "A", 1, 0), 1e308),  # HUGE_COUPLING_CFG
                              (("system", "controller", "D", 0, 0), -1e308)]))
@example(case=("lti-inline-certificate", [(("certificate", "P", 0, 0), 1e308)]))  # P's sum
@example(case=("lti-inline-certificate", [(("certificate", "mu"), 1e308)]))  # the block's sum
def test_fuzzed_config_exits_cleanly_in_every_command(capsys, tmp_path, monkeypatch, case):
    monkeypatch.delenv("ETC_LAB_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    base, changes = case
    doc = copy.deepcopy(FUZZ_BASES[base])
    for key_path, value in changes:
        _mutate(doc, key_path, value)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))

    def overran(signum, frame):
        raise _Overran(f"{base} {changes!r} ran past 20 s")

    previous = signal.signal(signal.SIGALRM, overran)
    signal.alarm(20)
    try:
        for command in FUZZ_COMMANDS:
            argv = [a.format(out=tmp_path / "out") for a in command]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc, out, err = _run(capsys, *argv, "--config", str(path))
            assert [str(w.message) for w in caught] == []
            assert rc in (0, 1, 2)
            if rc == 1 and not (command[0] == "check" and out.endswith("FAIL\n")):
                assert err.startswith("error: "), (command, err)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# SHA-256 of every file simulate and batch write for LORENZ_CFG and
# LTI_CFG.  Any change to a writer that moves one byte fails here.  The LTI
# states.csv and rmonitor.csv were re-pinned when dwell states became
# propagator powers (test_hybrid.py::TestDwellBlock bounds the move) and again
# when monitored steps did too (TestMonitoredBlock); the Lorenz ones when a
# monitored step's t became t_j + tau (one row's t moved).  Every LTI file was
# re-pinned when located jumps moved from the bisection to the root of the
# excess polynomial: the same jumps, each at most event_tol from where it was
# on top of the moves before it (simulate: 5 events, t_j moved by at most
# 2.3e-6 in all; batch: 709 events, at most 5.4e-6; tau_avg by 4.3e-7).  The
# LTI rmonitor.csv was re-pinned when the design took P from its two pricing
# solves, not a third: R moved in 228 of 510 rows, by at most 3.2e-16 relative;
# and again when r_monitor took V and W on one column block (the bound is in its
# docstring): R moved in 84 of 510 rows, by at most 1 ulp (2.2e-16 relative).
ARTEFACT_SHA256 = {
    ("lorenz", "simulate"): {
        "events.csv": "4dc68a50c264a51ebb28645dd663cc65490639eb4ef36790343f8909dd38eff2",
        "plot.csv": "d82c7c7c98edc41bc61c68e413339f513f51b13f29e82cff09c89bf945d87a77",
        "rmonitor.csv": "0c8032f2a18c16790da1cf2c770b3a44d4f647b6157454de43e896756f429757",
        "states.csv": "f8cae265ec685073212a56df98f3ca8c018378d44de1dfd28586673665dae607",
    },
    ("lorenz", "batch"): {
        "events.csv": "a161e12e12bfb28119da9238bdf5cb7c4d58c3c198368cccd985db3285fb2866",
        "summary.json": "df9b72cf0608010a16798f65405ddb18e971f2362cb03294ea2be2d2214c7791",
    },
    ("lti", "simulate"): {
        "events.csv": "f31e5d607c7e943e8145b4d8bdf76acafea362446bfcb5e67efe6b99a7159a3b",
        "plot.csv": "af3cbd2c8df6cf33905fd057fd37680f447ef965393bec5664b3df6a5265bbbd",
        "rmonitor.csv": "e88e8210e879c50a7b5e95dddd98b88f2881faf387bf233ee6882459086e5aa3",
        "states.csv": "8454ed8063bce08dca9a026f6c2d344ad117eb9110c4184cb9622cfa7cb2bd8b",
    },
    ("lti", "batch"): {
        "events.csv": "286dafe9d9ce8a59de8910708fe19f5be82e5367679e21d98961dae16c7ab181",
        "summary.json": "aec9c8515739a13507bcfdd38ef659474ec0dde50bb3ee8db19380802c62cb04",
    },
}


@pytest.mark.parametrize("command", ["simulate", "batch"])
@pytest.mark.parametrize(
    "name, base", [("lorenz", LORENZ_CFG), ("lti", LTI_CFG)], ids=["lorenz", "lti"]
)
def test_artefacts_are_byte_identical(capsys, tmp_path, name, base, command):
    path, cfg = _write_config(tmp_path, base)
    rc, _, _ = _run(capsys, command, "--config", str(path))
    assert rc == 0
    outdir = cfg["output_dir"]
    digests = {}
    for fname in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, fname), "rb") as fh:
            digests[fname] = hashlib.sha256(fh.read()).hexdigest()
    assert digests == ARTEFACT_SHA256[name, command]


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
