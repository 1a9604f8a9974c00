import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from etclab import (
    DimensionError,
    LtiController,
    LtiPlant,
    SimSettings,
    TriggerConfig,
    assemble,
    check_assumption_sampled,
    design_certificate,
    extract_assumption,
    flow_step,
    lorenz_loop,
    lti_loop,
    masp,
    simulate,
    tabuada_loop,
)
from etclab.model import HybridState
from etclab.systems import BUILTIN_LOOPS, lti_loop_from_matrices


def _planar_plant(C):
    return LtiPlant(A=[[0.0, 1.0], [-2.0, 3.0]], B=[[0.0], [1.0]], C=C)


# (plant, controller) for each block structure that assemble produces.
LOOP_KINDS = {
    "static-state-feedback": (_planar_plant(np.eye(2)), LtiController(D=[[1.0, -4.0]])),
    "static-output-feedback": (_planar_plant([[1.0, 0.5]]), LtiController(D=[[-2.0]])),
    "dynamic-output-feedback": (
        _planar_plant([[1.0, 0.0]]),
        LtiController(A=[[-3.0]], B=[[1.0]], C=[[-1.5]], D=[[-0.5]]),
    ),
}


class TestLorenzLoop:
    def test_certificate_constants(self, lorenz):
        _, cert = lorenz
        # alpha coefficient: min(a(p1-1), p2-2a, 2 p2 c) = min(10, 10, 160)
        assert cert.alpha(1.0) == pytest.approx(10.0)
        assert cert.alpha(3.0) == pytest.approx(90.0)
        y = np.array([2.0])
        assert cert.delta(y) == pytest.approx(10.0 * 4.0)
        assert cert.L == 0.0
        # gamma = sqrt(p2) ((p1/p2) a + b) = sqrt(30) * 86/3
        assert cert.gamma == pytest.approx(math.sqrt(30.0) * (86.0 / 3.0), rel=1e-12)
        assert cert.gamma == pytest.approx(157.0138, abs=1e-4)

    def test_dwell_time_fits_under_ceiling(self, lorenz):
        _, cert = lorenz
        ceiling = masp(cert.gamma, cert.L)
        assert ceiling == pytest.approx(0.010004, abs=1e-6)
        assert 0.01 < ceiling

    def test_equilibrium(self, lorenz):
        sys, _ = lorenz
        assert np.all(sys.f(np.zeros(3), np.zeros(1)) == 0.0)
        assert np.all(sys.g(np.zeros(3), np.zeros(1)) == 0.0)

    def test_error_dynamics(self, lorenz, rng):
        # e' = -y' = a (x1 - x2), independent of e.
        sys, _ = lorenz
        for _ in range(10):
            x = rng.standard_normal(3)
            e = rng.standard_normal(1)
            assert sys.g(x, e)[0] == pytest.approx(10.0 * (x[0] - x[1]))

    def test_parameter_boundaries_rejected(self):
        with pytest.raises(ValueError, match="p1 > 1"):
            lorenz_loop(p1=1.0)
        with pytest.raises(ValueError, match="p2 > 2a"):
            lorenz_loop(p2=20.0)
        with pytest.raises(ValueError):
            lorenz_loop(a=-1.0)

    def test_error_growth_dominated_by_h(self, lorenz, rng):
        # |e'| = a |x1 - x2| <= H(x) = a (|x1| + |x2|): the zero-growth
        # instance of the W inequality.
        sys, cert = lorenz
        for _ in range(10_000):
            x = rng.standard_normal(3) * 20
            e = rng.standard_normal(1)
            assert abs(sys.g(x, e)[0]) <= cert.H(x) + 1e-12


class TestLtiLoop:
    def test_state_feedback_signs(self, tabuada, rng):
        sys, _ = tabuada
        a1 = np.array([[0.0, 1.0], [-1.0, -1.0]])
        b1 = np.array([[0.0, 0.0], [1.0, -4.0]])
        for _ in range(5):
            x = rng.standard_normal(2)
            e = rng.standard_normal(2)
            assert np.allclose(sys.f(x, e), a1 @ x + b1 @ e)
            assert np.allclose(sys.g(x, e), -(a1 @ x + b1 @ e))

    def test_zero_state_zero_derivative(self, tabuada):
        sys, _ = tabuada
        assert np.all(sys.f(np.zeros(2), np.zeros(2)) == 0.0)
        assert np.all(sys.g(np.zeros(2), np.zeros(2)) == 0.0)

    def test_flow_step_matches_matrix_exponential(self, tabuada, rng):
        sys, _ = tabuada
        h = 1e-3
        q = HybridState(rng.standard_normal(2), rng.standard_normal(2), 0.0)
        qn = flow_step(sys, q, h)
        z = np.concatenate((q.x, q.e))
        z_exact = scipy.linalg.expm(sys.stacked_matrix * h) @ z
        err = np.linalg.norm(np.concatenate((qn.x, qn.e)) - z_exact)
        assert err <= 1e-12 * max(1.0, np.linalg.norm(z_exact))

    def test_certificate_dimension_check(self, lorenz):
        _, lorenz_cert = lorenz
        plant, ctrl = LOOP_KINDS["static-state-feedback"]
        with pytest.raises(DimensionError, match=r"\(3, 1\).*\(2, 2\)"):
            lti_loop(plant, ctrl, lorenz_cert)

    @pytest.mark.parametrize("kind", sorted(LOOP_KINDS))
    def test_flow_maps_are_the_stored_blocks(self, kind, rng):
        # One rule for every structure: e' = A2 x + B2 e, the stacked matrix
        # is [[A1, B1], [A2, B2]], and e' = -y' on the output part of e.
        plant, ctrl = LOOP_KINDS[kind]
        clm = assemble(plant, ctrl)
        sys = lti_loop_from_matrices(clm)
        assert np.array_equal(sys.stacked_matrix, np.block([[clm.A1, clm.B1], [clm.A2, clm.B2]]))
        n_p, n_y = plant.n_p, plant.n_y
        for _ in range(5):
            x, e = rng.standard_normal(clm.n_x), rng.standard_normal(clm.n_e)
            assert np.array_equal(sys.f(x, e), clm.A1 @ x + clm.B1 @ e)
            assert np.array_equal(sys.g(x, e), clm.A2 @ x + clm.B2 @ e)
            assert np.allclose(sys.g(x, e)[:n_y], -plant.C @ sys.f(x, e)[:n_p])

    def test_builtin_registry(self):
        sys, cert = BUILTIN_LOOPS["lti-sf-tabuada"]()
        assert sys.name == "lti-sf-tabuada"


class TestPairing:
    """A certificate is used only on a loop of its own (n_x, n_e)."""

    def test_simulate_rejects_a_smaller_certificate(self, tabuada, lorenz):
        # Unchecked, this runs to the horizon with 39 jumps and no error.
        sys, _ = tabuada
        _, cert = lorenz
        q0 = HybridState(np.array([1.0, -1.0]), np.zeros(2), 0.0)
        with pytest.raises(DimensionError, match=r"\(3, 1\).*\(2, 2\)"):
            simulate(sys, cert, TriggerConfig("output-feedback", T=0.01), q0,
                     SimSettings(step=1e-3, horizon_t=1.0))

    def test_simulate_rejects_a_larger_certificate(self, tabuada, lorenz):
        sys, _ = lorenz
        _, cert = tabuada
        q0 = HybridState(np.array([1.0, 1.0, 1.0]), np.zeros(1), 0.0)
        with pytest.raises(DimensionError, match=r"\(2, 2\).*\(3, 1\)"):
            simulate(sys, cert, TriggerConfig("output-feedback", T=0.01), q0,
                     SimSettings(step=1e-3, horizon_t=1.0))

    def test_sampled_check_rejects_a_foreign_certificate(self, tabuada, lorenz):
        sys, _ = tabuada
        _, cert = lorenz
        with pytest.raises(DimensionError, match=r"\(3, 1\).*\(2, 2\)"):
            check_assumption_sampled(sys, cert, n_samples=10)


class TestCheckAssumptionSampled:
    def test_origin_satisfies_all_inequalities(self, tabuada):
        sys, cert = tabuada
        x0, e0 = np.zeros(2), np.zeros(2)
        assert cert.V(x0) == 0.0
        assert cert.alpha_lower(0.0) <= cert.V(x0) <= cert.alpha_upper(0.0)
        assert cert.W(e0) == 0.0
        # grad V(0) . f(0,0) = 0 and the right side is 0: equality holds.
        assert float(np.zeros(2) @ sys.f(x0, e0)) == 0.0

    def test_planar_certificate_passes(self, tabuada):
        sys, cert = tabuada
        report = check_assumption_sampled(sys, cert, n_samples=10_000, radius=50, seed=0)
        assert report.passed, report.summary()

    @pytest.mark.xfail(
        strict=True,
        reason="The published Lorenz gains do not satisfy the V-decay "
        "inequality: at x = (0, 1, 0), e = 0 the decay budget is -60 but "
        "the required bound is -110 (the H^2 term is too large for "
        "p1 = 2, p2 = 30, and no valid H exists for these weights). "
        "The sampled checker correctly reports the violation.",
    )
    def test_lorenz_certificate_passes_as_published(self, lorenz):
        sys, cert = lorenz
        report = check_assumption_sampled(sys, cert, n_samples=10_000, radius=50, seed=0)
        assert report.passed, report.summary()

    def test_lorenz_violation_is_detected_and_localized(self, lorenz):
        # The checker's whole point: it finds the broken inequality.
        sys, cert = lorenz
        report = check_assumption_sampled(sys, cert, n_samples=2_000, radius=50, seed=0)
        assert not report.passed
        assert report.violation_excess("v-decay") > 0
        assert report.violation_excess("v-bounds") <= 0
        assert report.violation_excess("w-growth") <= 0

    def test_corrupted_gamma_fails(self, tabuada):
        sys, cert = tabuada
        report = check_assumption_sampled(
            sys, dataclasses.replace(cert, gamma=cert.gamma / 10.0),
            n_samples=2_000, radius=50, seed=0,
        )
        assert not report.passed
        assert report.violation_excess("v-decay") > 0

    @pytest.mark.parametrize("seed", [-1, 2.5, False, None])
    def test_rejects_a_seed_that_is_not_a_nonnegative_integer(self, tabuada, seed):
        sys, cert = tabuada
        with pytest.raises(ValueError, match="^seed "):
            check_assumption_sampled(sys, cert, n_samples=10, radius=50.0, seed=seed)

    @pytest.mark.parametrize("n_samples", [0, -5])
    def test_rejects_an_empty_sample(self, tabuada, n_samples):
        sys, cert = tabuada
        with pytest.raises(ValueError, match="n_samples"):
            check_assumption_sampled(sys, cert, n_samples=n_samples, radius=50.0)

    @pytest.mark.parametrize("n_samples", [2.5, True])
    def test_rejects_a_sample_count_that_is_not_an_integer(self, tabuada, n_samples):
        sys, cert = tabuada
        with pytest.raises(ValueError, match="^n_samples must be an integer >= 1, got "):
            check_assumption_sampled(sys, cert, n_samples=n_samples, radius=50.0)

    @pytest.mark.parametrize("radius", [float("nan"), float("inf"), 0.0])
    def test_rejects_a_radius_outside_the_open_half_line(self, tabuada, radius):
        sys, cert = tabuada
        with pytest.raises(ValueError, match="radius"):
            check_assumption_sampled(sys, cert, n_samples=10, radius=radius)

    def test_nan_certificate_term_fails(self, tabuada):
        import dataclasses

        sys, cert = tabuada
        broken = dataclasses.replace(cert, V=lambda x: float("nan"))
        report = check_assumption_sampled(sys, broken, n_samples=50, radius=50.0)
        assert not report.passed
        assert report.max_violation["v-bounds"] == math.inf
        assert report.max_violation["v-decay"] == math.inf


def _output_feedback_loop():
    """A designed dynamic output-feedback LTI loop (n_x = 3, n_e = 2)."""
    plant = LtiPlant(A=[[0.0, 1.0], [-2.0, -3.0]], B=[[0.0], [1.0]], C=[[1.0, 0.0]])
    ctrl = LtiController(A=[[-3.0]], B=[[1.0]], C=[[-1.5]], D=[[-0.5]])
    clm = assemble(plant, ctrl)
    cert = extract_assumption(clm, design_certificate(clm))
    return lti_loop(plant, ctrl, cert), cert


CHECKED_LOOPS = {
    "lorenz": lorenz_loop,
    "lti-output-feedback": _output_feedback_loop,
    "tabuada": tabuada_loop,
}

# check_assumption_sampled(n_samples=300, radius=20.0, seed=3) per loop:
# n_skipped, then per inequality max_violation and worst_point (x, e) as
# float.hex, recorded with the np.linalg.norm / @ forms of the checker and
# of the certificate terms.
PINNED_CHECKS = {
    "lorenz": (
        0,
        {
            "v-bounds": (
                "-0x1.85b21937d0000p-4",
                ["-0x1.dd85bcc6e625bp-5", "-0x1.1c8b97206bb7ap+3", "0x1.a0b807ed44e79p+2"],
                ["-0x1.9f4707d66dfdap+3"],
            ),
            "v-decay": (
                "0x1.b00eeef392829p+15",
                ["-0x1.d6a573ad0bdf8p+3", "0x1.64c81494ab493p+3", "0x1.3da52500e11a7p+2"],
                ["-0x1.76449deb1fed6p-3"],
            ),
            "w-growth": (
                "0x1.e7fbc00000000p-27",
                ["0x1.efc5f89cfa3c4p+3", "-0x1.2610f69fa6e3ap+3", "0x1.e07fb674e145fp+2"],
                ["0x1.120587a4658bfp+2"],
            ),
        },
    ),
    "lti-output-feedback": (
        0,
        {
            "v-bounds": (
                "-0x1.dd8120af5aeb8p+1",
                ["-0x1.8d9d923bf807ap-1", "0x1.05172600d455fp+2", "0x1.9e4c3743c0677p+0"],
                ["-0x1.ec85b8b579873p+1", "-0x1.9974977957ca1p+2"],
            ),
            "v-decay": (
                "-0x1.64f3d3cd12420p+6",
                ["0x1.0d87249ef7925p+0", "0x1.1d75722939e52p+2", "-0x1.5107503dfd6e4p+3"],
                ["-0x1.f4b9ca1414766p+3", "0x1.033fa589d2052p+2"],
            ),
            "w-growth": (
                "-0x1.e4a9a5faac140p+0",
                ["0x1.6f47e1836ac6ap+3", "0x1.3781180d70b8bp+3", "0x1.9467cb449c74fp+3"],
                ["-0x1.5358dd9874356p-2", "-0x1.8a250d4df9f34p+0"],
            ),
        },
    ),
    "tabuada": (
        0,
        {
            "v-bounds": (
                "-0x1.7371aed180000p-10",
                ["-0x1.100fc84df27eep+3", "-0x1.a808b2bb55ebbp+2"],
                ["-0x1.d54db1a890fd9p-5", "0x1.e97476eac10d6p+1"],
            ),
            "v-decay": (
                "-0x1.bfbfc8100f1c3p+6",
                ["0x1.4f89d925cfd82p+1", "0x1.4eccb35910b0ep+2"],
                ["-0x1.d93466d781251p-4", "-0x1.b2ee0d904bbaap-1"],
            ),
            "w-growth": (
                "-0x1.275adddebafc0p+0",
                ["0x1.4111bd1a4bd2cp+3", "0x1.c7aa37dfb0d26p+2"],
                ["-0x1.34d106cff93a6p+0", "0x1.16ad096380f8ap+3"],
            ),
        },
    ),
}


class TestCheckerReproducibility:
    @pytest.mark.parametrize("name", sorted(PINNED_CHECKS))
    def test_matches_pinned_report(self, name):
        sys, cert = CHECKED_LOOPS[name]()
        report = check_assumption_sampled(sys, cert, n_samples=300, radius=20.0, seed=3)
        n_skipped, pinned = PINNED_CHECKS[name]
        assert report.n_skipped == n_skipped
        for key, (violation, x, e) in pinned.items():
            assert float(report.max_violation[key]).hex() == violation
            worst_x, worst_e = report.worst_point[key]
            assert [float(v).hex() for v in worst_x] == x
            assert [float(v).hex() for v in worst_e] == e
