import dataclasses
import math
import struct
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from etclab import (
    AssumptionReport,
    Certificate,
    ClosedLoopSystem,
    DesignInfeasibleError,
    DimensionError,
    LmiCertificate,
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
from etclab.systems import (
    _CHUNK,
    BUILTIN_LOOPS,
    TABUADA_A,
    TABUADA_B,
    TABUADA_EPS2,
    TABUADA_K,
    lti_loop_from_matrices,
    tabuada_matrices,
)
from oracles import check_assumption_sampled_reference, lorenz_numpy_scalar_terms


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


# The standard Lorenz parameters and a set with no integer coefficient, each
# with its loop, certificate and numpy-scalar reference terms.
_LORENZ_PAIRS = [
    (lorenz_loop(*p), lorenz_numpy_scalar_terms(*p))
    for p in ((10.0, 28.0, 8.0 / 3.0, 2.0, 30.0), (1.5, 0.3, 2.1, 1.1, 3.7))
]

# Raw float64 bit patterns, the special values, and normals scaled over 1e+-160.
_DOUBLES = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, math.inf,
                     -math.inf, math.nan, 1.7976931348623157e308, -1.7976931348623157e308)),
    st.builds(lambda m, k: m * 10.0**k, st.floats(-10.0, 10.0), st.integers(-160, 160)),
)


class TestLorenzLoop:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(z=st.lists(_DOUBLES, min_size=4, max_size=4), which=st.sampled_from((0, 1)))
    def test_flows_and_h_keep_the_numpy_scalar_bits(self, z, which):
        # f and g get the simulator's lists of Python floats, H its array view:
        # every result has the reference's bits, NaN positions alike, and none
        # of them warns.
        (sys, cert), (f, g, H) = _LORENZ_PAIRS[which]
        z = np.array(z)
        x, e = z[:3], z[3:]
        with np.errstate(all="ignore"):
            want = (f(x, e), g(x, e), np.array([H(x)]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            xs, es = x.tolist(), e.tolist()
            got = (np.array(sys.f(xs, es)), np.array(sys.g(xs, es)), np.array([cert.H(x)]))
        for w, v in zip(want, got):
            assert (v.dtype, v.shape) == (w.dtype, w.shape)
            nan = np.isnan(w)
            assert np.array_equal(np.isnan(v), nan)
            assert v[~nan].tobytes() == w[~nan].tobytes()

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
        assert np.all(np.asarray(sys.f([0.0] * 3, [0.0])) == 0.0)
        assert np.all(np.asarray(sys.g([0.0] * 3, [0.0])) == 0.0)

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


# Fixed one-state inputs (x, e) per builtin loop, the last one far out.
ONE_STATE_INPUTS = {
    "tabuada": [((0.3, -1.7), (2.5, 0.125)), ((-12.0, 7.75), (1e-3, -4.0)),
                ((1e150, -3e149), (0.0, 2e-300))],
    "lorenz": [((0.3, -1.7, 2.2), (2.5,)), ((-12.0, 7.75, 30.5), (-1e-3,)),
               ((1e100, -3e99, 5e98), (0.0,))],
}

# float.hex of every certificate term and both flows at ONE_STATE_INPUTS, called on
# one state as the simulator, the trigger and the R monitor call them; the alphas
# at s = |x|.  Recorded before the certificates took column blocks.
PINNED_ONE_STATE = {
    "tabuada": [
        {"V": "0x1.6c874aec5a1c1p+3", "W": "0x1.4066560954a8fp+1", "H": "0x1.19e408c7dc837p+1",
         "delta": "0x0.0p+0", "y_of_x": ["0x1.3333333333333p-2", "-0x1.b333333333333p+0"],
         "alpha": "0x1.036113404ea4ap+1", "alpha_lower": "0x1.166197f63276cp+3",
         "alpha_upper": "0x1.4e5d0ee2b6071p+4",
         "f": ["-0x1.b333333333333p+0", "0x1.b333333333333p+1"],
         "g": ["0x1.b333333333333p+0", "-0x1.b333333333333p+1"]},
        {"V": "0x1.56a5ef29eb9edp+9", "W": "0x1.0000008637bcep+2", "H": "0x1.1ad7bc01366b8p+3",
         "delta": "0x0.0p+0", "y_of_x": ["-0x1.8000000000000p+3", "0x1.f000000000000p+2"],
         "alpha": "0x1.1586666666667p+7", "alpha_lower": "0x1.29db3bb25ed1fp+9",
         "alpha_upper": "0x1.65c14e7e7bf33p+10",
         "f": ["0x1.f000000000000p+2", "0x1.4404189374bc7p+4"],
         "g": ["-0x1.f000000000000p+2", "-0x1.4404189374bc7p+4"]},
        {"V": "0x1.be482e3361485p+998", "W": "0x0.0p+0", "H": "0x1.dc7b48e47567ep+497",
         "delta": "0x0.0p+0", "y_of_x": ["0x1.38d352e5096afp+498", "-0x1.7763fd12d819fp+496"],
         "alpha": "0x1.1b55abdb00f15p+996", "alpha_lower": "0x1.30177621acb78p+998",
         "alpha_upper": "0x1.6d3e890c4db3cp+999",
         "f": ["-0x1.7763fd12d819fp+496", "-0x1.b5f4a740a6c8ep+497"],
         "g": ["0x1.7763fd12d819fp+496", "0x1.b5f4a740a6c8ep+497"]},
    ],
    "lorenz": [
        {"V": "0x1.d028f5c28f5c3p+7", "W": "0x1.4000000000000p+1", "H": "0x1.4000000000000p+4",
         "delta": "0x1.cccccccccccccp-1", "y_of_x": ["0x1.3333333333333p-2"],
         "alpha": "0x1.38ccccccccccdp+6", "alpha_lower": "0x1.f47ae147ae148p+3",
         "alpha_upper": "0x1.d533333333333p+7",
         "f": ["-0x1.4000000000000p+4", "-0x1.1b4e81b4e81b5p+6", "-0x1.981b4e81b4e82p+2"],
         "g": ["0x1.4000000000000p+4"]},
        {"V": "0x1.d4b5800000000p+14", "W": "0x1.0624dd2f1a9fcp-10", "H": "0x1.8b00000000000p+7",
         "delta": "0x1.6800000000000p+10", "y_of_x": ["-0x1.8000000000000p+3"],
         "alpha": "0x1.6279000000001p+13", "alpha_lower": "0x1.1b94000000001p+11",
         "alpha_upper": "0x1.09dac00000000p+15",
         "f": ["0x1.8b00000000000p+7", "0x1.6e4756b2dbd19p+8", "-0x1.5caaaaaaaaaaap+7"],
         "g": ["-0x1.8b00000000000p+7"]},
        {"V": "0x1.8f3df41a91d69p+666", "W": "0x0.0p+0", "H": "0x1.db7b95d11bdacp+335",
         "delta": "0x1.a20df0dcd3af0p+667", "y_of_x": ["0x1.249ad2594c37dp+332"],
         "alpha": "0x1.c8b9786c2224fp+667", "alpha_lower": "0x1.6d612d234e83fp+665",
         "alpha_upper": "0x1.568b1a51199bbp+669",
         "f": ["-0x1.db7b95d11bdacp+335", "-0x1.0b8e0acac4eaep+660", "-0x1.9155103027606p+662"],
         "g": ["0x1.db7b95d11bdacp+335"]},
    ],
}


class TestOneStateBits:
    """One-state calls of the builtin terms and flows keep their recorded bits and types."""

    @pytest.mark.parametrize("name", sorted(PINNED_ONE_STATE))
    def test_terms_and_flows_match_their_pins(self, name):
        sys, cert = {"tabuada": tabuada_loop, "lorenz": lorenz_loop}[name]()
        for (xs, es), pinned in zip(ONE_STATE_INPUTS[name], PINNED_ONE_STATE[name]):
            x, e = np.array(xs), np.array(es)
            s = math.sqrt(x.dot(x))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = {"V": cert.V(x), "W": cert.W(e), "H": cert.H(x),
                       "delta": cert.delta(cert.y_of_x(x)), "alpha": cert.alpha(s),
                       "alpha_lower": cert.alpha_lower(s), "alpha_upper": cert.alpha_upper(s)}
                vectors = {"y_of_x": cert.y_of_x(x), "f": sys.f(x, e), "g": sys.g(x, e)}
                lists = (sys.f(list(xs), list(es)), sys.g(list(xs), list(es)))
            for key, value in got.items():
                assert np.shape(value) == () and float(value).hex() == pinned[key], key
                # Lorenz V keeps numpy's ** (a float ** raises past 1.3e154).
                want = np.float64 if (name, key) == ("lorenz", "V") else float
                assert type(value) is want, key
            for key, value in vectors.items():
                assert [float(v).hex() for v in value] == pinned[key], key
            assert [[float(v).hex() for v in flow] for flow in lists] == [
                pinned["f"], pinned["g"]]


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

    Y_OF_X_SIZE = (r"^y_of_x of certificate 'lti-quadratic' returned shape \({}\) on one state, "
                   r"but \({}\) is needed$")

    def test_output_of_the_wrong_size_is_named(self):
        # Unchecked, the check passes and simulate runs to the horizon with 7 jumps,
        # delta reading a 2-vector where the loop has one output.
        sys, cert = _output_feedback_loop()
        broken = dataclasses.replace(cert, y_of_x=lambda x: x[:2], lti_form=None)
        match = self.Y_OF_X_SIZE.format("2,", "1,")
        with pytest.raises(DimensionError, match=match):
            check_assumption_sampled(sys, broken, n_samples=200)
        T = 0.5 * masp(cert.gamma, cert.L)
        with pytest.raises(DimensionError, match=match):
            simulate(sys, broken, TriggerConfig("output-feedback", T=T),
                     HybridState(np.ones(3), np.zeros(2), 0.0),
                     SimSettings(step=T / 10.0, horizon_t=2.0))

    def test_lti_loop_rejects_an_output_of_the_wrong_size(self):
        plant = LtiPlant(A=TABUADA_A, B=TABUADA_B, C=np.eye(2))
        ctrl = LtiController(D=TABUADA_K)
        clm = assemble(plant, ctrl)
        cert = extract_assumption(clm, design_certificate(clm))
        broken = dataclasses.replace(cert, y_of_x=lambda x: float(x[0]), lti_form=None)
        with pytest.raises(DimensionError, match=self.Y_OF_X_SIZE.format("", "2,")):
            lti_loop(plant, ctrl, broken)


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

    def test_samples_inside_the_skip_band_skip_the_w_check(self, tabuada):
        # At radius 1e-6 every |e| lies below the skip band 1e-6 max(1, radius),
        # so W's finite-difference gradient is never taken.
        sys, cert = tabuada
        report = check_assumption_sampled(sys, cert, n_samples=200, radius=1e-6, seed=0)
        assert report.n_skipped == report.n_samples == 200
        assert report.max_violation["w-growth"] == 0.0
        assert report.worst_point["w-growth"] is None
        assert report.passed, report.summary()

    def test_nan_certificate_term_fails(self, tabuada):
        import dataclasses

        sys, cert = tabuada
        broken = dataclasses.replace(cert, V=lambda x: float("nan"), columns=False)
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

# check_assumption_sampled(n_samples=300, radius=20.0, seed=3) per loop on
# undeclared copies (``_per_sample``), whose callables the one evaluator calls
# once per column: n_skipped, then per inequality max_violation and
# worst_point (x, e) as float.hex.  Re-recorded when the checker began to draw
# each chunk of samples as one block (``uniform_ball(rng, dim, radius, n)``),
# which moved every sample; the verdicts and skips did not move.
PINNED_CHECKS = {
    "lorenz": (
        0,
        {
            "v-bounds": (
                "-0x1.883cd8d720000p-4",
                ["-0x1.df13cb45228e9p-5", "0x1.013e2180b8224p+4", "0x1.40f39f92806a5p+3"],
                ["0x1.6db2722dace02p+1"],
            ),
            "v-decay": (
                "0x1.3e4e17bb423f2p+15",
                ["0x1.81714683a3bccp+2", "0x1.fdace212c776cp+3", "-0x1.c3b1e1bc3cde9p+0"],
                ["-0x1.8c0aeef7ef385p-1"],
            ),
            "w-growth": (
                "0x1.3715600000000p-26",
                ["0x1.66bafa65587efp+3", "-0x1.16d31cdab562ep+3", "-0x1.1995c62a08419p+3"],
                ["0x1.0b6f35890f07cp+2"],
            ),
        },
    ),
    "lti-output-feedback": (
        0,
        {
            "v-bounds": (
                "-0x1.efe0868792000p-6",
                ["0x1.a0fbb002e6431p+0", "-0x1.3a8ef8cea7278p+3", "-0x1.5d8084fcaf6fbp+0"],
                ["0x1.a9ed6feb6e40bp+1", "0x1.8da6c4758dc5ep+0"],
            ),
            "v-decay": (
                "-0x1.cfbf21db2f740p+6",
                ["-0x1.a3c2e8d465549p+2", "-0x1.6eccffc27cafcp+2", "0x1.e369faf6830b4p+2"],
                ["0x1.619a57a35941ep+3", "-0x1.25dc15187f2c9p+2"],
            ),
            "w-growth": (
                "-0x1.bd527f6bd54e0p+0",
                ["0x1.5177e46b5cf1ep+3", "0x1.1e38200737b48p+3", "0x1.73945d9aad028p+3"],
                ["-0x1.37cd5488d9c22p-2", "-0x1.6a26d694fa55bp+0"],
            ),
        },
    ),
    "tabuada": (
        0,
        {
            "v-bounds": (
                "-0x1.bbb8a23000000p-14",
                ["-0x1.77bbfdc16641bp+2", "-0x1.2644082f749d7p+2"],
                ["-0x1.607d3655457f1p-4", "-0x1.26424e01e4867p+4"],
            ),
            "v-decay": (
                "-0x1.35de3454c5830p+8",
                ["-0x1.12bc8e20fe285p+2", "0x1.7a83ecdabd2bep+3"],
                ["-0x1.14a618fa04337p-2", "-0x1.7390eef78e4d8p-1"],
            ),
            "w-growth": (
                "-0x1.511522540f240p-3",
                ["0x1.3e61402ecc3e9p+1", "0x1.076389fbf2f09p+0"],
                ["-0x1.5a64eb5fa7a83p-2", "0x1.f0bbe53f4e56bp+0"],
            ),
        },
    ),
}


# The same checks on the declared loops, one call per chunk: the same skips and worst
# points, and these max_violation values (the column sums round differently from one-state dots).
PINNED_COLUMN_VIOLATIONS = {
    "lorenz": {"v-bounds": "-0x1.883cd8d720000p-4", "v-decay": "0x1.3e4e17bb423f2p+15",
               "w-growth": "0x1.3715600000000p-26"},
    "lti-output-feedback": {"v-bounds": "-0x1.efe0868792000p-6",
                            "v-decay": "-0x1.cfbf21cc3c090p+6",
                            "w-growth": "-0x1.bd527f6bd54e0p+0"},
    "tabuada": {"v-bounds": "-0x1.bbb8a23000000p-14", "v-decay": "-0x1.35de3454c5830p+8",
                "w-growth": "-0x1.5115226aa5000p-3"},
}


def _per_sample(sys, cert):
    """Undeclared copies of a loop and its certificate: the checker calls them once per column."""
    return dataclasses.replace(sys, columns=False), dataclasses.replace(cert, columns=False)


class TestCheckerReproducibility:
    @staticmethod
    def _assert_pinned(report, name, violations):
        n_skipped, pinned = PINNED_CHECKS[name]
        assert report.n_skipped == n_skipped
        for key, (_, x, e) in pinned.items():
            assert float(report.max_violation[key]).hex() == violations[key], key
            worst_x, worst_e = report.worst_point[key]
            assert [float(v).hex() for v in worst_x] == x
            assert [float(v).hex() for v in worst_e] == e

    @pytest.mark.parametrize("name", sorted(PINNED_CHECKS))
    def test_matches_pinned_report(self, name):
        sys, cert = _per_sample(*CHECKED_LOOPS[name]())
        report = check_assumption_sampled(sys, cert, n_samples=300, radius=20.0, seed=3)
        self._assert_pinned(report, name, {k: v[0] for k, v in PINNED_CHECKS[name][1].items()})

    @pytest.mark.parametrize("name", sorted(PINNED_COLUMN_VIOLATIONS))
    def test_column_path_matches_pinned_report(self, name):
        sys, cert = CHECKED_LOOPS[name]()
        assert sys.columns and cert.columns
        report = check_assumption_sampled(sys, cert, n_samples=300, radius=20.0, seed=3)
        self._assert_pinned(report, name, PINNED_COLUMN_VIOLATIONS[name])


def _lqr_loop(seed):
    """A random LQR-stabilised LTI loop and its designed certificate.

    Seeds cycle through static state feedback and an observer-based output
    feedback on 2, 3 and 4 plant states; a draw that the Riccati solver or
    the design rejects is redrawn from the same generator.
    """
    output_feedback, n = divmod(seed % 6, 3)
    n += 2
    rng = np.random.default_rng(seed)
    while True:
        m = int(rng.integers(1, 3))
        A, B = rng.standard_normal((n, n)), rng.standard_normal((n, m))
        try:
            K = B.T @ scipy.linalg.solve_continuous_are(A, B, np.eye(n), np.eye(m))
            if output_feedback:
                C = rng.standard_normal((int(rng.integers(1, 3)), n))
                Lo = scipy.linalg.solve_continuous_are(
                    A.T, C.T, np.eye(n), np.eye(C.shape[0])) @ C.T
                plant = LtiPlant(A=A, B=B, C=C)
                ctrl = LtiController(A=A - B @ K - Lo @ C, B=Lo, C=-K, D=np.zeros((m, len(C))))
            else:
                plant, ctrl = LtiPlant(A=A, B=B, C=np.eye(n)), LtiController(D=-K)
            clm = assemble(plant, ctrl)
            cert = extract_assumption(clm, design_certificate(clm))
        except (np.linalg.LinAlgError, ValueError, DesignInfeasibleError):
            continue
        return lti_loop(plant, ctrl, cert), cert


def _assert_matches_reference(report, ref):
    """Verdicts, skips and worst points equal; v-bounds bit for bit; decay within 1e-8 scale."""
    assert report.passed == ref.passed
    assert report.n_skipped == ref.n_skipped
    for key in AssumptionReport.INEQUALITIES:
        got, want = report.worst_point[key], ref.worst_point[key]
        assert (got is None) == (want is None), key
        if want is not None:
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), key
    assert report.max_violation["v-bounds"] == ref.max_violation["v-bounds"]
    assert report.scale["v-bounds"] == ref.scale["v-bounds"]
    for key in ("v-decay", "w-growth"):
        got, want = report.max_violation[key], ref.max_violation[key]
        if math.isinf(want):
            assert got == want, key
        else:
            assert abs(got - want) <= 1e-8 * ref.scale[key], key


def _assert_columns_agree(column, other):
    """Column path against another report: verdicts, skips and worst points equal,
    every max_violation within 1e-8 of its scale (an infinite one equal)."""
    assert column.passed == other.passed
    assert column.n_skipped == other.n_skipped
    for key in AssumptionReport.INEQUALITIES:
        got, want = column.worst_point[key], other.worst_point[key]
        assert (got is None) == (want is None), key
        if want is not None:
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), key
        got, want = column.max_violation[key], other.max_violation[key]
        if math.isinf(want):
            assert got == want, key
        else:
            assert abs(got - want) <= 1e-8 * other.scale[key], key


def _assert_same_bits(report, other):
    """Two reports equal bit for bit: verdicts, skips, max_violation, scales and worst points."""
    assert report.passed == other.passed
    assert report.n_skipped == other.n_skipped
    for key in AssumptionReport.INEQUALITIES:
        assert float(report.max_violation[key]).hex() == float(other.max_violation[key]).hex(), key
        assert float(report.scale[key]).hex() == float(other.scale[key]).hex(), key
        got, want = report.worst_point[key], other.worst_point[key]
        assert (got is None) == (want is None), key
        if want is not None:
            for a, b in zip(got, want):
                assert [float(v).hex() for v in a] == [float(v).hex() for v in b], key


def _both(sys, cert, **kw):
    """The checker's report on undeclared copies and the reference's, on the same draws.

    The undeclared copies are called once per column.  A loop and certificate that
    declare columns are also checked as they are, one call per chunk, which must agree
    with both (``_assert_columns_agree``).
    """
    report = check_assumption_sampled(*_per_sample(sys, cert), **kw)
    ref = check_assumption_sampled_reference(sys, cert, **kw)
    if sys.columns and cert.columns:
        column = check_assumption_sampled(sys, cert, **kw)
        _assert_columns_agree(column, report)
        _assert_columns_agree(column, ref)
    return report, ref


def _idle_loop():
    """f = 0 and g = 0 under a certificate whose decay right sides are all 0."""
    sys = ClosedLoopSystem(2, 2, f=lambda x, e: np.zeros(2), g=lambda x, e: np.zeros(2))
    cert = Certificate(
        V=lambda x: float(x.dot(x)), W=lambda e: math.sqrt(e.dot(e)), H=lambda x: 0.0,
        delta=lambda y: 0.0, alpha=lambda s: 0.0, gamma=0.0, L=0.0,
        alpha_lower=lambda s: 0.5 * s * s, alpha_upper=lambda s: 2.0 * s * s,
        n_x=2, n_e=2, n_y=2,
    )
    return sys, cert


def _huge_mu_loop():
    """The planar benchmark's designed P under the feasible gain mu = 1e308 (gamma = 1e154)."""
    clm = tabuada_matrices()
    P = design_certificate(clm, eps1=0.0, eps2=TABUADA_EPS2).P
    cert = extract_assumption(clm, LmiCertificate(P=P, eps1=0.0, eps2=TABUADA_EPS2, mu=1e308))
    return lti_loop_from_matrices(clm), cert


class TestCheckerAgainstReference:
    """The directional-difference checker against the coordinate-wise one.

    Both draw the same points, so every verdict, skip count and worst point
    must agree; v-bounds reads no derivative and must agree bit for bit, and
    the decay excesses may differ only by rounding, far inside RTOL = 1e-5.
    """

    @pytest.mark.parametrize("name", sorted(CHECKED_LOOPS))
    def test_checked_loops(self, name):
        _assert_matches_reference(
            *_both(*CHECKED_LOOPS[name](), n_samples=1_000, radius=20.0, seed=5))

    def test_stiff_observer_loop(self, stiff_observer_loop):
        plant, ctrl = stiff_observer_loop
        clm = assemble(plant, ctrl)
        cert = extract_assumption(clm, design_certificate(clm))
        _assert_matches_reference(
            *_both(lti_loop(plant, ctrl, cert), cert, n_samples=500, radius=10.0, seed=152108349))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_lqr_loops(self, seed):
        _assert_matches_reference(*_both(*_lqr_loop(seed), n_samples=500, radius=10.0, seed=seed))

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_small_chunks_keep_the_first_worst_point(self, monkeypatch, chunk):
        monkeypatch.setattr("etclab.systems._CHUNK", chunk)
        for name in sorted(CHECKED_LOOPS):
            _assert_matches_reference(
                *_both(*CHECKED_LOOPS[name](), n_samples=100, radius=20.0, seed=1))

    def test_one_sample_past_a_chunk(self, tabuada):
        _assert_matches_reference(*_both(*tabuada, n_samples=_CHUNK + 1, radius=50.0, seed=2))


class TestCheckerEdgeCases:
    def test_zero_flow_gives_an_exact_zero(self):
        # 0/|0| would be NaN (and a RuntimeWarning, an error under this
        # suite's filter); a zero direction has derivative exactly 0.
        sys, cert = _idle_loop()
        report, ref = _both(sys, cert, n_samples=_CHUNK + 1, radius=5.0, seed=0)
        assert report.max_violation["v-decay"] == report.max_violation["w-growth"] == 0.0
        assert report.passed
        _assert_matches_reference(report, ref)  # ties keep the first sample

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("flow, key", [("f", "v-decay"), ("g", "w-growth")])
    def test_nonfinite_flow_counts_as_infinite(self, tabuada, flow, key, value):
        sys, cert = tabuada
        broken = dataclasses.replace(sys, **{flow: lambda x, e: np.full(2, value)}, columns=False)
        kw = dict(n_samples=50, radius=50.0, seed=0)
        report = check_assumption_sampled(broken, cert, **kw)  # warning-free
        with np.errstate(invalid="ignore"):  # the reference's dot of a gradient with inf warns
            ref = check_assumption_sampled_reference(broken, cert, **kw)
        assert report.max_violation[key] == math.inf
        assert not report.passed
        _assert_matches_reference(report, ref)

    def test_overflowed_sides_give_an_infinite_excess(self, lorenz):
        # Far out V and both bounds overflow, so every excess is inf - inf = NaN,
        # an infinite violation; no side is finite, so the scale stays 1.
        report = check_assumption_sampled(*lorenz, n_samples=50, radius=1e200, seed=0)
        assert report.max_violation["v-bounds"] == math.inf
        assert report.scale["v-bounds"] == 1.0
        assert report.violation_excess("v-bounds") == math.inf
        assert not report.passed
        assert report.summary().splitlines()[0] == (
            "v-bounds: max violation inf (tol 1e-05) VIOLATED")

    def test_overflowed_right_side_holds(self):
        # mu = 1e308 is feasible, but gamma^2 W(e)^2 overflows to +inf for
        # |e| past about 1.34: the v-decay excess is -inf there, which holds,
        # and the tolerance scales with the finite sides only.
        report, ref = _both(*_huge_mu_loop(), n_samples=200, radius=50.0, seed=0)
        assert report.passed, report.summary()
        assert report.max_violation["v-decay"] <= 0.0
        assert math.isfinite(report.scale["v-decay"])
        _assert_matches_reference(report, ref)

    def test_nan_on_some_samples_leaves_the_scale_finite(self, tabuada):
        sys, cert = tabuada
        V = cert.V
        broken = dataclasses.replace(cert, V=lambda x: math.nan if x[0] > 0 else V(x),
                                     columns=False)
        report, ref = _both(sys, broken, n_samples=200, radius=50.0, seed=0)
        assert report.max_violation["v-bounds"] == math.inf
        for key in AssumptionReport.INEQUALITIES:
            assert math.isfinite(report.scale[key]), key
        _assert_matches_reference(report, ref)


def _rows(x, k):
    """Zeros with k rows: k values for one state, k rows for a column block."""
    return np.zeros((k,) + np.shape(x)[1:])


class TestColumnPath:
    """The checker calls on column blocks only where the loop and the certificate both
    declare them, once per term, flow and difference side per chunk, and once per column
    otherwise; a flow, term or output of the wrong shape raises DimensionError naming it
    either way."""

    TERMS = ("V", "W", "H", "delta", "alpha", "alpha_lower", "alpha_upper", "y_of_x")

    @pytest.mark.parametrize("loop_columns, cert_columns",
                             [(True, True), (True, False), (False, True), (False, False)])
    def test_calls_per_chunk_only_when_both_declare(self, monkeypatch, tabuada, loop_columns,
                                                    cert_columns):
        monkeypatch.setattr("etclab.systems._CHUNK", 7)  # 50 samples in 8 chunks
        sys, cert = tabuada
        calls = dict.fromkeys(("f", "g") + self.TERMS, 0)

        def spy(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)

            return counted

        sys = dataclasses.replace(sys, f=spy("f", sys.f), g=spy("g", sys.g), columns=loop_columns)
        cert = dataclasses.replace(cert, columns=cert_columns,
                                   **{k: spy(k, getattr(cert, k)) for k in self.TERMS})
        report = check_assumption_sampled(sys, cert, n_samples=50, radius=50.0, seed=0)
        assert report.n_skipped == 0
        # V and W: the values, then both sides of one difference; y_of_x also once per
        # check, on the origin (check_pairing).
        per = 8 if loop_columns and cert_columns else 50
        assert calls == {"f": per, "g": per, "V": 3 * per, "W": 3 * per, "H": per,
                         "delta": per, "alpha": per, "alpha_lower": per, "alpha_upper": per,
                         "y_of_x": per + 1}
        if not (loop_columns and cert_columns):
            # A mixed or undeclared pair is called per column, as _per_sample's are: same bits.
            undeclared = check_assumption_sampled(*_per_sample(*tabuada), n_samples=50,
                                                  radius=50.0, seed=0)
            _assert_same_bits(report, undeclared)

    def test_builtin_loops_declare_columns(self):
        for build in (tabuada_loop, lorenz_loop, _output_feedback_loop):
            sys, cert = build()
            assert sys.columns and cert.columns

    def test_never_reads_lti_form(self, tabuada):
        class Unreadable:
            def __getattr__(self, name):
                raise AssertionError(f"lti_form.{name} read")

            def __iter__(self):
                raise AssertionError("lti_form unpacked")

            def __getitem__(self, i):
                raise AssertionError("lti_form indexed")

        sys, cert = tabuada
        kw = dict(n_samples=100, radius=20.0, seed=4)
        want = check_assumption_sampled(sys, cert, **kw)
        got = check_assumption_sampled(sys, dataclasses.replace(cert, lti_form=Unreadable()), **kw)
        assert got.max_violation == want.max_violation and got.scale == want.scale

    @pytest.mark.parametrize("columns", [False, True])
    @pytest.mark.parametrize("flow, k", [("f", 3), ("g", 1)])
    def test_flow_of_the_wrong_size_is_named(self, tabuada, columns, flow, k):
        # Unnamed before: "cannot reshape array of size 30 into shape (10,2)".
        sys, cert = tabuada
        broken = dataclasses.replace(sys, stacked_matrix=None, columns=columns,
                                     **{flow: lambda x, e: _rows(x, k)})
        shape = rf"\({k}, 10\), but \(2, 10\)"  # one block form, declared or not
        with pytest.raises(DimensionError, match=rf"^{flow} of loop 'lti-sf-tabuada', one state "
                           rf"per (column|row), returned shape {shape} is needed$"):
            check_assumption_sampled(broken, dataclasses.replace(cert, columns=columns),
                                     n_samples=10)

    @pytest.mark.parametrize("columns", [False, True])
    def test_term_of_the_wrong_shape_is_named(self, tabuada, columns):
        # Unnamed before: "only 0-dimensional arrays can be converted to Python scalars".
        sys, cert = tabuada
        broken = dataclasses.replace(cert, H=lambda x: _rows(x, 2), columns=columns)
        shape = r"\(2, 10\), but \(10,\)"  # one block form, declared or not
        with pytest.raises(DimensionError, match=rf"^H of certificate 'lti-quadratic'.* "
                           rf"returned shape {shape} is needed$"):
            check_assumption_sampled(dataclasses.replace(sys, columns=columns), broken,
                                     n_samples=10)

    def test_output_block_of_the_wrong_shape_is_named(self, tabuada):
        # y_of_x gives n_y outputs on one state, so check_pairing passes, but not on a block.
        sys, cert = tabuada
        y_of_x = cert.y_of_x
        broken = dataclasses.replace(cert, y_of_x=lambda x: y_of_x(x) if x.ndim == 1 else x[:1])
        with pytest.raises(DimensionError, match=r"^y_of_x of certificate 'lti-quadratic', one "
                           r"state per column, returned shape \(1, 10\), but \(2, 10\) is "
                           r"needed$"):
            check_assumption_sampled(sys, broken, n_samples=10)

    def test_one_state_term_under_a_declaration_is_named(self, tabuada):
        sys, cert = tabuada
        with pytest.raises(DimensionError, match=r"^H of certificate 'lti-quadratic', one state "
                           r"per column, returned shape \(\), but \(10,\) is needed$"):
            check_assumption_sampled(sys, dataclasses.replace(cert, H=lambda x: 0.0),
                                     n_samples=10)
        one_state = dataclasses.replace(sys, f=lambda x, e: np.zeros(2))
        with pytest.raises(DimensionError, match=r"^f of loop 'lti-sf-tabuada', one state "
                           r"per column, returned shape \(2,\), but \(2, 10\) is needed$"):
            check_assumption_sampled(one_state, cert, n_samples=10)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("flow, key", [("f", "v-decay"), ("g", "w-growth")])
    def test_nonfinite_flow_counts_as_infinite(self, tabuada, flow, key, value):
        sys, cert = tabuada
        broken = dataclasses.replace(sys, **{flow: lambda x, e: np.full(np.shape(x), value)})
        kw = dict(n_samples=50, radius=50.0, seed=0)
        report = check_assumption_sampled(broken, cert, **kw)  # warning-free
        assert report.max_violation[key] == math.inf
        assert not report.passed
        _assert_columns_agree(report, check_assumption_sampled(*_per_sample(broken, cert), **kw))

    def test_nan_on_some_columns_leaves_the_scale_finite(self, tabuada):
        sys, cert = tabuada
        V = cert.V
        kw = dict(n_samples=200, radius=50.0, seed=0)
        report = check_assumption_sampled(
            sys, dataclasses.replace(cert, V=lambda x: np.where(x[0] > 0, math.nan, V(x))), **kw)
        one_state = dataclasses.replace(cert, V=lambda x: math.nan if x[0] > 0 else V(x))
        assert report.max_violation["v-bounds"] == math.inf
        for key in AssumptionReport.INEQUALITIES:
            assert math.isfinite(report.scale[key]), key
        _assert_columns_agree(report, check_assumption_sampled(*_per_sample(sys, one_state), **kw))
