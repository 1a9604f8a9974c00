from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from etclab import (
    CertificateError,
    ClosedLoopMatrices,
    DesignInfeasibleError,
    DimensionError,
    LmiCertificate,
    LtiController,
    LtiPlant,
    ZetaParams,
    assemble,
    check_assumption_sampled,
    design_certificate,
    extract_assumption,
    is_positive_definite,
    lmi_residual,
    lti_loop,
    masp,
    solve_lyapunov,
    spectral_norm,
    zeta_time,
)
from etclab import linalg, lti
from etclab.systems import tabuada_matrices
from oracles import cheapest_slack_reference, lmi_schur_residual, periodic_map, slack_grid_design

A = [[0.0, 1.0], [-2.0, 3.0]]
B = [[0.0], [1.0]]
K = [[1.0, -4.0]]


# n_p = 2, n_u = 1, n_y = 1.
_PLANT_2X1X1 = LtiPlant(A=np.zeros((2, 2)), B=np.zeros((2, 1)), C=np.zeros((1, 2)))


@pytest.fixture(scope="module")
def planar_clm():
    return assemble(LtiPlant(A=A, B=B, C=np.eye(2)), LtiController(D=K))


class TestAssemble:
    def test_state_feedback_collapse(self, planar_clm):
        # e = xhat - x, so e' = -x': the true error dynamics, sign included.
        clm = planar_clm
        assert np.allclose(clm.A1, [[0.0, 1.0], [-1.0, -1.0]])
        assert np.array_equal(clm.A2, -clm.A1)
        assert np.allclose(clm.B1, [[0.0, 0.0], [1.0, -4.0]])
        assert np.array_equal(clm.B2, -clm.B1)
        assert np.allclose(clm.Cbar, np.eye(2))

    def test_static_zero_gain_zeroes_first_block_column(self, rng):
        # With D = 0 the ey-columns of B1 vanish (structural zero).
        plant = LtiPlant(A=rng.standard_normal((3, 3)), B=rng.standard_normal((3, 1)),
                         C=rng.standard_normal((1, 3)))
        clm = assemble(plant, LtiController(D=np.zeros((1, 1))))
        assert np.all(clm.B1[:, :1] == 0.0)

    def test_shape_audit_dynamic_controller(self, rng):
        n_p, n_c, n_y, n_u = 3, 2, 1, 1
        plant = LtiPlant(
            A=rng.standard_normal((n_p, n_p)),
            B=rng.standard_normal((n_p, n_u)),
            C=rng.standard_normal((n_y, n_p)),
        )
        ctrl = LtiController(
            A=rng.standard_normal((n_c, n_c)),
            B=rng.standard_normal((n_c, n_y)),
            C=rng.standard_normal((n_u, n_c)),
            D=rng.standard_normal((n_u, n_y)),
        )
        clm = assemble(plant, ctrl)
        n_x, n_e = n_p + n_c, n_y + n_u
        assert clm.A1.shape == (n_x, n_x)
        assert clm.B1.shape == (n_x, n_e)
        assert clm.A2.shape == (n_e, n_x)
        assert clm.B2.shape == (n_e, n_e)
        assert clm.Cbar.shape == (n_y, n_x)
        # Cbar = [C_p 0]
        assert np.allclose(clm.Cbar[:, :n_p], plant.C)
        assert np.all(clm.Cbar[:, n_p:] == 0.0)

    def test_static_gain_is_the_controller_without_state(self, rng):
        # LtiController(D=K) is the explicit controller with empty A, B, C.
        gain = rng.standard_normal((1, 2))
        explicit = LtiController(
            A=np.zeros((0, 0)), B=np.zeros((0, 2)), C=np.zeros((1, 0)), D=gain
        )
        for C in (np.eye(2), rng.standard_normal((2, 2))):
            plant = LtiPlant(A=A, B=B, C=C)
            got, want = assemble(plant, LtiController(D=gain)), assemble(plant, explicit)
            for name in ("A1", "B1", "A2", "B2", "Cbar"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
                assert getattr(got, name).shape == getattr(want, name).shape

    def test_controller_requires_d_and_keywords(self):
        with pytest.raises(TypeError):
            LtiController()
        with pytest.raises(TypeError):
            LtiController([[0.0]], [[0.0]], [[0.0]], [[0.0]])

    def test_dimension_mismatch_names_block(self, rng):
        plant = LtiPlant(A=np.zeros((2, 2)), B=np.zeros((2, 1)), C=np.zeros((1, 2)))
        bad = LtiController(D=np.zeros((1, 2)))  # D is n_u x n_y = 1 x 1
        with pytest.raises(Exception, match="controller D"):
            assemble(plant, bad)

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: LtiPlant(A=np.zeros((2, 3)), B=np.zeros((2, 1)), C=np.zeros((1, 2))),
             DimensionError, "plant A must be square"),
            (lambda: LtiPlant(A=np.zeros((2, 2)), B=np.zeros((3, 1)), C=np.zeros((1, 2))),
             DimensionError, "plant B row count must match A"),
            (lambda: LtiPlant(A=np.zeros((2, 2)), B=np.zeros((2, 1)), C=np.zeros((1, 3))),
             DimensionError, "plant C column count must match A"),
            (lambda: LtiController(A=np.zeros((1, 2)), D=np.zeros((1, 1))),
             DimensionError, "controller A must be square"),
            (lambda: LtiController(A=np.zeros((1, 1)), B=np.zeros((1, 1)), C=np.zeros((1, 2)),
                                   D=np.zeros((1, 1))),
             DimensionError, "controller C column count must match A"),
            (lambda: assemble(_PLANT_2X1X1, LtiController(
                A=np.zeros((1, 1)), B=np.zeros((1, 2)), C=np.zeros((1, 1)), D=np.zeros((1, 1)))),
             DimensionError, "controller B has 2 inputs, expected n_y = 1"),
            (lambda: assemble(_PLANT_2X1X1, LtiController(
                A=np.zeros((1, 1)), B=np.zeros((1, 1)), C=np.zeros((2, 1)), D=np.zeros((1, 1)))),
             DimensionError, "controller C has 2 outputs, expected n_u = 1"),
            (lambda: LmiCertificate(P=np.eye(2), eps1=-1.0, eps2=1.0, mu=1.0),
             CertificateError, "eps1 must be finite and nonnegative"),
            (lambda: LmiCertificate(P=np.eye(2), eps1=0.0, eps2=0.0, mu=1.0),
             CertificateError, "eps2 must be finite and positive"),
            (lambda: design_certificate(tabuada_matrices(), eps1=-1.0, eps2=0.5),
             CertificateError, "eps1 must be finite and nonnegative"),
            # Finite entries whose products overflow: -C A in A2, and B K in A1.
            (lambda: assemble(LtiPlant(A=[[-2.0, 1.0], [-2.0, -3.0]], B=[[0.0], [1.0]],
                                       C=[[-1e308, 0.0]]), LtiController(D=[[0.0]])),
             ValueError, "closed-loop block A2 is not finite: products of the plant and "
                         "controller entries overflow"),
            (lambda: assemble(LtiPlant(A=[[-2.0, 1.0], [-2.0, -3.0]], B=[[0.0], [1e308]],
                                       C=np.eye(2)), LtiController(D=[[2.0, 0.0]])),
             ValueError, "closed-loop block A1 is not finite: products of the plant and "
                         "controller entries overflow"),
        ],
        ids=["plant-A-not-square", "plant-B-rows", "plant-C-columns", "controller-A-not-square",
             "controller-C-columns", "controller-B-inputs", "controller-C-outputs",
             "candidate-eps1", "candidate-eps2", "design-eps1", "output-feedback-overflow",
             "state-feedback-overflow"],
    )
    def test_input_checks_raise_naming_the_input(self, build, error, message):
        with pytest.raises(error) as info:
            build()
        assert type(info.value) is error and str(info.value) == message


def _scalar_clm():
    return ClosedLoopMatrices(
        A1=np.array([[-1.0]]),
        B1=np.array([[0.0]]),
        A2=np.array([[0.0]]),
        B2=np.array([[0.0]]),
        Cbar=np.array([[0.0]]),
    )


class TestLmiResidual:
    def test_scalar_block(self):
        cand = LmiCertificate(P=np.eye(1), eps1=0.0, eps2=1.0, mu=1.0)
        # S = -2 + 1 = -1 and the (2,2) block is -1: residual is -1.
        assert lmi_residual(_scalar_clm(), cand) == pytest.approx(-1.0, abs=1e-12)

    def test_schur_sign_equivalence(self, rng):
        agree = 0
        for _ in range(100):
            n_x, n_e = 3, 2
            clm = ClosedLoopMatrices(
                A1=rng.standard_normal((n_x, n_x)),
                B1=rng.standard_normal((n_x, n_e)),
                A2=rng.standard_normal((n_e, n_x)),
                B2=rng.standard_normal((n_e, n_e)),
                Cbar=rng.standard_normal((1, n_x)),
            )
            m = rng.standard_normal((n_x, n_x))
            cand = LmiCertificate(
                P=m @ m.T + 0.2 * np.eye(n_x),
                eps1=float(rng.uniform(0, 1)),
                eps2=float(rng.uniform(0.01, 1)),
                mu=float(rng.uniform(0.1, 50)),
            )
            block = lmi_residual(clm, cand)
            schur = lmi_schur_residual(clm, cand)
            tol = 1e-9 * max(1.0, abs(block), abs(schur))
            if abs(block) <= tol or abs(schur) <= tol:
                continue  # boundary cases carry no sign information
            assert np.sign(block) == np.sign(schur)
            agree += 1
        assert agree >= 95

    def test_infeasible_candidate(self, planar_clm):
        cand = LmiCertificate(P=np.eye(2), eps1=0.0, eps2=1.0, mu=1e-6)
        assert lmi_residual(planar_clm, cand) > 0.0

    def test_candidate_stores_p_exactly_symmetric(self, planar_clm):
        # Asymmetry within the tolerance is accepted and stored symmetrised once.
        P = design_certificate(planar_clm, eps1=0.0, eps2=0.68).P.copy()
        P[0, 1] += 1e-12
        cand = LmiCertificate(P=P, eps1=0.0, eps2=0.68, mu=17.3495**2)
        assert np.array_equal(cand.P, cand.P.T)
        assert np.array_equal(cand.P, 0.5 * (P + P.T))
        with pytest.raises(ValueError, match="not symmetric"):
            LmiCertificate(P=[[1.0, 1e-3], [0.0, 1.0]], eps1=0.0, eps2=1.0, mu=1.0)

    @pytest.mark.parametrize("p11", [1e308, -1e308])
    def test_p_whose_block_overflows_is_infinitely_infeasible(self, planar_clm, p11):
        # Symmetrizing P keeps its entry; -2 p11 in A1^T P + P A1 overflows, and no
        # warning escapes.
        cand = LmiCertificate(P=[[1.0, 0.0], [0.0, p11]], eps1=0.0, eps2=0.68, mu=1.0)
        assert cand.P[1, 1] == p11
        assert lmi_residual(planar_clm, cand) == np.inf


class TestDesignCertificate:
    def test_planar_benchmark(self, planar_clm):
        cand = design_certificate(planar_clm, eps1=0.0, eps2=0.68)
        scale = max(1.0, spectral_norm(planar_clm.A2.T @ planar_clm.A2) + 0.68, cand.mu)
        assert lmi_residual(planar_clm, cand) <= 1e-7 * scale
        assert np.isfinite(cand.gamma) and cand.gamma > 0
        L = spectral_norm(planar_clm.B2)
        assert L == pytest.approx(4.1231, abs=1e-3)
        assert masp(cand.gamma, L) > 0.0
        assert is_positive_definite(cand.P)

    def test_published_gains_feasible_with_designed_p(self, planar_clm):
        designed = design_certificate(planar_clm, eps1=0.0, eps2=0.68)
        published = LmiCertificate(P=designed.P, eps1=0.0, eps2=0.68, mu=17.3495**2)
        assert lmi_residual(planar_clm, published) <= 0.0
        assert masp(published.gamma, spectral_norm(planar_clm.B2)) == pytest.approx(
            0.0790, abs=5e-4
        )

    def test_scalar_system_against_bruteforce(self):
        clm = ClosedLoopMatrices(
            A1=np.array([[-1.0]]),
            B1=np.array([[1.0]]),
            A2=np.array([[1.0]]),
            B2=np.array([[1.0]]),
            Cbar=np.array([[0.0]]),
        )
        cand = design_certificate(clm, eps1=0.0, eps2=0.1)
        # Closed-form feasibility of the 2x2 block [[s, b], [b, -mu]]:
        # NSD iff s <= mu is irrelevant; use trace/det conditions.
        p = float(cand.P[0, 0])
        s = -2.0 * p + 1.0 + 0.1
        b = p
        assert s - cand.mu <= 1e-12
        assert (-s * cand.mu - b * b) >= -1e-9 * max(1.0, cand.mu)
        # A brute-force grid confirms feasible pairs exist in this region.
        feasible = [
            (pv, mv)
            for pv in np.linspace(0.6, 5.0, 80)
            for mv in np.linspace(0.1, 60.0, 120)
            if (-2 * pv + 1.1) <= 0 and (-(-2 * pv + 1.1) * mv - pv * pv) >= 0
        ]
        assert feasible

    def test_rejects_unstable_loop(self):
        clm = ClosedLoopMatrices(
            A1=np.array([[1.0]]),
            B1=np.array([[1.0]]),
            A2=np.array([[1.0]]),
            B2=np.array([[1.0]]),
            Cbar=np.array([[0.0]]),
        )
        with pytest.raises(DesignInfeasibleError):
            design_certificate(clm, eps1=0.0, eps2=0.1)

    @pytest.mark.parametrize(
        "plant_a, eps2",
        # Finite blocks whose A2^T A2 overflows, and an eps2 whose slack grid does.
        [([[0.0, 1e308], [-2.0, -3.0]], 1e-2), ([[0.0, 1.0], [-2.0, -3.0]], 1e308)],
        ids=["a2-gram", "slack-grid"],
    )
    def test_an_overflowing_right_hand_side_is_infeasible(self, plant_a, eps2):
        clm = assemble(LtiPlant(A=plant_a, B=[[0.0], [1.0]], C=[[1.0, 0.0]]),
                       LtiController(A=[[-1.0]], B=[[1.0]], C=[[-1.0]], D=[[-0.5]]))
        with pytest.raises(DesignInfeasibleError) as info:
            design_certificate(clm, eps1=1e-2, eps2=eps2)
        assert str(info.value) == "A2^T A2 + eps1 Cbar^T Cbar + eps2 I, or 1e3 times its norm, overflows"

    @pytest.mark.parametrize(
        "plant, ctrl",
        # B1 near 1e160 beside a plain A1, and a plant A[1][0] = 1e308 under a controller
        # D = -1e308: either way |B1^T P| passes 1.34e154 at every slack, so its square
        # overflows as a float.
        [
            (dict(A=[[-1.0, 1.0], [-2.0, -3.0]], B=[[0.0], [1e160]], C=[[1.0, 0.0]]),
             dict(A=[[-1.0]], B=[[1.0]], C=[[0.0]], D=[[0.0]])),
            (dict(A=[[0.0, 1.0], [1e308, -3.0]], B=[[0.0], [1.0]], C=[[1.0, 0.0]]),
             dict(A=[[-1.0]], B=[[1.0]], C=[[-1.0]], D=[[-1e308]])),
        ],
        ids=["huge-b1", "huge-coupling"],
    )
    def test_an_overflowing_mu_is_infeasible(self, plant, ctrl):
        clm = assemble(LtiPlant(**plant), LtiController(**ctrl))
        with pytest.raises(DesignInfeasibleError) as info:
            design_certificate(clm)
        assert str(info.value).startswith("mu = |B1^T P|^2 / rho overflows at slack ")

    def test_failing_lyapunov_solve_propagates(self, monkeypatch):
        # An observer-based loop (2 plant + 2 controller states) whose large
        # slacks used to miss a Lyapunov residual bound relative to |q|.
        clm = _observer_loop_with_large_gains()
        cand = design_certificate(clm)
        assert extract_assumption(clm, cand).gamma == pytest.approx(np.sqrt(cand.mu))

        def fails(a, q):
            raise DesignInfeasibleError("residual bound missed")

        monkeypatch.setattr("etclab.lti.solve_lyapunov", fails)
        with pytest.raises(DesignInfeasibleError, match="residual bound missed"):
            design_certificate(clm)

    def test_random_stabilizable_systems(self, rng):
        for _ in range(5):
            n_x, n_e = 3, 2
            a1 = rng.standard_normal((n_x, n_x))
            a1 -= (np.linalg.eigvals(a1).real.max() + 0.5) * np.eye(n_x)
            clm = ClosedLoopMatrices(
                A1=a1,
                B1=rng.standard_normal((n_x, n_e)),
                A2=rng.standard_normal((n_e, n_x)),
                B2=rng.standard_normal((n_e, n_e)),
                Cbar=rng.standard_normal((1, n_x)),
            )
            cand = design_certificate(clm)
            scale = max(1.0, spectral_norm(clm.A2.T @ clm.A2) + cand.eps2, cand.mu)
            assert lmi_residual(clm, cand) <= 1e-7 * scale


def _observer_loop_with_large_gains():
    plant = LtiPlant(
        A=[[0.8987174889940196, -1.2955766032187992],
           [-0.28655882094835194, 0.05643174998256089]],
        B=[[0.5592453386303013], [0.5142649014798377]],
        C=[[-0.8171255611462112, 0.33086818674306095],
           [1.4564175685710241, -0.7286522690942522]],
    )
    ctrl = LtiController(
        A=[[129.26727906934724, -145.9078216875876],
           [122.24335442241427, -135.07233172537207]],
        B=[[-0.8465183349271559, 1.5214236429791788],
           [0.46162364123051775, -0.9854472379307159]],
        C=[[234.73794487799503, -261.06774571994737]],
        D=[[0.0, 0.0]],
    )
    return assemble(plant, ctrl)


def _output_feedback_clm():
    """The dynamic output-feedback loop of test_systems (n_x = 3, n_e = 2)."""
    plant = LtiPlant(A=[[0.0, 1.0], [-2.0, -3.0]], B=[[0.0], [1.0]], C=[[1.0, 0.0]])
    return assemble(plant, LtiController(A=[[-3.0]], B=[[1.0]], C=[[-1.5]], D=[[-0.5]]))


def _lqr_clm(seed, n, observer):
    """A random n-state plant under LQR state feedback or an observer-based controller."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 3))
    Ap, Bp = rng.standard_normal((n, n)), rng.standard_normal((n, m))
    K = Bp.T @ scipy.linalg.solve_continuous_are(Ap, Bp, np.eye(n), np.eye(m))
    if not observer:
        return assemble(LtiPlant(A=Ap, B=Bp, C=np.eye(n)), LtiController(D=-K))
    p = int(rng.integers(1, 3))
    Cp = rng.standard_normal((p, n))
    Lo = scipy.linalg.solve_continuous_are(Ap.T, Cp.T, np.eye(n), np.eye(p)) @ Cp.T
    ctrl = LtiController(A=Ap - Bp @ K - Lo @ Cp, B=Lo, C=-K, D=np.zeros((m, p)))
    return assemble(LtiPlant(A=Ap, B=Bp, C=Cp), ctrl)


def _assert_grid_answer_from_three_solves(monkeypatch, clm, **eps):
    # P and mu are bitwise the slack-by-slack grid's, from exactly 3 solves.
    calls = []

    def counted(a, q):
        calls.append(q)
        return solve_lyapunov(a, q)

    monkeypatch.setattr("etclab.lti.solve_lyapunov", counted)
    cand = design_certificate(clm, **eps)
    P, mu = slack_grid_design(clm, **eps)
    assert len(calls) == 3
    assert np.array_equal(cand.P, P)
    assert cand.mu == mu


class TestSlackPricing:
    @pytest.mark.parametrize("build, eps", [
        (tabuada_matrices, {"eps1": 0.0, "eps2": 0.68}),
        (tabuada_matrices, {}),
        (_output_feedback_clm, {}),
        (_observer_loop_with_large_gains, {}),
    ], ids=["tabuada-0.68", "tabuada-defaults", "output-feedback", "large-gains"])
    def test_matches_the_slack_by_slack_grid(self, monkeypatch, build, eps):
        _assert_grid_answer_from_three_solves(monkeypatch, build(), **eps)

    @pytest.mark.parametrize("observer", [False, True], ids=["static", "observer"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("k", range(5))
    def test_matches_the_grid_on_random_lqr_loops(self, monkeypatch, observer, n, k):
        clm = _lqr_clm([20261018, n, k, observer], n, observer)
        _assert_grid_answer_from_three_solves(monkeypatch, clm)

    def test_tiny_eps2(self, monkeypatch):
        # base = A2^T A2 + eps2 I fails the solver's 1e-9 definiteness test
        # here, so the slacks are priced from the smallest one, not from base.
        clm = _output_feedback_clm()
        assert not is_positive_definite(clm.A2.T @ clm.A2 + 1e-12 * np.eye(clm.n_x))
        _assert_grid_answer_from_three_solves(monkeypatch, clm, eps1=0.0, eps2=1e-12)


def _certify_clms(seed, units=192):
    """The LTI loops of the benchmark's ``certify`` units at one seed.

    Unit i cycles through one Lorenz unit (no loop), then state feedback and
    observer-based output feedback on 2, 3 and 4 plant states; its generator
    default_rng([seed, i]) draws the check seed and then the loop, redrawn
    where the Riccati solver rejects it (``_lqr_clm`` takes the generator,
    which default_rng passes through).
    """
    cycle = [None] + [(n, observer) for n in (2, 3, 4) for observer in (False, True)]
    for i in range(units):
        if cycle[i % len(cycle)] is None:
            continue
        rng = np.random.default_rng([seed, i])
        rng.integers(2**31)
        while True:
            try:
                yield _lqr_clm(rng, *cycle[i % len(cycle)])
                break
            except (np.linalg.LinAlgError, ValueError):
                continue


class TestBatchedSlackGrid:
    """The grid's one batched SVD picks the slack that pricing each slack alone picks."""

    @staticmethod
    def _picks(monkeypatch):
        # Each design's (pick, reference pick, slacks), from the G0 and G1 it priced.
        picks, cheapest = [], lti._cheapest_slack

        def spy(G0, G1, slacks):
            rho = cheapest(G0, G1, slacks)
            picks.append((rho, cheapest_slack_reference(G0, G1, slacks), slacks))
            return rho

        monkeypatch.setattr(lti, "_cheapest_slack", spy)
        return picks

    def test_certify_loops(self, monkeypatch):
        picks = self._picks(monkeypatch)
        for clm in _certify_clms(0):
            design_certificate(clm)
        assert len(picks) == 164
        assert all(got.hex() == want.hex() for got, want, _ in picks)
        assert len({slacks.searchsorted(got) for got, _, slacks in picks}) > 1

    def test_overflowing_slacks_cost_inf(self, monkeypatch):
        # Every entry of B1^T P(rho) is finite, but its squared norm overflows
        # from the 17th slack on; the 10th and 11th cost within a few ulps of
        # each other, and the cheaper, the 10th, is picked.
        picks = self._picks(monkeypatch)
        clm = assemble(LtiPlant(A=[[-1.0]], B=[[1e152]], C=[[2.0]]), LtiController(D=[[0.0]]))
        design_certificate(clm)
        (got, want, slacks), = picks
        assert got.hex() == want.hex() == slacks[9].hex()

    def test_non_finite_slack_is_never_picked(self, monkeypatch):
        # The last slack's B1^T P(rho) overflows and every other square does: all
        # cost inf, so the tie keeps the first slack, and mu then overflows.
        picks = self._picks(monkeypatch)
        clm = assemble(LtiPlant(A=[[-1.0]], B=[[1e305]], C=[[2.0]]), LtiController(D=[[0.0]]))
        with pytest.raises(DesignInfeasibleError, match="mu = .* overflows at slack 4.050e-03"):
            design_certificate(clm)
        (got, want, slacks), = picks
        assert got == want == slacks[0]

    def test_tie_keeps_the_first_slack(self, monkeypatch):
        # B1 = 0: every slack costs 0.
        picks = self._picks(monkeypatch)
        clm = assemble(LtiPlant(A=[[-1.0, 0.0], [0.0, -2.0]], B=[[1.0], [1.0]], C=np.eye(2)),
                       LtiController(D=[[0.0, 0.0]]))
        assert design_certificate(clm).mu == 0.0
        (got, want, slacks), = picks
        assert got == want == slacks[0]

    def test_an_empty_error_block_prices_every_slack_at_zero(self):
        # n_e = 0: B1^T P has no rows, and spectral_norm gives 0.0 for it.
        slacks = np.logspace(-3, 3, 20)
        assert lti._cheapest_slack(np.zeros((0, 3)), np.zeros((0, 3)), slacks) == slacks[0]


class TestBackwardErrorBound:
    """Stiff loops design; a perturbed Lyapunov solve still fails the design."""

    def test_stiff_loop_designs_and_passes_its_checks(self, stiff_observer_loop):
        plant, ctrl = stiff_observer_loop
        clm = assemble(plant, ctrl)
        cert = extract_assumption(clm, design_certificate(clm))
        rep = check_assumption_sampled(  # the sizes and seed of its benchmark unit
            lti_loop(plant, ctrl, cert), cert, n_samples=500, radius=10.0, seed=152108349
        )
        assert rep.passed, rep.summary()
        ceiling = masp(cert.gamma, cert.L)
        assert 0.0 < zeta_time(cert.gamma, cert.L, ZetaParams(theta=1e-4, eta=1e-6)) < ceiling

    def test_stiff_loop_rejects_a_perturbed_solve(self, monkeypatch, stiff_observer_loop):
        # Scaling P by 1 + 1e-6 stays inside this loop's bound (2|a||P| is
        # 4.5e8 |q|); adding 1e-6 max|P| to every entry does not.
        clm = assemble(*stiff_observer_loop)
        exact = linalg._bartels_stewart
        monkeypatch.setattr(
            linalg, "_bartels_stewart", lambda a, q: exact(a, q) + 1e-6 * np.abs(exact(a, q)).max()
        )
        with pytest.raises(DesignInfeasibleError, match="residual"):
            design_certificate(clm)

    @pytest.mark.parametrize("build", [tabuada_matrices, _output_feedback_clm])
    def test_a_solve_off_by_a_relative_1e_6_fails_the_design(self, monkeypatch, build):
        exact = linalg._bartels_stewart
        monkeypatch.setattr(linalg, "_bartels_stewart", lambda a, q: (1 + 1e-6) * exact(a, q))
        with pytest.raises(DesignInfeasibleError, match="residual"):
            design_certificate(build())


class TestExtractAssumption:
    def test_planar_certificate_components(self, planar_clm, rng):
        cand = design_certificate(planar_clm, eps1=0.0, eps2=0.68)
        cert = extract_assumption(planar_clm, cand)
        assert cert.L == pytest.approx(4.1231, abs=1e-3)
        assert cert.gamma == pytest.approx(cand.gamma)
        assert cert.W(np.zeros(2)) == 0.0
        x = rng.standard_normal(2)
        assert cert.V(x) == pytest.approx(float(x @ cand.P @ x))
        assert cert.alpha(2.0) == pytest.approx(0.68 * 4.0)

    def test_v_decay_along_flow_without_error(self, planar_clm, rng):
        # With e = 0 the decay inequality reduces to grad V . f <= -eps2 |x|^2.
        cand = design_certificate(planar_clm, eps1=0.0, eps2=0.68)
        cert = extract_assumption(planar_clm, cand)
        h = 1e-6
        for _ in range(20):
            x = rng.standard_normal(2) * 5
            grad = np.array(
                [
                    (cert.V(x + h * dx) - cert.V(x - h * dx)) / (2 * h)
                    for dx in np.eye(2)
                ]
            )
            f = planar_clm.A1 @ x
            vdot = float(grad @ f)
            assert vdot <= -0.68 * float(x @ x) + 1e-6 * max(1.0, abs(vdot))

    def test_rejects_infeasible(self, planar_clm):
        bad = LmiCertificate(P=np.eye(2), eps1=0.0, eps2=1.0, mu=1e-6)
        with pytest.raises(CertificateError):
            extract_assumption(planar_clm, bad)

    def test_one_eigensolve_of_p_gives_the_v_bounds(self, planar_clm, monkeypatch):
        cand = design_certificate(planar_clm, eps1=0.0, eps2=0.68)
        eigvalsh = np.linalg.eigvalsh
        calls = []

        def counted(a, *args, **kwargs):
            calls.append(np.array_equal(a, cand.P))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        cert = extract_assumption(planar_clm, cand)
        assert calls.count(True) == 1
        monkeypatch.undo()
        lo, hi = np.linalg.eigvalsh(cand.P)[[0, -1]]
        assert (cert.alpha_lower(2.0), cert.alpha_upper(2.0)) == (lo * 4.0, hi * 4.0)

    @pytest.mark.parametrize("p", [-1.0, 1e-10], ids=["negative", "below-1e-9"])
    def test_rejects_a_feasible_p_that_is_not_positive_definite(self, p):
        # A1 = 1 (unstable) admits P = -1; A1 = -1 with eps2 = 1e-10 admits
        # P = 1e-10, below is_positive_definite's threshold of 1e-9.
        a1 = 1.0 if p < 0 else -1.0
        clm = replace(_scalar_clm(), A1=np.array([[a1]]))
        cand = LmiCertificate(P=[[p]], eps1=0.0, eps2=1e-10, mu=1.0)
        assert lmi_residual(clm, cand) <= 0.0
        assert is_positive_definite(cand.P) is False
        with pytest.raises(CertificateError, match="P must be positive definite"):
            extract_assumption(clm, cand)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["state-feedback", "output-feedback", "stiff"]),
    n=st.integers(2, 3),
    seed=st.integers(0, 2**32 - 1),
    fractions=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=8),
)
def test_periodic_sampling_below_the_masp_contracts_v(stiff_observer_loop, kind, n, seed,
                                                      fractions):
    """rho(Phi(T)) < 1 and Phi(T)^T P Phi(T) < P for every T in [MASP / 50, MASP).

    Emulation (Nesic, Teel, Carnevale, IEEE TAC 54(3), 2009) makes periodic
    sampling below the MASP stable, and the certificate promises more: U = V
    + gamma phi(tau) W^2 equals V(x) after each transmission and decreases in
    between, so V contracts across each period.  Both margins go to 0 with T,
    so each is compared against a rounding bound scaled by cond(P).
    """
    if kind == "stiff":
        clm = assemble(*stiff_observer_loop)
    else:
        clm = _lqr_clm(seed, n, kind == "output-feedback")
    cand = design_certificate(clm)
    cert = extract_assumption(clm, cand)
    ceiling, P = masp(cert.gamma, cert.L), cand.P
    tol = 16 * clm.n_x * np.finfo(float).eps * np.linalg.cond(P)
    for u in fractions:
        phi = periodic_map(clm, ceiling * (0.02 + 0.98 * u))
        assert np.abs(np.linalg.eigvals(phi)).max() < 1.0 + tol
        assert scipy.linalg.eigh(phi.T @ P @ phi, P, eigvals_only=True)[-1] < 1.0 + tol
