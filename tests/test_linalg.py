import math

import numpy as np
import pytest
import scipy.linalg

from etclab import (
    DesignInfeasibleError,
    DimensionError,
    assemble,
    is_hurwitz,
    is_positive_definite,
    solve_lyapunov,
    spectral_norm,
    sym_eigenvalues,
)
from etclab.linalg import as_matrix, symmetrize
from oracles import (
    charpoly_eigenvalues,
    lyapunov_kronecker,
    positive_definite_by_minors,
    power_iteration_norm,
)


class TestSymEigenvalues:
    def test_diagonal(self):
        assert np.allclose(sym_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0])

    def test_exchange_matrix(self):
        vals = sym_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(vals, [-1.0, 1.0])

    def test_matches_charpoly_bisection_oracle(self, rng):
        m = rng.standard_normal((5, 5))
        m = 0.5 * (m + m.T)
        roots = charpoly_eigenvalues(m)
        assert roots.size == 5  # oracle isolated every root
        assert np.abs(sym_eigenvalues(m) - roots).max() < 1e-9

    def test_nondecreasing_and_trace(self, rng):
        for _ in range(20):
            m = rng.standard_normal((6, 6))
            m = m + m.T
            vals = sym_eigenvalues(m)
            assert np.all(np.diff(vals) >= 0)
            scale = max(1.0, np.abs(vals).max())
            assert abs(vals.sum() - np.trace(m)) <= 1e-9 * scale

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            sym_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            sym_eigenvalues(np.zeros((2, 3)))

    def test_entries_whose_sum_overflows(self):
        # 1e308 + 1e308 overflows: symmetrizing must not, nor warn.
        assert sym_eigenvalues(np.diag([1e308, -1e308])).tolist() == [-1e308, 1e308]


class TestSymmetrize:
    def test_halves_before_adding_where_the_sum_overflows(self):
        a = np.array([[1e308, 1e308], [1.7e308, -1e308]])
        s = symmetrize(a)
        assert np.array_equal(s, 0.5 * a + 0.5 * a.T)
        assert np.array_equal(s, s.T)
        assert s[0, 0] == 1e308 and s[0, 1] == 1.35e308


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(2)) == pytest.approx(1.0)

    def test_rank_one_gain(self):
        # B K with B = [0; 1], K = [1, -4] has norm sqrt(17) = 4.1231.
        bk = np.array([[0.0], [1.0]]) @ np.array([[1.0, -4.0]])
        assert spectral_norm(bk) == pytest.approx(np.sqrt(17.0), abs=1e-12)
        assert spectral_norm(bk) == pytest.approx(4.1231, abs=1e-4)

    def test_matches_power_iteration(self, rng):
        m = rng.standard_normal((3, 4))
        assert spectral_norm(m) == pytest.approx(power_iteration_norm(m), abs=1e-9)

    def test_transpose_invariance(self, rng):
        for _ in range(10):
            m = rng.standard_normal((4, 7))
            assert abs(spectral_norm(m) - spectral_norm(m.T)) <= 1e-12

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty_matrix_has_norm_zero(self, shape):
        assert spectral_norm(np.zeros(shape)) == 0.0


class TestIsPositiveDefinite:
    def test_identity(self):
        assert is_positive_definite(np.eye(3))

    def test_indefinite(self):
        # eigenvalues -1 and 3
        assert not is_positive_definite(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_agrees_with_minors_oracle(self, rng):
        for n in (2, 3):
            for _ in range(50):
                m = rng.standard_normal((n, n))
                m = m + m.T + rng.uniform(-1, 2) * np.eye(n)
                assert is_positive_definite(m) == positive_definite_by_minors(m)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            is_positive_definite(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestHurwitz:
    def test_examples(self):
        assert is_hurwitz(np.array([[0.0, 1.0], [-1.0, -1.0]]))
        assert not is_hurwitz(np.array([[0.0, 1.0], [-2.0, 3.0]]))

    def test_empty_matrix_is_hurwitz(self):
        # A loop without controller states has an empty controller A.
        assert is_hurwitz(np.zeros((0, 0))) is True

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError) as info:
            is_hurwitz(np.zeros((2, 3)))
        assert str(info.value) == "is_hurwitz: expected a square matrix, got (2, 3)"


def _random_stable(rng, n):
    a = rng.standard_normal((n, n))
    shift = np.linalg.eigvals(a).real.max() + rng.uniform(0.2, 2.0)
    return a - shift * np.eye(n)


def _random_spd(rng, n):
    m = rng.standard_normal((n, n))
    return m @ m.T + 0.1 * np.eye(n)


class TestSolveLyapunov:
    def test_analytic(self):
        p = solve_lyapunov(-np.eye(2), np.eye(2))
        assert np.allclose(p, 0.5 * np.eye(2), atol=1e-12)

    def test_matches_kronecker_oracle(self):
        a = np.array([[0.0, 1.0], [-1.0, -1.0]])
        p = solve_lyapunov(a, np.eye(2))
        assert np.abs(p - lyapunov_kronecker(a, np.eye(2))).max() < 1e-9

    def test_residual_and_symmetry_random(self, rng):
        for _ in range(10):
            a = _random_stable(rng, 4)
            q = _random_spd(rng, 4)
            p = solve_lyapunov(a, q)
            assert np.abs(p - p.T).max() <= 1e-10
            residual = spectral_norm(a.T @ p + p @ a + q)
            assert residual <= 1e-8 * spectral_norm(q)

    def test_accepts_a_backward_stable_stiff_solve(self, stiff_observer_loop):
        a = assemble(*stiff_observer_loop).A1
        q = np.eye(a.shape[0])
        p = solve_lyapunov(a, q)
        residual = spectral_norm(a.T @ p + p @ a + q)
        assert residual > 1e-8 * spectral_norm(q)  # a bound relative to |q| rejects it
        assert residual <= 1e-8 * (2 * spectral_norm(a) * spectral_norm(p) + spectral_norm(q))
        assert is_positive_definite(p)

    def test_rejects_unstable(self):
        with pytest.raises(DesignInfeasibleError):
            solve_lyapunov(np.array([[1.0]]), np.array([[1.0]]))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            solve_lyapunov(-np.eye(2), np.eye(3))

    def test_rejects_a_margin_within_rounding_at_the_norm_of_a(self):
        # Eigenvalues -1 +- 1e150 i beside an entry 1e300: the pair's sum, -2, is below
        # rounding at that size, so scipy would warn and perturb a.
        a = np.array([[-1.0, 1e300], [-1.0, -1.0]])
        assert is_hurwitz(a)
        with pytest.raises(DesignInfeasibleError) as info:
            solve_lyapunov(a, np.eye(2))
        assert str(info.value) == (
            "solve_lyapunov: a's stability margin 1.000e+00 is within rounding of 0 "
            "at its norm 1.000e+300"
        )

    def test_rejects_a_schur_block_that_trsyl_would_perturb(self):
        # Eigenvalues -1 +- i, far from 0 at the norm 1e6, but so far from normal that
        # LAPACK's trsyl perturbs a (scipy warns and returns the perturbed solution).
        a = np.array([[-1.0, 1e6], [-1e-6, -1.0]])
        with pytest.raises(DesignInfeasibleError) as info:
            solve_lyapunov(a, np.eye(2))
        assert str(info.value) == (
            "solve_lyapunov: LAPACK trsyl perturbed a near-singular Schur block of a (info 1)"
        )

    def test_solves_as_scipy_does_bit_for_bit(self, rng):
        for n in range(1, 7):
            a = _random_stable(rng, n)
            q = _random_spd(rng, n)
            p = scipy.linalg.solve_continuous_lyapunov(a.T, -q)
            assert np.array_equal(solve_lyapunov(a, q), 0.5 * (p + p.T))

    def test_undoes_trsyl_scale(self):
        # trsyl solves for scale * q with scale 1e-299 here; P is q / (2 |a|).
        assert solve_lyapunov([[-1e-8]], [[1e299]]).tolist() == [[5e306]]

    def test_rejects_a_solution_that_overflows(self):
        # P = 1e305 / 2e-8 = 5e312.
        with pytest.raises(DesignInfeasibleError) as info:
            solve_lyapunov([[-1e-8]], [[1e305]])
        assert str(info.value) == (
            "solve_lyapunov: the solution overflows (LAPACK trsyl scale 1.000e-305)"
        )

    def test_rejects_a_residual_that_overflows(self):
        # P is finite, but a^T P and P a pass 1.8e308 before they cancel.
        a = [[-123589.0, 90000.0], [-50000.0, 36411.0]]
        with pytest.raises(DesignInfeasibleError) as info:
            solve_lyapunov(a, 1e303 * np.eye(2))
        assert str(info.value) == "solve_lyapunov: the residual a^T P + P a + q overflows"

    def test_q_whose_symmetrizing_sum_overflows(self):
        assert solve_lyapunov([[-1.0]], [[1e308]]).tolist() == [[5e307]]

    def test_rejects_a_nonsquare_a(self):
        with pytest.raises(DimensionError) as info:
            solve_lyapunov(np.zeros((2, 3)), np.eye(2))
        assert str(info.value) == "solve_lyapunov: a must be square, got (2, 3)"

    def test_rejects_an_indefinite_q(self):
        with pytest.raises(ValueError) as info:
            solve_lyapunov(-np.eye(2), np.diag([1.0, -1.0]))
        assert type(info.value) is ValueError
        assert str(info.value) == "solve_lyapunov: q must be positive definite"


class TestAsMatrix:
    @pytest.mark.parametrize(
        "m, error, message",
        [
            ([1.0, 2.0], DimensionError, "v: expected a 2-d array, got shape (2,)"),
            ([[1.0, math.nan]], ValueError, "v: entries must be finite"),
            ([[1.0, math.inf]], ValueError, "v: entries must be finite"),
        ],
        ids=["1-d", "nan", "inf"],
    )
    def test_rejects_naming_the_input(self, m, error, message):
        with pytest.raises(error) as info:
            as_matrix(m, "v")
        assert type(info.value) is error and str(info.value) == message


def _kernel_inputs(rng, dim):
    """One random vector of length dim in each layout the hot paths see.

    A whole array, the two halves of a stacked state z = (x, e), and rows
    of the x and e column blocks of a recorded 2-D state array (the
    ``Segment.x[k]`` case), over a wide range of magnitudes.
    """
    scale = 10.0 ** rng.uniform(-3, 3)
    z = scale * rng.standard_normal(2 * dim)
    Z = scale * rng.standard_normal((3, 2 * dim))
    return [scale * rng.standard_normal(dim), z[:dim], z[dim:], Z[:, :dim][1], Z[:, dim:][2]]


class TestHotPathKernels:
    """The per-step kernels give the same bits as the forms they replaced.

    The simulator, the certificate terms and the sampled checker use
    ``math.sqrt(v.dot(v))`` for ``np.linalg.norm(v)`` and ``ndarray.dot``
    for ``@``; numpy runs both through the same BLAS kernels.  A numpy or
    BLAS change that breaks this would move event logs without notice.
    """

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_dot_kernels_match_norm_and_matmul_bitwise(self, dim):
        rng = np.random.default_rng(1000 + dim)
        for _ in range(50):
            M = rng.standard_normal((rng.integers(1, 9), dim))
            P = rng.standard_normal((dim, dim))
            P = P + P.T
            for v in _kernel_inputs(rng, dim):
                assert math.sqrt(v.dot(v)) == float(np.linalg.norm(v))
                assert np.array_equal(M.dot(v), M @ v)
                assert float(v.dot(P).dot(v)) == float(v @ P @ v)
