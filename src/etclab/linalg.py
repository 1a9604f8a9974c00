"""Dense linear-algebra kernels backing the certificate machinery.

Thin, validating wrappers around numpy/scipy routines: symmetric
eigensolve, spectral norm, positive-definiteness test, continuous
Lyapunov solve and a Hurwitz test.  All functions take and return plain
``numpy.ndarray`` objects and are pure (safe to call concurrently).  A
Lyapunov solve is accepted by its backward error, not its residual alone.
"""

import numpy as np
import scipy.linalg

from .errors import DesignInfeasibleError, DimensionError

_TOL = 1e-9

# Backward-error bound for the Lyapunov solve, relative to 2|a||P| + |q|.
_LYAP_RESIDUAL_RTOL = 1e-8


def as_matrix(m, name="matrix"):
    """Coerce to a finite 2-d float array."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"{name}: expected a 2-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name}: entries must be finite")
    return a


def _require_square_symmetric(a, name):
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name}: expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.T).max()) > _TOL * scale:
        raise ValueError(f"{name}: not symmetric within tolerance {_TOL:g}")


def symmetrize(a):
    """(a + a^T) / 2 of a finite square matrix: 0.5 (a + a^T) where that sum is
    finite, else 0.5 a + 0.5 a^T, which cannot overflow."""
    with np.errstate(over="ignore"):
        s = a + a.T
    return 0.5 * s if np.isfinite(s).all() else 0.5 * a + 0.5 * a.T


def sym_eigenvalues(m):
    """Eigenvalues of a symmetric matrix, in nondecreasing order."""
    a = as_matrix(m)
    _require_square_symmetric(a, "sym_eigenvalues")
    return np.linalg.eigvalsh(symmetrize(a))


def spectral_norm(m):
    """Largest singular value, sqrt(lambda_max(m^T m)): the first of the descending SVD."""
    a = as_matrix(m)
    if min(a.shape) == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def is_positive_definite(m):
    """True iff the symmetric matrix ``m`` has all eigenvalues > 1e-9."""
    return bool(sym_eigenvalues(m).min() > _TOL)


def is_hurwitz(a):
    """True iff every eigenvalue of ``a`` has real part < -1e-9."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"is_hurwitz: expected a square matrix, got {a.shape}")
    if a.shape[0] == 0:
        return True
    return bool(np.linalg.eigvals(a).real.max() < -_TOL)


def _bartels_stewart(a, q):
    """P with a^T P + P a = -q: the steps of scipy's ``solve_continuous_lyapunov(a.T, -q)``.

    Bit for bit scipy's answer, but where LAPACK's trsyl reports a Schur
    block solve so near singular that it perturbed a (info = 1; scipy warns
    and returns the perturbed solution) this raises DesignInfeasibleError.
    A non-normal a can do that at any stability margin.  trsyl solves for
    scale f with 0 < scale <= 1 to keep its y finite, so P takes y / scale
    (scipy multiplies; both are y where scale is 1), and a P that overflows
    raises DesignInfeasibleError too.
    """
    r, u = scipy.linalg.schur(a.T, output="real")
    f = u.T.dot((-q).dot(u))
    trsyl = scipy.linalg.get_lapack_funcs("trsyl", (r, f))
    y, scale, info = trsyl(r, r, f, tranb="T")
    if info != 0:
        raise DesignInfeasibleError(
            f"solve_lyapunov: LAPACK trsyl perturbed a near-singular Schur block of a (info {info})"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        p = u.dot(y / scale).dot(u.T)
    if not np.isfinite(p).all():
        raise DesignInfeasibleError(
            f"solve_lyapunov: the solution overflows (LAPACK trsyl scale {scale:.3e})"
        )
    return p


def solve_lyapunov(a, q):
    """Solve a^T P + P a = -q for symmetric P.

    Requires ``a`` Hurwitz and ``q`` symmetric positive definite (which
    guarantees a unique positive definite solution), and raises
    DesignInfeasibleError for an ``a`` whose stability margin -max Re lambda
    is within rounding of 0 at its spectral norm, or whose Schur form LAPACK's
    trsyl would perturb (``_bartels_stewart``), or where P or its residual
    overflows; no warning escapes.  The result is
    symmetrized and accepted iff its residual r = a^T P + P a + q has the
    backward error |r| <= 1e-8 (2|a||P| + |q|), which stiff loops meet.
    """
    a = as_matrix(a, "a")
    qm = as_matrix(q, "q")
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"solve_lyapunov: a must be square, got {a.shape}")
    if qm.shape != a.shape:
        raise DimensionError(
            f"solve_lyapunov: q shape {qm.shape} does not match a shape {a.shape}"
        )
    _require_square_symmetric(qm, "solve_lyapunov q")
    if not is_positive_definite(qm):
        raise ValueError("solve_lyapunov: q must be positive definite")
    # is_hurwitz's test, -max Re lambda > 1e-9, on the eigenvalues the margin check reads.
    margin = -float(np.linalg.eigvals(a).real.max())
    if not margin > _TOL:
        raise DesignInfeasibleError(
            "solve_lyapunov: a is not Hurwitz, no stabilizing solution exists"
        )
    # LAPACK's trsyl perturbs a where a sum of two of its eigenvalues is below rounding
    # at its size; every such sum is at least 2 margin.
    size = spectral_norm(a)
    if not margin > np.finfo(float).eps * size:
        raise DesignInfeasibleError(
            f"solve_lyapunov: a's stability margin {margin:.3e} is within rounding of 0 "
            f"at its norm {size:.3e}"
        )
    p = symmetrize(_bartels_stewart(a, qm))
    with np.errstate(over="ignore", invalid="ignore"):
        r = a.T @ p + p @ a + qm
    if not np.isfinite(r).all():
        raise DesignInfeasibleError("solve_lyapunov: the residual a^T P + P a + q overflows")
    residual = spectral_norm(r)
    scale = 2 * size * spectral_norm(p) + spectral_norm(qm)
    if residual > _LYAP_RESIDUAL_RTOL * scale:
        raise DesignInfeasibleError(
            f"solve_lyapunov: residual {residual:.3e} exceeds tolerance"
        )
    return p
