"""Dense linear-algebra kernels backing the certificate machinery.

Thin, validating wrappers around numpy/scipy routines: symmetric
eigensolve, spectral norm, positive-definiteness test, continuous
Lyapunov solve and a Hurwitz test.  All functions take and return plain
``numpy.ndarray`` objects and are pure (safe to call concurrently).
"""

import numpy as np
import scipy.linalg

from .errors import DesignInfeasibleError, DimensionError

_TOL = 1e-9

# Residual bound for the Lyapunov solve, relative to |q|.
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


def sym_eigenvalues(m):
    """Eigenvalues of a symmetric matrix, in nondecreasing order."""
    a = as_matrix(m)
    _require_square_symmetric(a, "sym_eigenvalues")
    return np.linalg.eigvalsh(0.5 * (a + a.T))


def spectral_norm(m):
    """Largest singular value, sqrt(lambda_max(m^T m))."""
    a = as_matrix(m)
    if min(a.shape) == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


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


def solve_lyapunov(a, q):
    """Solve a^T P + P a = -q for symmetric P.

    Requires ``a`` Hurwitz and ``q`` symmetric positive definite (which
    guarantees a unique positive definite solution).  The result is
    symmetrized and its residual is verified against |q|.
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
    if not is_hurwitz(a):
        raise DesignInfeasibleError(
            "solve_lyapunov: a is not Hurwitz, no stabilizing solution exists"
        )
    # scipy solves A X + X A^H = Q; transpose to get a^T P + P a = -q.
    p = scipy.linalg.solve_continuous_lyapunov(a.T, -qm)
    p = 0.5 * (p + p.T)
    residual = spectral_norm(a.T @ p + p @ a + qm)
    if residual > _LYAP_RESIDUAL_RTOL * max(spectral_norm(qm), np.finfo(float).tiny):
        raise DesignInfeasibleError(
            f"solve_lyapunov: residual {residual:.3e} exceeds tolerance"
        )
    return p
