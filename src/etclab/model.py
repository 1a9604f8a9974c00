"""Core domain types shared by the triggering, simulation and design layers.

The closed loop is described by the augmented state q = (x, e, tau): the
plant+controller state x, the network-induced error e (last transmitted
value minus current value, reset to zero at each transmission) and a
clock tau measuring time since the last transmission.
"""

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np


def _identity(x):
    return x


@dataclass
class HybridState:
    """The triple q = (x, e, tau)."""

    x: np.ndarray
    e: np.ndarray
    tau: float

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.e = np.asarray(self.e, dtype=float)
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")

    def copy(self):
        return HybridState(self.x.copy(), self.e.copy(), self.tau)

    def norm(self):
        """Euclidean norm of the (x, e) part."""
        return float(np.sqrt(self.x @ self.x + self.e @ self.e))


@dataclass(frozen=True)
class ClosedLoopSystem:
    """Flow maps of the networked closed loop.

    ``f(x, e)`` is the derivative of x, ``g(x, e)`` the derivative of e,
    and ``y_of_x`` the plant output map used by the triggering rule.
    Both evaluators must vanish at the origin (the equilibrium) and be
    deterministic.

    ``stacked_matrix``, when present, is the matrix M of the stacked
    linear flow (x, e)' = M (x, e) and must agree with f and g; the
    simulator then advances flows through a precomputed one-step
    propagator instead of re-evaluating the closures (same classical RK4
    step, evaluated as a matrix polynomial).
    """

    n_x: int
    n_e: int
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    y_of_x: Callable[[np.ndarray], np.ndarray] = _identity
    stacked_matrix: Optional[np.ndarray] = None
    name: str = ""


@dataclass(frozen=True)
class Certificate:
    """Lyapunov-type certificate for the networked loop.

    Carries the storage function V for the x-subsystem, the error
    measure W, the interconnection term H, the output weight delta, the
    decay rate alpha, and the gains (gamma, L) that determine the
    dwell-time ceiling.  ``alpha_lower``/``alpha_upper`` sandwich V by
    class-K-infinity bounds.  ``delta_x``/``delta_e`` are optional
    radii outside which the certificate makes no claim (absent means
    the certificate is global).
    """

    V: Callable[[np.ndarray], float]
    W: Callable[[np.ndarray], float]
    H: Callable[[np.ndarray], float]
    delta: Callable[[np.ndarray], float]
    alpha: Callable[[float], float]
    gamma: float
    L: float
    alpha_lower: Callable[[float], float]
    alpha_upper: Callable[[float], float]
    n_x: int
    n_e: int
    n_y: int
    y_of_x: Callable[[np.ndarray], np.ndarray] = _identity
    delta_x: Optional[float] = None
    delta_e: Optional[float] = None
    name: str = ""

    def __post_init__(self):
        if self.gamma < 0 or self.L < 0:
            raise ValueError("gamma and L must be nonnegative")

    def with_gamma(self, gamma):
        """Copy with a different gain gamma (used by falsification tests)."""
        return replace(self, gamma=float(gamma))
