"""Core domain types shared by the triggering, simulation and design layers.

The closed loop is described by the augmented state q = (x, e, tau): the
plant+controller state x, the network-induced error e (last transmitted
value minus current value, reset to zero at each transmission) and a
clock tau measuring time since the last transmission.

``ClosedLoopSystem`` holds the flow maps, ``Certificate`` the rest, the
output map included; ``check_pairing`` tells whether the two fit.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DimensionError


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
        if not 0 <= self.tau < math.inf:  # NaN fails too
            raise ValueError(f"tau must be finite and nonnegative, got {self.tau}")


@dataclass(frozen=True)
class ClosedLoopSystem:
    """Flow maps of the networked closed loop.

    ``f(x, e)`` is the derivative of x and ``g(x, e)`` the derivative of
    e.  Both evaluators must vanish at the origin (the equilibrium) and
    be deterministic.  The output map belongs to the certificate.

    ``stacked_matrix``, when present, is the matrix M of the stacked
    linear flow (x, e)' = M (x, e) and must agree with f and g; both
    ``simulate`` and ``flow_step`` then step with the RK4 propagator (the
    same classical RK4 step as a matrix polynomial) instead of calling f
    and g.  The loop keeps a read-only, C-ordered float copy of M, which
    must be (n_x + n_e) square (DimensionError otherwise).  The loop holds
    no simulator state: ``hybrid`` caches the propagators by the bytes of
    M, so loops with equal matrices share them.
    """

    n_x: int
    n_e: int
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    stacked_matrix: Optional[np.ndarray] = None
    name: str = ""

    def __post_init__(self):
        if self.stacked_matrix is None:
            return
        M = np.array(self.stacked_matrix, dtype=float, order="C")
        n = self.n_x + self.n_e
        if M.shape != (n, n):
            raise DimensionError(
                f"stacked_matrix has shape {M.shape}, but loop {self.name!r} needs ({n}, {n})"
            )
        M.setflags(write=False)
        object.__setattr__(self, "stacked_matrix", M)


@dataclass(frozen=True)
class Certificate:
    """Lyapunov-type certificate for the networked loop.

    Carries the storage function V for the x-subsystem, the error
    measure W, the interconnection term H, the output weight delta, the
    decay rate alpha, and the gains (gamma, L) that determine the
    dwell-time ceiling.  ``alpha_lower``/``alpha_upper`` sandwich V by
    class-K-infinity bounds.  The certificate is global: the paper's
    inequalities hold at every (x, e), so it carries no radius.
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
    name: str = ""

    def __post_init__(self):
        if not (0 <= self.gamma < math.inf and 0 <= self.L < math.inf):
            raise ValueError("Certificate: gamma and L must be finite and nonnegative")


def check_pairing(sys: ClosedLoopSystem, cert: Certificate):
    """Raise DimensionError unless the certificate's (n_x, n_e) are the loop's."""
    if (cert.n_x, cert.n_e) != (sys.n_x, sys.n_e):
        raise DimensionError(
            f"certificate {cert.name!r} has (n_x, n_e) = ({cert.n_x}, {cert.n_e}) but "
            f"loop {sys.name!r} has ({sys.n_x}, {sys.n_e})"
        )
