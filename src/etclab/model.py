"""Core domain types shared by the triggering, simulation and design layers.

The closed loop is described by the augmented state q = (x, e, tau): the
plant+controller state x, the network-induced error e (last transmitted
value minus current value, reset to zero at each transmission) and a
clock tau measuring time since the last transmission.

``ClosedLoopSystem`` holds the flow maps, ``Certificate`` the rest, the
output map included; ``check_pairing`` tells whether the two fit.

Every callable is called on one state: x, e and y as 1-D arrays (the flows
take float sequences too), s = |x| as a float.  A loop or certificate that
declares ``columns=True`` also takes an (n, N) block, one state per column:
f and g then return one derivative column per state, an (n_x, N) and an
(n_e, N) array, y_of_x an (n_y, N) block, and V, W, H, delta and the three
alphas (on an array of N norms) one value per column.  A one-state call
keeps its bits either way.  Only ``systems.check_assumption_sampled``, when
both the loop and the certificate declare them, and ``hybrid.r_monitor``, when
the certificate does, call on blocks; both lift undeclared callables with
``per_column``, one call per state.  ``dataclasses.replace`` keeps the
declaration, so a copy that puts in a one-state term or flow must declare
``columns=False``.  ``norm`` takes either form.

Every etclab type that holds arrays or callables compares and hashes by identity
(``eq=False``), so each object can key a cache; pure value types compare by value.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionError


def _identity(x):
    return x


def sq_columns(v):
    """v.v of each column of an (n, N) block."""
    return np.einsum("ij,ij->j", v, v)


def norm(v):
    """|v| of one state as a float, or of each column of an (n, N) block."""
    return math.sqrt(v.dot(v)) if v.ndim == 1 else np.sqrt(sq_columns(v))


def per_column(fn):
    """fn lifted to column blocks: one call per column, on that column of each block."""
    return lambda *blocks: np.array([fn(*cols) for cols in zip(*(b.T for b in blocks))]).T


def _check_gains(gamma, L, caller):
    if not (0 <= gamma < math.inf and 0 <= L < math.inf):
        raise ValueError(f"{caller}: gamma and L must be finite and nonnegative")


@dataclass(eq=False)
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


@dataclass(frozen=True, eq=False)
class ClosedLoopSystem:
    """Flow maps of the networked closed loop.

    ``f(x, e)`` is the derivative of x and ``g(x, e)`` the derivative of
    e.  Both get x and e as sequences of floats and return a sequence of
    floats (a list, a tuple or a 1-D array) of length n_x and n_e: the
    simulator passes list slices of its RK4 stage, the sampled checker the
    rows of its sample arrays (or column blocks, under ``columns``).  Only
    an ``ArithmeticError`` raised in a step (a float division by zero, an
    overflowing ``**``) ends it as a non-finite one; any other exception,
    such as ``math.sqrt``'s ValueError, propagates as itself, with no
    partial solution.  A flow written for
    arrays converts its input (``A @ np.asarray(x)``).  Both evaluators
    must vanish at the origin (the equilibrium) and be deterministic.  The
    output map belongs to the certificate.

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
    f: Callable[[Sequence[float], Sequence[float]], Sequence[float]]
    g: Callable[[Sequence[float], Sequence[float]], Sequence[float]]
    stacked_matrix: Optional[np.ndarray] = None
    name: str = ""
    columns: bool = False

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


@dataclass(frozen=True, eq=False)
class Certificate:
    """Lyapunov-type certificate for the networked loop.

    Carries the storage function V for the x-subsystem, the error
    measure W, the interconnection term H, the output weight delta, the
    decay rate alpha, and the gains (gamma, L) that determine the
    dwell-time ceiling.  ``alpha_lower``/``alpha_upper`` sandwich V by
    class-K-infinity bounds.  The certificate is global: the paper's
    inequalities hold at every (x, e), so it carries no radius.

    ``lti_form`` is the ``(ClosedLoopMatrices, LmiCertificate)`` pair that
    ``lti.extract_assumption`` built the terms from, None otherwise; only
    ``trigger`` reads it.  A copy that replaces W, H, delta, alpha or y_of_x
    keeps it, and terms that agree with it at ``trigger.event_screen``'s probe
    states go unnoticed, so such a copy should drop it (``lti_form=None``).
    ``columns`` declares that every term also takes column blocks (see the
    module docstring).
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
    lti_form: Optional[tuple] = field(default=None, repr=False)
    columns: bool = False

    def __post_init__(self):
        _check_gains(self.gamma, self.L, "Certificate")


def check_pairing(sys: ClosedLoopSystem, cert: Certificate):
    """Raise DimensionError unless the certificate's (n_x, n_e) are the loop's and
    its y_of_x gives n_y outputs on one state (the origin)."""
    if (cert.n_x, cert.n_e) != (sys.n_x, sys.n_e):
        raise DimensionError(
            f"certificate {cert.name!r} has (n_x, n_e) = ({cert.n_x}, {cert.n_e}) but "
            f"loop {sys.name!r} has ({sys.n_x}, {sys.n_e})"
        )
    shape = np.shape(cert.y_of_x(np.zeros(cert.n_x)))
    if shape != (cert.n_y,):
        raise DimensionError(f"y_of_x of certificate {cert.name!r} returned shape {shape} on "
                             f"one state, but {(cert.n_y,)} is needed")
