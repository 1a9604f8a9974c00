"""Emulation design for LTI loops: block matrices, LMI check, certificate.

Given a plant  xp' = Ap xp + Bp u,  y = Cp xp  and a stabilizing
controller  xc' = Ac xc + Bc y,  u = Cc xc + Dc y  designed without the
network, the sampled closed loop in the coordinates (x, e) with
x = (xp, xc) and e = (ey, eu) is linear,

    x' = A1 x + B1 e,      e' = A2 x + B2 e,

with block matrices assembled by :func:`assemble`.  Sent values are held,
so e' = -C_d x', where C_d x = (Cp xp, Cc xc) is the live part of what is
sent.  A quadratic certificate V(x) = x^T P x with gains

    W(e) = |e|,  H(x) = |A2 x|,  L = |B2|,  gamma = sqrt(mu),
    alpha(s) = eps2 s^2,  delta(y) = eps1 |y|^2

is valid whenever the block matrix

    [ A1^T P + P A1 + A2^T A2 + eps1 Cbar^T Cbar + eps2 I    P B1 ]
    [ B1^T P                                                -mu I ]

is negative semidefinite (Cbar = [Cp 0]).  :func:`design_certificate`
produces such a (P, mu) constructively, without an external SDP solver:
pick P from a Lyapunov solve with slack rho, then mu just large enough
for the Schur complement, and take the smallest gamma over a fixed grid
of 20 log-spaced slacks.  P is affine in the slack, so two solves price
the grid and give P at the cheapest slack; no slack is skipped.

A static gain u = K y is the controller ``LtiController(D=K)``, with no
controller state (n_c = 0).  For static full-state feedback (y = x) only
x is transmitted, so C_d = I, e' = -x' and the matrices collapse to
A1 = -A2 = A + B K and B1 = -B2 = B K, with n_e = n_x.
"""

from dataclasses import dataclass
from math import inf, sqrt

import numpy as np

from .errors import CertificateError, DesignInfeasibleError, DimensionError
from .linalg import (
    _TOL,
    _require_square_symmetric,
    as_matrix,
    is_hurwitz,
    solve_lyapunov,
    spectral_norm,
    sym_eigenvalues,
    symmetrize,
)
from .model import Certificate, norm, sq_columns

_FEASIBILITY_RTOL = 1e-7


def _set_abc(obj, owner, empty=(None, None, None)):
    """Coerce A, B and C in turn (None to zeros shaped as in ``empty``), then check them."""
    for name, shape in zip("ABC", empty):
        m = getattr(obj, name)
        m = np.zeros(shape) if m is None and shape else m
        object.__setattr__(obj, name, as_matrix(m, f"{owner} {name}"))
    n = obj.A.shape[0]
    if obj.A.shape[1] != n:
        raise DimensionError(f"{owner} A must be square")
    if obj.B.shape[0] != n:
        raise DimensionError(f"{owner} B row count must match A")
    if obj.C.shape[1] != n:
        raise DimensionError(f"{owner} C column count must match A")


def _check_eps(eps1, eps2):
    if not 0 <= eps1 < inf:
        raise CertificateError("eps1 must be finite and nonnegative")
    if not 0 < eps2 < inf:
        raise CertificateError("eps2 must be finite and positive")


@dataclass(frozen=True, eq=False)
class LtiPlant:
    """Plant matrices (Ap, Bp, Cp)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        _set_abc(self, "plant")

    @property
    def n_p(self):
        return self.A.shape[0]

    @property
    def n_u(self):
        return self.B.shape[1]

    @property
    def n_y(self):
        return self.C.shape[0]


@dataclass(frozen=True, eq=False, kw_only=True)
class LtiController:
    """Output-feedback controller (Ac, Bc, Cc, Dc).

    Only D is required: A, B and C default to the empty matrices of a
    static gain u = D y, shaped (0, 0), (0, n_y) and (n_u, 0).
    """

    A: np.ndarray = None
    B: np.ndarray = None
    C: np.ndarray = None
    D: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "D", as_matrix(self.D, "controller D"))
        n_u, n_y = self.D.shape
        _set_abc(self, "controller", empty=((0, 0), (0, n_y), (n_u, 0)))

    @property
    def n_c(self):
        return self.A.shape[0]


@dataclass(frozen=True, eq=False)
class ClosedLoopMatrices:
    """The blocks of x' = A1 x + B1 e, e' = A2 x + B2 e and the output map y = Cbar x."""

    A1: np.ndarray
    B1: np.ndarray
    A2: np.ndarray
    B2: np.ndarray
    Cbar: np.ndarray

    def __post_init__(self):
        for name in ("A1", "B1", "A2", "B2", "Cbar"):
            object.__setattr__(self, name, as_matrix(getattr(self, name), f"closed-loop block {name}"))
        n, m = self.A1.shape[0], self.B1.shape[1]
        expected = dict(A1=(n, n), B1=(n, m), A2=(m, n), B2=(m, m), Cbar=(self.Cbar.shape[0], n))
        for name, shape in expected.items():
            got = getattr(self, name).shape
            if got != shape:
                raise DimensionError(f"closed-loop block {name} has shape {got}, expected {shape}")

    @property
    def n_x(self):
        return self.A1.shape[0]

    @property
    def n_e(self):
        return self.B1.shape[1]


@dataclass(frozen=True, eq=False)
class LmiCertificate:
    """A candidate (P, eps1, eps2, mu) for the block matrix inequality; P is exactly symmetric."""

    P: np.ndarray
    eps1: float
    eps2: float
    mu: float

    def __post_init__(self):
        P = as_matrix(self.P, "P")
        _require_square_symmetric(P, "P")
        object.__setattr__(self, "P", symmetrize(P))
        _check_eps(self.eps1, self.eps2)
        if not 0 <= self.mu < inf:
            raise CertificateError("mu must be finite and nonnegative")

    @property
    def gamma(self):
        return sqrt(self.mu)


def assemble(plant: LtiPlant, ctrl: LtiController) -> ClosedLoopMatrices:
    """Build the closed-loop blocks from plant and controller matrices.

    Each case sets A1, B1 and the sent map C_d; then e' = -C_d x' gives A2,
    B2 and Cbar = C_d's first n_y rows.  C_d = I under static full-state
    feedback (y = x, u = K x, n_e = n_x), else blockdiag(Cp, Cc), e = (ey, eu).
    Raises ValueError naming the first of A1, B1, A2 and B2 that is not finite.
    """
    Ap, Bp, Cp = plant.A, plant.B, plant.C
    Ac, Bc, Cc, Dc = ctrl.A, ctrl.B, ctrl.C, ctrl.D
    if Dc.shape != (plant.n_u, plant.n_y):
        raise DimensionError(
            f"controller D has shape {Dc.shape}, expected ({plant.n_u}, {plant.n_y})"
        )
    if ctrl.B.shape[1] != plant.n_y:
        raise DimensionError(
            f"controller B has {ctrl.B.shape[1]} inputs, expected n_y = {plant.n_y}"
        )
    if ctrl.C.shape[0] != plant.n_u:
        raise DimensionError(
            f"controller C has {ctrl.C.shape[0]} outputs, expected n_u = {plant.n_u}"
        )

    # Finite entries can still overflow in the products; the check below names the block.
    with np.errstate(over="ignore", invalid="ignore"):
        BK = Bp @ Dc
        Acl = Ap + BK @ Cp
        if ctrl.n_c == 0 and np.array_equal(Cp, np.eye(plant.n_p)):
            A1, B1, Cd = Acl, BK, np.eye(plant.n_p)  # the full state is sent
        else:
            A1 = np.block([[Acl, Bp @ Cc], [Bc @ Cp, Ac]])
            B1 = np.block([[BK, Bp], [Bc, np.zeros((ctrl.n_c, plant.n_u))]])
            Cd = np.block([[Cp, np.zeros((plant.n_y, ctrl.n_c))],
                           [np.zeros((plant.n_u, plant.n_p)), Cc]])
        # e' = -C_d x'.  -(C_d A1), not (-C_d) A1: with C_d = I it is -A1 to the bit.
        blocks = dict(A1=A1, B1=B1, A2=-(Cd @ A1), B2=-(Cd @ B1), Cbar=Cd[: plant.n_y])
    for name in ("A1", "B1", "A2", "B2"):
        if not np.isfinite(blocks[name]).all():
            raise ValueError(
                f"closed-loop block {name} is not finite: products of the plant and "
                f"controller entries overflow"
            )
    return ClosedLoopMatrices(**blocks)


def lmi_residual(clm: ClosedLoopMatrices, cand: LmiCertificate) -> float:
    """Largest eigenvalue of the certificate block matrix, inf where the matrix overflows.

    The candidate is feasible iff the value is <= 0 (up to a small
    numerical tolerance chosen by the caller).
    """
    P = cand.P
    if P.shape != (clm.n_x, clm.n_x):
        raise DimensionError(
            f"P has shape {P.shape}, expected ({clm.n_x}, {clm.n_x})"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        S = (
            clm.A1.T @ P
            + P @ clm.A1
            + clm.A2.T @ clm.A2
            + cand.eps1 * (clm.Cbar.T @ clm.Cbar)
            + cand.eps2 * np.eye(clm.n_x)
        )
        PB = P @ clm.B1
    M = np.block([[S, PB], [PB.T, -cand.mu * np.eye(clm.n_e)]])
    if not np.isfinite(M).all():
        return inf
    return float(sym_eigenvalues(M).max())


def is_feasible(clm: ClosedLoopMatrices, cand: LmiCertificate):
    residual = lmi_residual(clm, cand)
    if residual == inf:  # the block overflowed, and A2^T A2 may have with it
        return False
    scale = max(1.0, spectral_norm(clm.A2.T @ clm.A2) + cand.eps2, cand.mu)
    return residual <= _FEASIBILITY_RTOL * scale


def _cheapest_slack(G0, G1, slacks):
    """The first slack r of least mu(r) = |G0 + (r - lo) G1|^2 / r, lo = slacks[0], and that mu.

    The slices for all slacks form one stack, priced by one batched SVD.  A
    slice that is not finite, or whose squared norm overflows, costs inf;
    such slices are zeroed first, so LAPACK sees only finite entries.
    argmin keeps the first of a tie.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        stack = G0 + (slacks - slacks[0])[:, None, None] * G1
        finite = np.isfinite(stack).all(axis=(1, 2))
        stack[~finite] = 0.0
        sigma = np.linalg.svd(stack, compute_uv=False).max(axis=1, initial=0.0)
        mu = np.where(finite, sigma * sigma, inf) / slacks
    i = int(np.argmin(mu))
    return slacks[i], float(mu[i])


def design_certificate(clm: ClosedLoopMatrices, eps1=1e-2, eps2=1e-2) -> LmiCertificate:
    """Constructively produce a feasible (P, eps1, eps2, mu).

    For each slack rho, P(rho) solves the Lyapunov equation with
    right-hand side A2^T A2 + eps1 Cbar^T Cbar + eps2 I + rho I, and
    mu(rho) = |B1^T P(rho)|^2 / rho makes the Schur complement exactly
    balance.  P is affine in rho, P(rho) = P(lo) + (rho - lo) P1 (lo the
    smallest slack, P1 the solution for right-hand side I), so two solves
    and one batched SVD price all 20 slacks (``_cheapest_slack``), and P
    and mu are those of the first cheapest one.  A failing solve raises
    DesignInfeasibleError, as does a right-hand side whose slack grid
    overflows, or a mu or P that overflows (an overflow prices a slack at
    inf).  The resulting gamma can exceed what a full SDP solve would
    find; it is always feasible.
    """
    _check_eps(eps1, eps2)
    if not is_hurwitz(clm.A1):
        raise DesignInfeasibleError(
            "A1 is not Hurwitz: the emulated controller does not stabilize the loop"
        )
    eye = np.eye(clm.n_x)
    with np.errstate(over="ignore", invalid="ignore"):  # the check below names an overflow
        base = clm.A2.T @ clm.A2 + eps1 * (clm.Cbar.T @ clm.Cbar) + eps2 * eye
    # 20 log-spaced slacks spanning [1e-3, 1e3] times the problem scale.
    scale = max(spectral_norm(base), np.finfo(float).tiny) if np.isfinite(base).all() else inf
    if not 1e3 * scale < inf:
        raise DesignInfeasibleError(
            "A2^T A2 + eps1 Cbar^T Cbar + eps2 I, or 1e3 times its norm, overflows"
        )
    slacks = scale * np.logspace(-3, 3, 20)
    # Not base itself: base + lo I stays definite when eps2 is below 1e-9.
    lo = slacks[0]
    P0, P1 = solve_lyapunov(clm.A1, base + lo * eye), solve_lyapunov(clm.A1, eye)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow prices a slack at inf
        G0, G1 = clm.B1.T @ P0, clm.B1.T @ P1
    rho, mu = _cheapest_slack(G0, G1, slacks)
    if not mu < inf:
        raise DesignInfeasibleError(f"mu = |B1^T P|^2 / rho overflows at slack {rho:.3e}")
    with np.errstate(over="ignore", invalid="ignore"):
        P = P0 + (rho - lo) * P1
    if not np.isfinite(P).all():
        raise DesignInfeasibleError(f"P = P0 + (rho - lo) P1 overflows at slack {rho:.3e}")
    cand = LmiCertificate(P=P, eps1=eps1, eps2=eps2, mu=mu)
    if not is_feasible(clm, cand):
        raise DesignInfeasibleError(
            f"constructed candidate fails the feasibility check "
            f"(residual {lmi_residual(clm, cand):.3e})"
        )
    return cand


def extract_assumption(clm: ClosedLoopMatrices, cand: LmiCertificate) -> Certificate:
    """Turn a feasible LMI candidate into the quadratic certificate."""
    if not is_feasible(clm, cand):
        raise CertificateError(
            f"candidate is not feasible (residual {lmi_residual(clm, cand):.3e})"
        )
    P = cand.P
    eigs = np.linalg.eigvalsh(P)  # one eigensolve: definiteness and the V bounds
    p_lo, p_hi = float(eigs[0]), float(eigs[-1])
    if not p_lo > _TOL:  # is_positive_definite's threshold
        raise CertificateError("P must be positive definite")
    A2, B2, Cbar = clm.A2, clm.B2, clm.Cbar
    eps1, eps2 = cand.eps1, cand.eps2
    L = spectral_norm(B2)
    gamma = cand.gamma

    # Each term takes one state or a column block.  The event excess calls H
    # and delta at every test, so their one-state forms make no further call.
    def V(x):
        if x.ndim == 1:
            return float(x.dot(P).dot(x))
        return np.einsum("ij,ij->j", x, P.dot(x))

    def H(x):
        v = A2.dot(x)
        return sqrt(v.dot(v)) if v.ndim == 1 else norm(v)

    def delta(y):
        return eps1 * (float(y.dot(y)) if y.ndim == 1 else sq_columns(y))

    return Certificate(
        V=V,
        W=norm,
        H=H,
        delta=delta,
        alpha=lambda s: eps2 * s * s,
        gamma=gamma,
        L=L,
        alpha_lower=lambda s: p_lo * s * s,
        alpha_upper=lambda s: p_hi * s * s,
        n_x=clm.n_x,
        n_e=clm.n_e,
        n_y=Cbar.shape[0],
        y_of_x=Cbar.dot,
        name="lti-quadratic",
        lti_form=(clm, cand),
        columns=True,
    )
