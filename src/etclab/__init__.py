"""Event-triggered control with an enforced minimum inter-transmission time.

The package covers the full pipeline: compute the dwell-time ceiling
masp(gamma, L), certify a closed loop against the Lyapunov-type
inequalities (analytically for the built-in benchmarks, constructively
for LTI loops, and by sampling for anything), simulate the hybrid
closed loop with events placed at the root of the RK4 excess polynomial on
LTI loops with a quadratic certificate form and localised by bisection to
``event_tol`` on the rest, and reproduce inter-transmission-time statistics
over seeded batches.
"""

from .errors import (
    CertificateError,
    ConfigError,
    DesignInfeasibleError,
    DimensionError,
    DivergenceError,
    DomainError,
    EtcLabError,
)
from .hybrid import HybridSolution, Segment, SimSettings, flow_step, r_monitor, simulate
from .linalg import (
    is_hurwitz,
    is_positive_definite,
    solve_lyapunov,
    spectral_norm,
    sym_eigenvalues,
)
from .lti import (
    ClosedLoopMatrices,
    LmiCertificate,
    LtiController,
    LtiPlant,
    assemble,
    design_certificate,
    extract_assumption,
    lmi_residual,
)
from .model import Certificate, ClosedLoopSystem, HybridState
from .montecarlo import BatchReport, BatchSpec, RunStats, emit_report, run_batch, sample_initial
from .systems import (
    AssumptionReport,
    check_assumption_sampled,
    lorenz_loop,
    lti_loop,
    tabuada_loop,
)
from .trigger import (
    TriggerConfig,
    ZetaParams,
    event_function,
    masp,
    zeta_time,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport",
    "BatchReport",
    "BatchSpec",
    "Certificate",
    "CertificateError",
    "ClosedLoopMatrices",
    "ClosedLoopSystem",
    "ConfigError",
    "DesignInfeasibleError",
    "DimensionError",
    "DivergenceError",
    "DomainError",
    "EtcLabError",
    "HybridSolution",
    "HybridState",
    "LmiCertificate",
    "LtiController",
    "LtiPlant",
    "RunStats",
    "Segment",
    "SimSettings",
    "TriggerConfig",
    "ZetaParams",
    "assemble",
    "check_assumption_sampled",
    "design_certificate",
    "emit_report",
    "event_function",
    "extract_assumption",
    "flow_step",
    "is_hurwitz",
    "is_positive_definite",
    "lmi_residual",
    "lorenz_loop",
    "lti_loop",
    "masp",
    "r_monitor",
    "run_batch",
    "sample_initial",
    "simulate",
    "solve_lyapunov",
    "spectral_norm",
    "sym_eigenvalues",
    "tabuada_loop",
    "zeta_time",
]
