"""Quantum-correlation laboratory for qubit-qudit (2 x d) states.

Measures (geometric discord in closed and spectral form, its lower
bound, negativity of quantumness, entanglement negativity), a
tomography-free direct-measurement protocol built from local rotations
and a CNOT, and NMR-style relaxation dynamics with sudden-transition
detection.
"""
from .bloch import (
    BellDiagonalState,
    BlochRecord,
    InvalidStateError,
    bloch_decompose,
    check_density_matrix,
    random_density_matrix,
)
from .channels import (
    RelaxationParams,
    Trajectory,
    TransitionPoint,
    detect_transition,
    evolve,
    make_trajectory,
    one_sided_slopes,
)
from .eigen import hermitian_eigenvalues, sym3_eigenvalues
from .measures import (
    CorrelationReport,
    full_report,
    geometric_discord_closed,
    geometric_discord_eig,
    is_bell_diagonal,
    negativity,
    negativity_of_quantumness_bell,
    q_lower_bound,
    report_from_record,
    s_matrix,
)
from .protocol import (
    ROTATION_TABLE,
    measurement_budget,
    rotation_gate,
    run_direct_protocol,
)

__version__ = "0.1.0"

__all__ = [
    "BellDiagonalState",
    "BlochRecord",
    "CorrelationReport",
    "InvalidStateError",
    "ROTATION_TABLE",
    "RelaxationParams",
    "Trajectory",
    "TransitionPoint",
    "bloch_decompose",
    "check_density_matrix",
    "detect_transition",
    "evolve",
    "full_report",
    "geometric_discord_closed",
    "geometric_discord_eig",
    "hermitian_eigenvalues",
    "is_bell_diagonal",
    "make_trajectory",
    "measurement_budget",
    "negativity",
    "negativity_of_quantumness_bell",
    "one_sided_slopes",
    "q_lower_bound",
    "random_density_matrix",
    "report_from_record",
    "rotation_gate",
    "run_direct_protocol",
    "s_matrix",
    "sym3_eigenvalues",
]
