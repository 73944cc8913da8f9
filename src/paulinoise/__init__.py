"""One-Pauli qubit noise channels and their information measures.

The package models the bit-flip, bit-phase-flip and phase-flip channels as
Kraus maps and computes quantum noise (entropy exchange), coherent
information, entangled fidelity and mutual information by three routes,
each with one scalar entry point that takes the state as its Bloch vector:
full_report (Kraus numerics), closed_point (the published closed forms)
and environment_entropy_oracle (the system-environment dilation).
"""

from .bloch import (
    BlochVector,
    bloch_to_density,
    check_bloch,
    check_density,
    parse_bloch,
)
from .channels import (
    KrausChannel,
    PauliAxis,
    check_retention,
    completeness_residual,
    make_one_pauli,
)
from .closedform import (
    ClosedFormPoint,
    closed_point,
    fidelity_paper_closed,
)
from .errors import NumericError, ValidationError
from .linalg import (
    SpectrumPair,
    hermitian_eigenvalues_2x2,
    spectrum_entropy,
)
from .measures import (
    ChannelReport,
    environment_entropy_oracle,
    full_report,
)

__version__ = "0.25.0"

__all__ = [
    "BlochVector",
    "ChannelReport",
    "ClosedFormPoint",
    "KrausChannel",
    "NumericError",
    "PauliAxis",
    "SpectrumPair",
    "ValidationError",
    "bloch_to_density",
    "check_bloch",
    "check_density",
    "check_retention",
    "closed_point",
    "completeness_residual",
    "environment_entropy_oracle",
    "fidelity_paper_closed",
    "full_report",
    "hermitian_eigenvalues_2x2",
    "make_one_pauli",
    "parse_bloch",
    "spectrum_entropy",
]
