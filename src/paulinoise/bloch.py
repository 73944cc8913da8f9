"""Bloch-vector representation of qubit states.

A qubit density matrix rho and a real 3-vector a of length at most one
are related by rho = (I + a1 s1 + a2 s2 + a3 s3) / 2, where s1, s2, s3
are the Pauli matrices.
"""

from __future__ import annotations

from math import isfinite, sqrt
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .linalg import (
    EIGENVALUE_FLOOR,
    SpectrumPair,
    _eigenvalues_2x2,
    as_matrix,
    spectrum_entropy,
)

BLOCH_NORM_TOL = 1e-12
TRACE_TOL = 1e-12

IDENTITY = np.eye(2, dtype=complex)
SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMAS = (SIGMA1, SIGMA2, SIGMA3)


class BlochVector(NamedTuple):
    a1: float
    a2: float
    a3: float

    @property
    def norm_sq(self) -> float:
        return self.a1 * self.a1 + self.a2 * self.a2 + self.a3 * self.a3

    @property
    def norm(self) -> float:
        return sqrt(self.norm_sq)


def check_bloch(a) -> BlochVector:
    """Coerce to a BlochVector and enforce |a| <= 1 (plus rounding slack)."""
    try:
        a1, a2, a3 = (float(c) for c in a)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"not a real 3-vector: {a!r}") from exc
    vec = BlochVector(a1, a2, a3)
    if not all(isfinite(c) for c in vec):
        raise ValidationError(f"Bloch vector has non-finite components: {vec}")
    if vec.norm_sq > 1.0 + BLOCH_NORM_TOL:
        raise ValidationError(
            f"Bloch vector length {vec.norm:.6g} exceeds 1 by {vec.norm - 1.0:.3g}"
        )
    return vec


def parse_bloch(text: str) -> BlochVector:
    """Parse the text form "a1,a2,a3" used by the command line."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ValidationError(
            f"expected three comma-separated numbers, got {text!r}"
        )
    try:
        components = [float(part.strip()) for part in parts]
    except ValueError:
        raise ValidationError(f"malformed number in {text!r}") from None
    return check_bloch(components)


def bloch_to_density(a) -> np.ndarray:
    """Density matrix (I + a . sigma) / 2 for a Bloch vector a."""
    a = check_bloch(a)
    rho = IDENTITY.copy()
    for component, pauli in zip(a, SIGMAS):
        rho += component * pauli
    return rho / 2.0


def check_density(rho) -> np.ndarray:
    """Validate Hermiticity (inside the eigenvalue kernel), unit trace and
    positivity of a 2x2 state."""
    rho = as_matrix(rho, "density matrix")
    spectrum = _eigenvalues_2x2(rho)
    trace = complex(np.trace(rho))
    if abs(trace - 1.0) > TRACE_TOL:
        raise ValidationError(f"density matrix trace {trace:.15g} != 1")
    if spectrum.lo < EIGENVALUE_FLOOR:
        raise ValidationError(
            f"density matrix has negative eigenvalue {spectrum.lo:.3e}"
        )
    return rho


def _bloch_of(rho: np.ndarray) -> BlochVector:
    return BlochVector(*(float(np.vdot(pauli, rho).real) for pauli in SIGMAS))


def density_to_bloch(rho) -> BlochVector:
    """Bloch components a_k = Tr(rho sigma_k); inverse of bloch_to_density."""
    return _bloch_of(check_density(rho))


def state_entropy(a) -> float:
    """Von Neumann entropy in bits of the state with Bloch vector a.

    The eigenvalues of (I + a . sigma)/2 are (1 +- |a|)/2, so this is the
    binary entropy of (1 + |a|)/2; 1 for the maximally mixed state and 0
    for any pure state.
    """
    a = check_bloch(a)
    n = a.norm
    return spectrum_entropy(SpectrumPair((1.0 + n) / 2.0, (1.0 - n) / 2.0))
