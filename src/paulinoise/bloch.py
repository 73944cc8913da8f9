"""Bloch-vector representation of qubit states.

A qubit density matrix rho and a real 3-vector a of length at most one
are related by rho = (I + a1 s1 + a2 s2 + a3 s3) / 2, where s1, s2, s3
are the Pauli matrices.
"""

from __future__ import annotations

from math import isfinite, sqrt
from typing import NamedTuple

from .errors import ValidationError
from .linalg import ROUNDING_TOL, _eigenvalues, _pairs, as_matrix, as_real


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
    """Coerce real components (as_real) to a BlochVector and enforce |a| <= 1
    (plus rounding slack). Text and unordered containers are not vectors."""
    try:
        if isinstance(a, (str, bytes, set, frozenset, dict)):
            raise TypeError("not an ordered sequence of numbers")
        a1, a2, a3 = (as_real(c, "Bloch components must be real numbers") for c in a)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"not a real 3-vector: {a!r}") from exc
    vec = BlochVector(a1, a2, a3)
    if not all(isfinite(c) for c in vec):
        raise ValidationError(f"Bloch vector has non-finite components: {vec}")
    if vec.norm_sq > 1.0 + ROUNDING_TOL:
        raise ValidationError(
            f"Bloch vector length {vec.norm!r} exceeds 1 by {vec.norm - 1.0:.3g}"
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


def _density_pairs(a1, a2, a3):
    """The row-major (re, im) pairs of (I + a . sigma)/2 = [[1 + a3, a1 - i a2], [a1 + i a2,
    1 - a3]]/2, of numbers or arrays that broadcast. Integer constants only: each zero is
    +0.0, as from the Pauli sum, and Fraction or Decimal components stay exact."""
    zero = a3 - a3
    return [((1 + a3) / 2, zero), ((a1 + 0) / 2, (0 - a2) / 2),
            ((a1 + 0) / 2, (a2 + 0) / 2), ((1 - a3) / 2, zero)]


def bloch_to_density(a):
    """The 2x2 complex ndarray of _density_pairs of a Bloch vector, after check_bloch."""
    import numpy as np
    pairs = _density_pairs(*check_bloch(a))
    return np.array([complex(*z) for z in pairs]).reshape(2, 2)


def check_density(rho):
    """Validate Hermiticity (inside the eigenvalue kernel), unit trace and
    positivity of a 2x2 state; return it as as_matrix's complex ndarray."""
    rho = as_matrix(rho, "density matrix")
    spectrum = _eigenvalues(_pairs(rho.tolist()))
    trace = complex(rho[0, 0] + rho[1, 1])
    if abs(trace - 1.0) > ROUNDING_TOL:
        raise ValidationError(f"density matrix trace {trace:.15g} != 1")
    if spectrum.lo < -ROUNDING_TOL:
        raise ValidationError(
            f"density matrix has negative eigenvalue {spectrum.lo:.3e}"
        )
    return rho
