"""Complex linear algebra kernel for small square matrices.

Everything operates on plain numpy arrays with complex entries. The only
spectral routine is the closed form for 2x2 Hermitian matrices, which is
all the rest of the package needs. The eigenvalue and entropy kernels come
twice: a scalar form for single operating points, and a batch form over
stacks of shape (..., 2, 2) that applies the same checks to every entry.
"""

from __future__ import annotations

from math import log2, sqrt
from typing import Iterable, NamedTuple

import numpy as np

from .errors import NumericError, ValidationError

HERMITICITY_TOL = 1e-12

# Spectrum values in [EIGENVALUE_FLOOR, 0) are treated as rounded zeros;
# anything below is a genuine positivity violation.
EIGENVALUE_FLOOR = -1e-12


class SpectrumPair(NamedTuple):
    """Two real eigenvalues, descending."""

    hi: float
    lo: float


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex matrix, rejecting NaN/Inf entries."""
    out = np.asarray(m, dtype=complex)
    if out.ndim != 2 or out.shape[0] != out.shape[1] or out.shape[0] < 1:
        raise ValidationError(f"{name} must be square, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValidationError(f"{name} contains non-finite entries")
    return out


def inner_product(a, b) -> complex:
    """Hilbert-Schmidt inner product Tr(a^dagger b)."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape != b.shape:
        raise ValidationError(
            f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}"
        )
    return complex(np.trace(a.conj().T @ b))


def hermiticity_residual(m) -> float:
    """Largest absolute entry of m - m^dagger; 0 for Hermitian input."""
    m = as_matrix(m)
    return float(np.abs(m - m.conj().T).max())


def hermitian_eigenvalues_2x2(m) -> SpectrumPair:
    """Eigenvalues of a 2x2 Hermitian matrix via (t +- sqrt(t^2 - 4d))/2.

    t is the trace and d the determinant. The discriminant t^2 - 4d is
    evaluated in its cancellation-free regrouping (m00 - m11)^2 +
    4 Re(m01 m10), which keeps nearly degenerate spectra accurate to
    machine precision. It is clamped to zero when rounding pushes it
    slightly negative; below -1e-12 it cannot come from a Hermitian
    matrix and raises NumericError.
    """
    m = as_matrix(m)
    if m.shape != (2, 2):
        raise ValidationError(f"expected a 2x2 matrix, got {m.shape[0]}x{m.shape[0]}")
    residual = float(np.abs(m - m.conj().T).max())
    if residual > HERMITICITY_TOL:
        raise ValidationError(
            f"matrix is not Hermitian: residual {residual:.3e} exceeds {HERMITICITY_TOL}"
        )
    t = float(m[0, 0].real + m[1, 1].real)
    diag_gap = float(m[0, 0].real - m[1, 1].real)
    disc = diag_gap * diag_gap + 4.0 * float((m[0, 1] * m[1, 0]).real)
    if disc < -1e-12:
        raise NumericError(f"negative eigenvalue discriminant {disc:.3e}")
    root = sqrt(max(disc, 0.0))
    return SpectrumPair((t + root) / 2.0, (t - root) / 2.0)


def spectrum_entropy(spectrum: Iterable[float]) -> float:
    """Shannon entropy in bits of a probability spectrum, with 0 log 0 = 0."""
    total = 0.0
    for p in spectrum:
        p = float(p)
        if p < EIGENVALUE_FLOOR:
            raise NumericError(f"spectrum value {p:.3e} below {EIGENVALUE_FLOOR}")
        if p > 1.0 + 1e-12:
            raise NumericError(f"spectrum value {p} exceeds 1")
        p = min(max(p, 0.0), 1.0)
        if p > 0.0:
            total -= p * log2(p)
    return total


def hermitian_eigenvalues_batch(m) -> np.ndarray:
    """hermitian_eigenvalues_2x2 over a stack of shape (..., 2, 2).

    Returns the spectra as shape (..., 2), descending along the last axis.
    The checks are those of the scalar kernel, applied to every matrix:
    finite entries and Hermiticity raise ValidationError, a discriminant
    below -1e-12 raises NumericError.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2:] != (2, 2):
        raise ValidationError(
            f"expected a stack of 2x2 matrices, got shape {m.shape}"
        )
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix stack contains non-finite entries")
    residual = float(np.abs(m - np.swapaxes(m, -1, -2).conj()).max(initial=0.0))
    if residual > HERMITICITY_TOL:
        raise ValidationError(
            f"matrix is not Hermitian: residual {residual:.3e} exceeds {HERMITICITY_TOL}"
        )
    m00, m11 = m[..., 0, 0].real, m[..., 1, 1].real
    t = m00 + m11
    diag_gap = m00 - m11
    m01, m10 = m[..., 0, 1], m[..., 1, 0]
    # Re(m01 m10) spelled out: numpy's complex product may fuse the
    # multiply-add and round differently from the scalar kernel.
    off_product = m01.real * m10.real - m01.imag * m10.imag
    disc = diag_gap * diag_gap + 4.0 * off_product
    lowest = float(disc.min(initial=0.0))
    if lowest < -1e-12:
        raise NumericError(f"negative eigenvalue discriminant {lowest:.3e}")
    root = np.sqrt(np.maximum(disc, 0.0))
    return np.stack(((t + root) / 2.0, (t - root) / 2.0), axis=-1)


def spectrum_entropy_batch(spectra) -> np.ndarray:
    """spectrum_entropy along the last axis of an array of spectra, with
    the same bounds, clamping and 0 log 0 = 0."""
    p = np.asarray(spectra, dtype=float)
    lowest = float(p.min(initial=np.inf))
    if lowest < EIGENVALUE_FLOOR:
        raise NumericError(f"spectrum value {lowest:.3e} below {EIGENVALUE_FLOOR}")
    highest = float(p.max(initial=-np.inf))
    if highest > 1.0 + 1e-12:
        raise NumericError(f"spectrum value {highest} exceeds 1")
    p = np.clip(p, 0.0, 1.0)
    positive = p > 0.0
    terms = np.where(positive, p * np.log2(np.where(positive, p, 1.0)), 0.0)
    return 0.0 - terms.sum(axis=-1)  # +0.0 for pure spectra, as in the scalar kernel
