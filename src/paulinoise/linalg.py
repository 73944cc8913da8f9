"""Complex linear algebra kernel for 2x2 matrices.

Everything operates on plain numpy arrays with complex entries. The only
spectral routine is the closed form for 2x2 Hermitian matrices, which is
all the rest of the package needs. The eigenvalue and entropy kernels come
twice: a scalar form for single operating points, and a batch form over
stacks of shape (..., 2, 2) that applies the same guards to every entry.
"""

from __future__ import annotations

from math import inf, log2, sqrt
from numbers import Real
from typing import Iterable, NamedTuple

import numpy as np

from .errors import NumericError, ValidationError

# Python and numpy bools are numbers too; no count, axis, rate or component takes one.
_BOOLS = (bool, np.bool_)

# The rounding slack of every guard (Hermiticity, trace, Bloch norm, spectra,
# discriminants, radicands): a value at most this far past its exact bound
# is rounding; anything further is a genuine violation.
ROUNDING_TOL = 1e-12


class SpectrumPair(NamedTuple):
    """Two real eigenvalues, descending."""

    hi: float
    lo: float


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2x2 complex matrix, rejecting NaN/Inf entries."""
    out = np.asarray(m, dtype=complex)
    if out.shape != (2, 2):
        raise ValidationError(f"{name} must be 2x2, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValidationError(f"{name} contains non-finite entries")
    return out


def as_real(value) -> float:
    """value as a float if it is a real number, else TypeError: no text or bool."""
    if isinstance(value, _BOOLS) or not isinstance(value, Real):
        raise TypeError(f"not a real number: {value!r}")
    try:
        return float(value)
    except OverflowError:  # beyond the float range: +-inf, which range checks reject
        return inf if value > 0 else -inf


def hermitian_eigenvalues_2x2(m) -> SpectrumPair:
    """Eigenvalues of a 2x2 Hermitian matrix via (t +- sqrt(t^2 - 4d))/2.

    t is the trace and d the determinant. The discriminant t^2 - 4d is
    evaluated in its cancellation-free regrouping (m00 - m11)^2 +
    4 Re(m01 m10), which keeps nearly degenerate spectra accurate to
    machine precision. It is clamped to zero when rounding pushes it
    slightly negative; below -ROUNDING_TOL it cannot come from a Hermitian
    matrix and raises NumericError.
    """
    return _eigenvalues_2x2(as_matrix(m))


def _eigenvalues_2x2(m: np.ndarray) -> SpectrumPair:
    """hermitian_eigenvalues_2x2 without the coercion, for a state that
    check_density has coerced and the matrices full_report builds from it."""
    residual = float(np.abs(m - m.conj().T).max())
    if residual > ROUNDING_TOL:
        raise ValidationError(
            f"matrix is not Hermitian: residual {residual:.3e} exceeds {ROUNDING_TOL}"
        )
    t = float(m[0, 0].real + m[1, 1].real)
    diag_gap = float(m[0, 0].real - m[1, 1].real)
    disc = diag_gap * diag_gap + 4.0 * float((m[0, 1] * m[1, 0]).real)
    if disc < -ROUNDING_TOL:
        raise NumericError(f"negative eigenvalue discriminant {disc:.3e}")
    root = sqrt(max(disc, 0.0))
    return SpectrumPair((t + root) / 2.0, (t - root) / 2.0)


def spectrum_entropy(spectrum: Iterable[float]) -> float:
    """Shannon entropy in bits of a probability spectrum, with 0 log 0 = 0."""
    total = 0.0
    for p in spectrum:
        p = float(p)
        if p < -ROUNDING_TOL:
            raise NumericError(f"spectrum value {p:.3e} below {-ROUNDING_TOL}")
        if p > 1.0 + ROUNDING_TOL:
            raise NumericError(f"spectrum value {p} exceeds 1")
        p = min(max(p, 0.0), 1.0)
        if p > 0.0:
            total -= p * log2(p)
    return total


def hermitian_eigenvalues_batch(m: np.ndarray) -> np.ndarray:
    """_eigenvalues_2x2 over a complex stack of shape (..., 2, 2) that the
    package built, so it takes no input checks; returns the spectra as shape
    (..., 2), descending. The guards apply to what it derives: Hermiticity
    raises ValidationError, a discriminant below -ROUNDING_TOL NumericError.
    """
    residual = float(np.abs(m - np.swapaxes(m, -1, -2).conj()).max(initial=0.0))
    if residual > ROUNDING_TOL:
        raise ValidationError(
            f"matrix is not Hermitian: residual {residual:.3e} exceeds {ROUNDING_TOL}"
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
    if lowest < -ROUNDING_TOL:
        raise NumericError(f"negative eigenvalue discriminant {lowest:.3e}")
    root = np.sqrt(np.maximum(disc, 0.0))
    return np.stack(((t + root) / 2.0, (t - root) / 2.0), axis=-1)


def spectrum_entropy_batch(spectra) -> np.ndarray:
    """spectrum_entropy along the last axis of an array of spectra, with
    the same bounds, clamping and 0 log 0 = 0."""
    p = np.asarray(spectra, dtype=float)
    lowest = float(p.min(initial=np.inf))
    if lowest < -ROUNDING_TOL:
        raise NumericError(f"spectrum value {lowest:.3e} below {-ROUNDING_TOL}")
    highest = float(p.max(initial=-np.inf))
    if highest > 1.0 + ROUNDING_TOL:
        raise NumericError(f"spectrum value {highest} exceeds 1")
    p = np.clip(p, 0.0, 1.0)
    positive = p > 0.0
    terms = np.where(positive, p * np.log2(np.where(positive, p, 1.0)), 0.0)
    return 0.0 - terms.sum(axis=-1)  # +0.0 for pure spectra, as in the scalar kernel
