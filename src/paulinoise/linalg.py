"""Complex linear algebra kernel for 2x2 matrices.

The one spectral routine is the closed form for 2x2 Hermitian matrices;
its one complex product, Re(m01 m10) in _discriminant, is spelled out as in
measures' Kraus contraction, so no spectrum depends on the BLAS kernel. The
eigenvalue and entropy kernels come twice: a scalar form (math.sqrt,
math.log2, Python floats) and a batch form over stacks of shape (..., 2, 2).
Each guard and the split (t +- sqrt(r))/2 exist once; both forms call them.
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
    """Eigenvalues of a 2x2 Hermitian matrix via (t +- sqrt(t^2 - 4d))/2,
    with t the trace and d the determinant. The discriminant t^2 - 4d is
    evaluated in its cancellation-free regrouping (_discriminant), which
    keeps nearly degenerate spectra accurate to machine precision, and
    floored by split_spectrum: below -ROUNDING_TOL it cannot come from a
    Hermitian matrix and raises NumericError."""
    return _eigenvalues_2x2(as_matrix(m))


def _check_hermitian(m: np.ndarray) -> None:
    """The Hermiticity guard of a 2x2 matrix or a stack of shape (..., 2, 2)."""
    residual = float(np.abs(m - np.swapaxes(m, -1, -2).conj()).max(initial=0.0))
    if residual > ROUNDING_TOL:
        raise ValidationError(
            f"matrix is not Hermitian: residual {residual:.3e} exceeds {ROUNDING_TOL}"
        )


def _discriminant(m00, m11, m01, m10):
    """(m00 - m11)^2 + 4 Re(m01 m10), floats or arrays; Re(m01 m10) is spelled
    out, as numpy's complex product may fuse the multiply-add."""
    gap = m00 - m11
    return gap * gap + 4.0 * (m01.real * m10.real - m01.imag * m10.imag)


def split_spectrum(t, r, name: str):
    """(t +- sqrt(r))/2, descending, with r floored at 0; below -ROUNDING_TOL
    it raises NumericError("negative <name> ..."). A Python float r gives a
    SpectrumPair via math.sqrt, an array one with a trailing (hi, lo) axis."""
    scalar = type(r) is float
    lowest = r if scalar else float(r.min(initial=0.0))
    if lowest < -ROUNDING_TOL:
        raise NumericError(f"negative {name} {lowest:.3e}")
    root = sqrt(max(r, 0.0)) if scalar else np.sqrt(np.maximum(r, 0.0))
    hi, lo = (t + root) / 2.0, (t - root) / 2.0
    return SpectrumPair(hi, lo) if scalar else np.stack((hi, lo), axis=-1)


def _eigenvalues_2x2(m: np.ndarray) -> SpectrumPair:
    """hermitian_eigenvalues_2x2 without the coercion, for a state that
    check_density has coerced and the matrices full_report builds from it."""
    _check_hermitian(m)
    (m00, m01), (m10, m11) = m.tolist()
    disc = _discriminant(m00.real, m11.real, m01, m10)
    return split_spectrum(m00.real + m11.real, disc, "eigenvalue discriminant")


def hermitian_eigenvalues_batch(m: np.ndarray) -> np.ndarray:
    """_eigenvalues_2x2 over a complex stack of shape (..., 2, 2) that the
    package built, so it takes no input checks; returns the spectra as shape
    (..., 2), descending. Its Hermiticity and discriminant guards still raise."""
    _check_hermitian(m)
    m00, m11 = m[..., 0, 0].real, m[..., 1, 1].real
    disc = _discriminant(m00, m11, m[..., 0, 1], m[..., 1, 0])
    return split_spectrum(m00 + m11, disc, "eigenvalue discriminant")


def _check_unit_interval(lowest: float, highest: float) -> None:
    """The spectrum floor and ceiling, with ROUNDING_TOL slack outside [0, 1]."""
    if lowest < -ROUNDING_TOL:
        raise NumericError(f"spectrum value {lowest:.3e} below {-ROUNDING_TOL}")
    if highest > 1.0 + ROUNDING_TOL:
        raise NumericError(f"spectrum value {highest} exceeds 1")


def spectrum_entropy(spectrum: Iterable[float]) -> float:
    """Shannon entropy in bits of a probability spectrum, with 0 log 0 = 0."""
    total = 0.0
    for p in spectrum:
        p = float(p)
        _check_unit_interval(p, p)
        p = min(max(p, 0.0), 1.0)
        if p > 0.0:
            total -= p * log2(p)
    return total


def spectrum_entropy_batch(spectra) -> np.ndarray:
    """spectrum_entropy along the last axis of an array of spectra, with
    the same bounds, clamping and 0 log 0 = 0."""
    p = np.asarray(spectra, dtype=float)
    _check_unit_interval(float(p.min(initial=np.inf)), float(p.max(initial=-np.inf)))
    p = np.clip(p, 0.0, 1.0)
    positive = p > 0.0
    terms = np.where(positive, p * np.log2(np.where(positive, p, 1.0)), 0.0)
    return 0.0 - terms.sum(axis=-1)  # +0.0 for pure spectra, as in the scalar kernel
