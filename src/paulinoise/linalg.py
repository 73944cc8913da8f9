"""Complex linear algebra kernel for 2x2 matrices.

The one spectral routine, _eigenvalues, is the closed form for a 2x2
Hermitian matrix given as its four row-major (re, im) pairs: Python floats
on the scalar routes, arrays that broadcast together on the batch routes.
Its guards and the split (t +- sqrt(r))/2 run unchanged on both. Its one
complex product, Re(m01 m10), is spelled out, as are _vdot's, so no
spectrum depends on the BLAS kernel or numpy's SIMD dispatch. The entropy
kernel comes twice: math.log2 on Python floats, np.log2 on arrays.
"""

from __future__ import annotations

from math import inf, log2, sqrt
from numbers import Number, Real
from typing import Iterable, NamedTuple

import numpy as np

from .errors import NumericError, ValidationError

# Python and numpy bools are numbers too; no count, axis, rate or entry takes one.
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
    """Coerce to a 2x2 complex matrix whose entries are numbers (no text or
    bool; an ndarray of numeric dtype passes whole), rejecting NaN/Inf."""
    numeric = isinstance(m, np.ndarray) and m.dtype.kind in "iufc"
    raw = m if numeric else np.asarray(m, dtype=object)
    if raw.shape != (2, 2):
        raise ValidationError(f"{name} must be 2x2, got shape {raw.shape}")
    entries = () if numeric else raw.flat
    if any(isinstance(z, _BOOLS) or not isinstance(z, Number) for z in entries):
        raise ValidationError(f"{name} entries must be numbers, got {m!r}")
    try:
        out = raw.astype(complex, copy=False)
        finite = np.all(np.isfinite(out))
    except (OverflowError, ValueError):  # beyond the float range (as_real's inf), or sNaN
        finite = False
    if not finite:
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


def _pairs(m):
    """The row-major (re, im) pairs of 2x2 nested entries, numbers or arrays."""
    return [(z.real, z.imag) for row in m for z in row]


def _vdot(u, v):
    """sum_k conj(u_k) v_k of two sequences of pairs, summed from 0 in order."""
    re = im = 0.0
    for (ur, ui), (vr, vi) in zip(u, v):
        re = re + (ur * vr + ui * vi)
        im = im + (ur * vi - ui * vr)
    return re, im


def hermitian_eigenvalues_2x2(m) -> SpectrumPair:
    """Eigenvalues of a 2x2 Hermitian matrix from outside: as_matrix, _eigenvalues."""
    return _eigenvalues(_pairs(as_matrix(m).tolist()))


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


def _eigenvalues(m):
    """Eigenvalues of a 2x2 Hermitian matrix m, given as its four row-major
    (re, im) pairs, as (t +- sqrt(r))/2: t is the trace, and r = t^2 - 4 det
    is (m00 - m11)^2 + 4 Re(m01 m10), accurate for nearly degenerate spectra.
    An entry of |m - m^dagger| past ROUNDING_TOL raises ValidationError."""
    (r00, i00), (r01, i01), (r10, i10), (r11, i11) = m
    parts = 2.0 * i00, 2.0 * i11, np.hypot(r01 - r10, i01 + i10)
    residual = max(float(np.abs(part).max(initial=0.0)) for part in parts)
    if residual > ROUNDING_TOL:
        raise ValidationError(
            f"matrix is not Hermitian: residual {residual:.3e} exceeds {ROUNDING_TOL}"
        )
    gap = r00 - r11
    disc = gap * gap + 4.0 * (r01 * r10 - i01 * i10)
    return split_spectrum(r00 + r11, disc, "eigenvalue discriminant")


def _check_unit_interval(lowest: float, highest: float) -> None:
    """The spectrum floor and ceiling, with ROUNDING_TOL slack outside [0, 1];
    NaN passes both comparisons, so it is rejected first."""
    if lowest != lowest or highest != highest:
        raise NumericError("spectrum value nan is not a number")
    if lowest < -ROUNDING_TOL:
        raise NumericError(f"spectrum value {lowest:.3e} below {-ROUNDING_TOL}")
    if highest > 1.0 + ROUNDING_TOL:
        raise NumericError(f"spectrum value {highest} exceeds 1")


def _spectrum_value(p) -> float:
    """A spectrum value as a float by the number rule (as_real)."""
    try:
        return as_real(p)
    except TypeError:
        raise ValidationError(f"spectrum values must be real numbers, got {p!r}") from None


def spectrum_entropy(spectrum: Iterable[float]) -> float:
    """Shannon entropy in bits of a probability spectrum, with 0 log 0 = 0;
    each value is a real number (as_real: no text or bool)."""
    return _entropy([_spectrum_value(p) for p in spectrum])


def _entropy(spectrum: Iterable[float]) -> float:
    """spectrum_entropy of Python floats, such as the SpectrumPairs that
    _eigenvalues returns: the bounds, clamping and 0 log 0 = 0."""
    total = 0.0
    for p in spectrum:
        _check_unit_interval(p, p)
        p = min(max(p, 0.0), 1.0)
        if p > 0.0:
            total -= p * log2(p)
    return total


def spectrum_entropy_batch(spectra) -> np.ndarray:
    """spectrum_entropy along the last axis of an array of spectra, with
    the same number rule, bounds, clamping and 0 log 0 = 0; an ndarray of
    integer or float dtype passes whole."""
    if isinstance(spectra, np.ndarray) and spectra.dtype.kind in "iuf":
        p = spectra.astype(float, copy=False)
    else:
        raw = np.asarray(spectra, dtype=object)
        p = np.array([_spectrum_value(z) for z in raw.flat], dtype=float).reshape(raw.shape)
    _check_unit_interval(float(p.min(initial=np.inf)), float(p.max(initial=-np.inf)))
    p = np.clip(p, 0.0, 1.0)
    positive = p > 0.0
    terms = np.where(positive, p * np.log2(np.where(positive, p, 1.0)), 0.0)
    return 0.0 - terms.sum(axis=-1)  # +0.0 for pure spectra, as in the scalar kernel
