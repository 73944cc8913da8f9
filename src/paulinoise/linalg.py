"""Complex linear algebra kernel for 2x2 matrices.

Each kernel here has one body for Python floats, on the scalar routes, and
for arrays that broadcast together, on the batch routes. The one spectral
routine, _eigenvalues, is the closed form for a 2x2 Hermitian matrix given
as its four row-major (re, im) pairs; its guards and the split
(t +- sqrt(r))/2 give a SpectrumPair of floats or of arrays. Its one
complex product, Re(m01 m10), is spelled out, as are _vdot's, so no
spectrum depends on the BLAS kernel or numpy's SIMD dispatch. Nor does any
entropy: the one entropy kernel, _entropy, takes math.log2 of every value.
as_matrix, the Hermiticity guard and the array branches import numpy on use.
"""

from __future__ import annotations

from math import inf, log2, sqrt
from numbers import Number, Real
from typing import Iterable, NamedTuple

from .errors import NumericError, ValidationError

# The rounding slack of every guard (Hermiticity, trace, Bloch norm, spectra,
# discriminants, radicands): a value at most this far past its exact bound
# is rounding; anything further is a genuine violation.
ROUNDING_TOL = 1e-12


class SpectrumPair(NamedTuple):
    """Two real eigenvalues, descending."""

    hi: float
    lo: float


def as_matrix(m, name: str = "matrix"):
    """Coerce to a 2x2 complex ndarray whose entries are numbers (no text or
    bool; an ndarray of numeric dtype passes whole), rejecting NaN/Inf."""
    import numpy as np
    numeric = isinstance(m, np.ndarray) and m.dtype.kind in "iufc"
    raw = m if numeric else np.asarray(m, dtype=object)
    if raw.shape != (2, 2):
        raise ValidationError(f"{name} must be 2x2, got shape {raw.shape}")
    entries = () if numeric else raw.flat
    if any(isinstance(z, bool) or not isinstance(z, Number) for z in entries):
        raise ValidationError(f"{name} entries must be numbers, got {m!r}")
    try:
        out = raw.astype(complex, copy=False)
        finite = np.all(np.isfinite(out))
    except (OverflowError, ValueError):  # beyond the float range (as_real's inf), or sNaN
        finite = False
    if not finite:
        raise ValidationError(f"{name} contains non-finite entries")
    return out


def as_real(value, rule: str) -> float:
    """value as a float if it is a real number (no text or bool), else
    ValidationError(f"{rule}, got {value!r}") with the caller's rule."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValidationError(f"{rule}, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # beyond the float range: +-inf, which range checks reject
        return inf if value > 0 else -inf


def _pairs(m):
    """The row-major (re, im) pairs of 2x2 nested entries, numbers or arrays."""
    return [(z.real, z.imag) for row in m for z in row]


def _vdot(u, v):
    """sum_k conj(u_k) v_k of two sequences of pairs, summed in order from the integer 0."""
    re = im = 0
    for (ur, ui), (vr, vi) in zip(u, v):
        re = re + (ur * vr + ui * vi)
        im = im + (ur * vi - ui * vr)
    return re, im


def hermitian_eigenvalues_2x2(m) -> SpectrumPair:
    """Eigenvalues of a 2x2 Hermitian matrix from outside: as_matrix, then _eigenvalues
    of it times 2^-600 or 2^600, exactly, if its largest entry is past 2^400 or 2^-400."""
    pairs = _pairs(as_matrix(m).tolist())
    big = max(abs(v) for pair in pairs for v in pair)
    scale = 2.0**-600 if big > 2.0**400 else 2.0**600 if 0.0 < big < 2.0**-400 else 1.0
    hi, lo = _eigenvalues([(re * scale, im * scale) for re, im in pairs])
    return SpectrumPair(hi / scale, lo / scale)


def split_spectrum(t, r, name: str):
    """SpectrumPair((t + sqrt(r))/2, (t - sqrt(r))/2), with r floored at 0;
    below -ROUNDING_TOL it raises NumericError("negative <name> ..."). A
    Python float r takes math.sqrt, an array np.sqrt: both correctly rounded."""
    if type(r) is float:
        lowest, root = r, sqrt(max(r, 0.0))
    else:
        import numpy as np
        lowest, root = float(r.min(initial=0.0)), np.sqrt(np.maximum(r, 0.0))
    if lowest < -ROUNDING_TOL:
        raise NumericError(f"negative {name} {lowest:.3e}")
    return SpectrumPair((t + root) / 2.0, (t - root) / 2.0)


def _eigenvalues(m):
    """Eigenvalues of a 2x2 Hermitian matrix m, given as its four row-major
    (re, im) pairs, as (t +- sqrt(r))/2: t is the trace, and r = t^2 - 4 det
    is (m00 - m11)^2 + 4 Re(m01 m10), accurate for nearly degenerate spectra.
    An entry of |m - m^dagger| past ROUNDING_TOL raises ValidationError."""
    import numpy as np
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


def spectrum_entropy(spectrum: Iterable[float]) -> float:
    """Shannon entropy in bits of a probability spectrum, with 0 log 0 = 0:
    an iterable of real numbers (as_real: no text or bool)."""
    try:
        values = iter(spectrum)
    except TypeError:  # a number, None or a 0-d array
        raise ValidationError(
            f"spectrum must be an iterable of real numbers, got {spectrum!r}") from None
    return _entropy([as_real(p, "spectrum values must be real numbers") for p in values])


def _entropy(spectrum):
    """0 - sum_p p log2 p, summed in order, over spectrum values that are
    Python floats, such as the SpectrumPairs _eigenvalues returns, or arrays
    that broadcast: each value gets the bounds, the clamping to [0, 1] and
    0 log 0 = 0, and each array value math.log2 element by element."""
    total = 0.0
    for p in spectrum:
        if type(p) is float:
            _check_unit_interval(p, p)
            p = min(max(p, 0.0), 1.0)
            if p > 0.0:
                total -= p * log2(p)
            continue
        import numpy as np
        _check_unit_interval(float(p.min(initial=inf)), float(p.max(initial=-inf)))
        p = np.clip(p, 0.0, 1.0)
        # 0 log 1 = 0 log 0 = 0, and +0.0 for p = 1, as on floats
        logs = np.fromiter(map(log2, np.where(p > 0.0, p, 1.0).ravel().tolist()), float, p.size)
        total = total - p * logs.reshape(p.shape)
    return total
