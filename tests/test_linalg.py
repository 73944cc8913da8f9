from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import (
    IDENTITY,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    hermitian_eigenvalues_batch,
    hermiticity_residual,
)
from paulinoise import (
    KrausChannel,
    NumericError,
    SpectrumPair,
    ValidationError,
    check_density,
    environment_entropy_oracle,
    full_report,
    hermitian_eigenvalues_2x2,
    spectrum_entropy,
)
from paulinoise import linalg
from paulinoise.linalg import (
    _eigenvalues,
    _entropy,
    _pairs,
)

_entry = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)


def _hermitian_2x2(a, d, b_re, b_im):
    b = complex(b_re, b_im)
    return np.array([[a, b], [b.conjugate(), d]], dtype=complex)


def test_eigenvalues_scalar_matrix():
    assert hermitian_eigenvalues_2x2(IDENTITY / 2) == SpectrumPair(0.5, 0.5)


def test_eigenvalues_real_symmetric():
    # characteristic polynomial x^2 - x + 3/16, roots 3/4 and 1/4
    m = np.array([[0.5, 0.25], [0.25, 0.5]])
    pair = hermitian_eigenvalues_2x2(m)
    assert pair.hi == pytest.approx(0.75, abs=1e-15)
    assert pair.lo == pytest.approx(0.25, abs=1e-15)


def test_eigenvalues_sigma3():
    assert hermitian_eigenvalues_2x2(SIGMA3) == SpectrumPair(1.0, -1.0)


@pytest.mark.parametrize(
    "m, expected",
    [
        ([[1e200, 0], [0, 0]], (1e200, 0.0)),
        ([[1e154, 1e154], [1e154, 1e154]], (2e154, 0.0)),
        ([[1e200, 0], [0, -1e200]], (1e200, -1e200)),
        ([[1e-200, 0], [0, 0]], (1e-200, 0.0)),
        ([[0, 1e-200j], [-1e-200j, 0]], (1e-200, -1e-200)),
        ([[5e-324, 0], [0, 0]], (5e-324, 0.0)),
    ],
    ids=["1e200", "1e154", "1e200-split", "1e-200", "1e-200-imag", "subnormal"],
)
def test_eigenvalues_of_large_and_tiny_entries_are_exact(m, expected):
    # unscaled, the squared gap overflows (inf, -inf) or underflows to 0,
    # which splits [[1e-200, 0], [0, 0]] into (5e-201, 5e-201)
    assert hermitian_eigenvalues_2x2(m) == SpectrumPair(*expected)


def test_eigenvalues_of_large_entries_keep_the_hermiticity_guard():
    with pytest.raises(ValidationError):
        hermitian_eigenvalues_2x2([[1e200, 1e200], [0, 0]])


def test_eigenvalues_reject_non_hermitian():
    with pytest.raises(ValidationError):
        hermitian_eigenvalues_2x2(np.array([[0, 1], [0, 0]]))


def test_eigenvalues_reject_wrong_shape():
    with pytest.raises(ValidationError):
        hermitian_eigenvalues_2x2(np.eye(3))


# The public entries that take a state. check_density and the eigenvalue
# kernel take a 2x2 matrix, by as_matrix's one coercion; full_report and the
# oracle take its Bloch vector, by check_bloch's, and refuse every matrix.
MATRIX_ENTRIES = {"check_density": check_density, "eigenvalues": hermitian_eigenvalues_2x2}
BLOCH_ENTRIES = {
    "full_report": lambda a: full_report(KrausChannel(1, 0.3), a),
    "oracle": lambda a: environment_entropy_oracle(KrausChannel(2, 0.3), a),
}
ENTRY_POINTS = pytest.mark.parametrize("entry", [*MATRIX_ENTRIES, *BLOCH_ENTRIES])


@ENTRY_POINTS
@pytest.mark.parametrize(
    "bad, message",
    [
        (np.eye(3) / 3, r"must be 2x2, got shape \(3, 3\)"),
        (np.ones((2, 3)), r"must be 2x2, got shape \(2, 3\)"),
        ([[1.0]], r"must be 2x2, got shape \(1, 1\)"),
        ([0.5, 0.5], r"must be 2x2, got shape \(2,\)"),
        ([[1, 0], [0]], r"must be 2x2, got shape \(2,\)"),
        ([["0.5", "x", "y"]], r"must be 2x2, got shape \(1, 3\)"),
        ([[0.5, 0.0], [0.0, np.nan]], "non-finite"),
        ([[np.inf, 0.0], [0.0, 0.5]], "non-finite"),
        ([[10**400, 0], [0, 0]], "non-finite"),
        ([[Fraction(10**400), 0], [0, 0]], "non-finite"),
        ([[Decimal("sNaN"), 0], [0, 0]], "non-finite"),
        ([["0.5", 0], [0, "0.5"]], "entries must be numbers"),
        ([[b"1", 0], [0, 0]], "entries must be numbers"),
        ([[True, False], [False, False]], "entries must be numbers"),
        ([[True, 0.5], [0.0, 0.5]], "entries must be numbers"),
        (np.array([[True, False], [False, False]]), "entries must be numbers"),
        ([[0.5, 0], [0, "x"]], "entries must be numbers"),
        ([[0.5, 0], [0, {}]], "entries must be numbers"),
        ([[np.nan, 0], [0, "x"]], "entries must be numbers"),
    ],
    ids=["3x3", "2x3", "1x1", "vector", "ragged", "text-1x3", "nan", "inf",
         "int-beyond-float", "Fraction-beyond-float", "signalling-nan",
         "text", "bytes", "bools", "bool-and-floats", "bool-array", "text-entry",
         "dict-entry", "nan-and-text"],
)
def test_2x2_entry_points_share_one_coercion(entry, bad, message):
    if entry in MATRIX_ENTRIES:
        with pytest.raises(ValidationError, match=message):
            MATRIX_ENTRIES[entry](bad)
        return
    with pytest.raises(ValidationError) as info:
        BLOCH_ENTRIES[entry](bad)
    assert str(info.value) == f"not a real 3-vector: {bad!r}"


# Each number type as the entries of the maximally mixed matrix and as the
# components of the Bloch vector (1/2, 0, -1/4). A Decimal is a number but
# not a real number: a matrix entry only (test_bloch rejects it as a component).
NUMBER_CASES = {
    "Fraction": ([[Fraction(1, 2), 0], [0, Fraction(1, 2)]],
                 (Fraction(1, 2), 0, Fraction(-1, 4))),
    "numpy-numbers": ([[np.float32(0.5), np.int64(0)], [0j, np.complex128(0.5)]],
                      (np.float32(0.5), np.int64(0), np.float64(-0.25))),
    "Decimal": ([[Decimal("0.5"), 0], [0, Decimal("0.5")]], None),
    "float-array": (np.array([[1, 0], [0, 1]]) / 2, np.array([1, 0, -0.5]) / 2),
}


@pytest.mark.parametrize("case, entry", [
    pytest.param(case, entry, id=f"{case}-{entry}")
    for case, (_, vector) in NUMBER_CASES.items()
    for entry in (*MATRIX_ENTRIES, *(BLOCH_ENTRIES if vector is not None else ()))
])
def test_2x2_entry_points_take_any_number(case, entry):
    matrix, vector = NUMBER_CASES[case]
    if entry in MATRIX_ENTRIES:
        np.testing.assert_equal(MATRIX_ENTRIES[entry](matrix), MATRIX_ENTRIES[entry](np.eye(2) / 2))
    else:
        np.testing.assert_equal(BLOCH_ENTRIES[entry](vector), BLOCH_ENTRIES[entry]((0.5, 0.0, -0.25)))


@given(_entry, _entry, _entry, _entry)
@example(0.0, 0.0, 0.0, 5e-324)
def test_eigenvalues_match_trace_and_determinant(a, d, b_re, b_im):
    # det of a Hermitian 2x2 is a*d - |b|^2; np.linalg.det goes through an
    # LU factorisation that returns nan on subnormal entries such as 5e-324
    m = _hermitian_2x2(a, d, b_re, b_im)
    pair = hermitian_eigenvalues_2x2(m)
    assert pair.hi >= pair.lo
    assert pair.hi + pair.lo == pytest.approx(np.trace(m).real, abs=1e-12)
    det = a * d - (b_re * b_re + b_im * b_im)
    assert pair.hi * pair.lo == pytest.approx(det, abs=1e-12)


@given(_entry, _entry, _entry, _entry)
def test_eigenvalues_match_lapack(a, d, b_re, b_im):
    m = _hermitian_2x2(a, d, b_re, b_im)
    pair = hermitian_eigenvalues_2x2(m)
    lo, hi = np.linalg.eigvalsh(m)
    assert pair.hi == pytest.approx(hi, abs=1e-12)
    assert pair.lo == pytest.approx(lo, abs=1e-12)


@given(_entry, _entry, _entry, _entry, st.floats(min_value=-3, max_value=3,
                                                 allow_nan=False))
def test_eigenvalues_scale_linearly(a, d, b_re, b_im, s):
    m = _hermitian_2x2(a, d, b_re, b_im)
    pair = hermitian_eigenvalues_2x2(m)
    scaled = hermitian_eigenvalues_2x2(s * m)
    expected = (s * pair.hi, s * pair.lo) if s >= 0 else (s * pair.lo, s * pair.hi)
    assert scaled.hi == pytest.approx(expected[0], abs=1e-12)
    assert scaled.lo == pytest.approx(expected[1], abs=1e-12)


@pytest.mark.parametrize(
    "matrix, expected",
    [
        (IDENTITY, 0.0),
        (SIGMA2, 0.0),
        (np.array([[0, 1], [0, 0]]), 1.0),
    ],
)
def test_hermiticity_residual(matrix, expected):
    assert hermiticity_residual(matrix) == expected


def test_spectrum_entropy_pure():
    assert spectrum_entropy((1.0, 0.0)) == 0.0


def test_spectrum_entropy_uniform():
    assert spectrum_entropy((0.5, 0.5)) == 1.0


def test_spectrum_entropy_known_value():
    # -(3/4) log2(3/4) - (1/4) log2(1/4), evaluated independently
    assert spectrum_entropy((0.75, 0.25)) == pytest.approx(
        0.8112781244591328, abs=1e-15
    )


def test_spectrum_entropy_clamps_rounding_noise():
    assert spectrum_entropy((1.0, -1e-13)) == 0.0


def test_spectrum_entropy_rejects_negative_value():
    with pytest.raises(NumericError):
        spectrum_entropy((1.0, -1e-9))


def test_spectrum_entropy_rejects_value_above_one():
    with pytest.raises(NumericError):
        spectrum_entropy((1.1,))


NOT_REAL = "spectrum values must be real numbers, got "
NOT_ITERABLE = "spectrum must be an iterable of real numbers, got "
# Each bad spectrum with its message: the first value the number rule
# rejects, or the spectrum itself when it is not iterable.
BAD_SPECTRA = [
    (["0.5", "0.5"], NOT_REAL + repr("0.5")), ([b"1"], NOT_REAL + repr(b"1")),
    ([True], NOT_REAL + "True"), ([np.bool_(False), 1.0], NOT_REAL + repr(np.bool_(False))),
    ([0.5, 0.5 + 0j], NOT_REAL + "(0.5+0j)"),
    ([Decimal("0.5"), 0.5], NOT_REAL + "Decimal('0.5')"), ([None], NOT_REAL + "None"),
    (0.5, NOT_ITERABLE + "0.5"), (None, NOT_ITERABLE + "None"),
    (np.array(0.5), NOT_ITERABLE + "array(0.5)"),
]


@pytest.mark.parametrize(
    "bad, message", BAD_SPECTRA, ids=[f"bad{i}" for i in range(len(BAD_SPECTRA))]
)
@pytest.mark.parametrize("kernel", [spectrum_entropy])
def test_spectrum_entropy_follows_the_number_rule(kernel, bad, message):
    with pytest.raises(ValidationError) as info:
        kernel(bad)
    assert str(info.value) == message


@pytest.mark.parametrize("kernel", [spectrum_entropy])
def test_spectrum_entropy_takes_any_real_number(kernel):
    assert kernel([Fraction(1, 2), np.float32(0.5)]) == 1.0
    assert kernel([1, np.int64(0)]) == 0.0
    assert kernel(np.array([1, 0])) == 0.0


@pytest.mark.parametrize(
    "bad", [(float("nan"), 1.0), (1.0, float("nan")), (float("nan"), float("nan"))]
)
def test_spectrum_nan_is_rejected(bad):
    with pytest.raises(NumericError, match="spectrum value nan is not a number"):
        spectrum_entropy(bad)
    with pytest.raises(NumericError, match="spectrum value nan is not a number"):
        _entropy(_columns([(0.5, 0.5), bad]))


# the kernels on arrays: element-by-element agreement with the kernels on
# floats, and the same checks on every entry of a stack


def _columns(spectra):
    """The SpectrumPair of arrays of a sequence of spectra, one per row."""
    return SpectrumPair(*np.array(spectra, dtype=float).T)


def _hermitian_batch(rng, n):
    a, d, b_re, b_im = rng.uniform(-1.0, 1.0, size=(4, n))
    batch = np.empty((n, 2, 2), dtype=complex)
    batch[:, 0, 0] = a
    batch[:, 1, 1] = d
    batch[:, 0, 1] = b_re + 1j * b_im
    batch[:, 1, 0] = b_re - 1j * b_im
    return batch


def _edge_hermitian_batch(rng):
    random = _hermitian_batch(rng, 200)
    diagonal = random.copy()
    diagonal[:, 0, 1] = diagonal[:, 1, 0] = 0.0
    near_degenerate = random.copy()
    near_degenerate[:, 1, 1] = near_degenerate[:, 0, 0] + rng.uniform(
        -1e-9, 1e-9, size=200
    )
    near_degenerate[:, 0, 1] *= 1e-8
    near_degenerate[:, 1, 0] *= 1e-8
    exact = np.array([IDENTITY / 2, SIGMA1, SIGMA2, SIGMA3, np.zeros((2, 2))])
    return np.concatenate((random, diagonal, near_degenerate, exact))


def _bits(values):
    return [float(v).hex() for v in values]


NON_HERMITIAN_KINDS = (
    "imaginary-diagonal", "real-off-diagonal", "imaginary-off-diagonal"
)


def _skewed(kind, d):
    # a state whose |m - m^dagger| has largest entry d, in one kind of entry
    m = np.array([[0.5, 0.25 + 0.1j], [0.25 - 0.1j, 0.5]])
    if kind == "imaginary-diagonal":
        m[0, 0] += 0.5j * d
    elif kind == "real-off-diagonal":
        m[0, 1] += d
    else:
        m[1, 0] += 1j * d
    return m


def test_batched_eigenvalues_equal_scalar_kernel():
    # one kernel, _eigenvalues, on Python-number pairs and on array pairs,
    # with non-Hermitian matrices just inside the slack among the inputs
    inside = [_skewed(k, 0.999 * linalg.ROUNDING_TOL) for k in NON_HERMITIAN_KINDS]
    for m in inside:
        assert 0.0 < hermiticity_residual(m) < linalg.ROUNDING_TOL
        np.testing.assert_array_equal(check_density(m), m)
    batch = np.concatenate((_edge_hermitian_batch(np.random.default_rng(3)), inside))
    spectra = hermitian_eigenvalues_batch(batch.reshape(8, -1, 2, 2))
    assert spectra.shape == (8, len(batch) // 8, 2)
    # array pairs that broadcast with Python floats: the diagonal's imaginary
    # parts, which enter only the Hermiticity guard, as 0.0
    (r00, _), m01, m10, (r11, _) = _pairs(np.moveaxis(batch, 0, -1))
    broadcast = np.stack(_eigenvalues([(r00, 0.0), m01, m10, (r11, 0.0)]), axis=-1)
    for m, pair, other in zip(batch, spectra.reshape(-1, 2), broadcast):
        scalar = _eigenvalues(_pairs(m.tolist()))
        assert type(scalar) is SpectrumPair
        assert _bits(pair) == _bits(other) == _bits(scalar)
        assert _bits(hermitian_eigenvalues_2x2(m)) == _bits(scalar)


@pytest.mark.parametrize(
    "entry",
    [
        hermitian_eigenvalues_2x2,
        lambda m: hermitian_eigenvalues_batch(np.array([IDENTITY / 2, m, SIGMA3])),
        check_density,
    ],
    ids=["eigenvalues", "batch", "check_density"],
)
@pytest.mark.parametrize("kind", NON_HERMITIAN_KINDS)
def test_hermiticity_residual_reported_just_outside(kind, entry):
    m = _skewed(kind, 1.001 * linalg.ROUNDING_TOL)
    residual = hermiticity_residual(m)
    assert residual > linalg.ROUNDING_TOL
    with pytest.raises(ValidationError) as info:
        entry(m)
    assert str(info.value) == (
        f"matrix is not Hermitian: residual {residual:.3e} exceeds 1e-12"
    )


@pytest.mark.parametrize(
    "bad",
    [
        np.array([[0, 1], [0, 0]], dtype=complex),
        np.array([[0.5, 0], [0, np.nan]], dtype=complex),
        np.array([[np.inf, 0], [0, 0.5]], dtype=complex),
    ],
)
def test_batched_eigenvalues_reject_invalid_entry(bad):
    # the batch kernel takes finite stacks the package built; only the
    # public scalar kernel checks entries from outside
    if np.all(np.isfinite(bad)):
        with pytest.raises(ValidationError):
            hermitian_eigenvalues_batch(np.array([IDENTITY / 2, bad, SIGMA3]))
    with pytest.raises(ValidationError):
        hermitian_eigenvalues_2x2(bad)


def test_negative_discriminant_raises_numeric_error(monkeypatch):
    # A Hermitian matrix cannot produce one, so the Hermiticity gate is
    # widened to let [[0, 1], [-1, 0]] (discriminant -4) reach the check.
    monkeypatch.setattr(linalg, "ROUNDING_TOL", 2.0)
    skew = np.array([[0, 1], [-1, 0]], dtype=complex)
    with pytest.raises(NumericError):
        hermitian_eigenvalues_batch(np.array([IDENTITY / 2, skew]))
    with pytest.raises(NumericError):
        hermitian_eigenvalues_2x2(skew)


@pytest.mark.parametrize(
    "spectrum",
    [
        (1.0, 0.0),
        (0.0, 0.0),
        (0.5, 0.5),
        (0.75, 0.25),
        (1.0, -1e-13),
        (1.0 + 5e-13, -1e-12),
        (0.999999999, 1e-9),
        (1e-300, 1.0),
    ],
)
def test_batched_entropy_matches_scalar(spectrum):
    values = _entropy(_columns([spectrum, (0.3, 0.7), spectrum]))
    assert values.shape == (3,)
    expected = spectrum_entropy(spectrum)
    assert values[0] == pytest.approx(expected, abs=1e-15)
    assert values[2] == values[0]
    assert values[1] == pytest.approx(spectrum_entropy((0.3, 0.7)), abs=1e-15)


def test_batched_entropy_matches_scalar_on_random_spectra():
    hi = np.random.default_rng(8).uniform(0.5, 1.0, size=500)
    spectra = np.stack((hi, 1.0 - hi), axis=-1)
    for value, spectrum in zip(_entropy(_columns(spectra)), spectra):
        assert value == pytest.approx(spectrum_entropy(spectrum), abs=1e-15)


def test_batched_entropy_equals_scalar_kernel_bit_for_bit():
    # one kernel takes math.log2 on floats and on arrays, so no entropy
    # follows numpy's SIMD dispatch
    u = np.random.default_rng(22).random(20_000)
    spectra = np.stack((np.maximum(u, 1.0 - u), np.minimum(u, 1.0 - u)), axis=-1)
    expected = np.array([_entropy(SpectrumPair(*s)) for s in spectra.tolist()])
    assert np.array_equal(_entropy(_columns(spectra)).view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("bad", [(1.0, -1.1e-12), (1.0 + 1.1e-12, 0.0), (1.1, 0.0)])
def test_batched_entropy_rejects_out_of_range_values(bad):
    with pytest.raises(NumericError):
        _entropy(_columns([(0.5, 0.5), bad]))
    with pytest.raises(NumericError):
        spectrum_entropy(bad)
