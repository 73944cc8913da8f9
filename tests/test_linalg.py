import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from paulinoise import (
    NumericError,
    SpectrumPair,
    ValidationError,
    hermitian_eigenvalues_2x2,
    hermiticity_residual,
    inner_product,
    spectrum_entropy,
)
from paulinoise import linalg
from paulinoise.bloch import IDENTITY, SIGMA1, SIGMA2, SIGMA3
from paulinoise.linalg import hermitian_eigenvalues_batch, spectrum_entropy_batch

_entry = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)


def _hermitian_2x2(a, d, b_re, b_im):
    b = complex(b_re, b_im)
    return np.array([[a, b], [b.conjugate(), d]], dtype=complex)


def test_inner_product_identity():
    assert inner_product(IDENTITY, IDENTITY) == pytest.approx(2 + 0j)


@pytest.mark.parametrize("a, b", [(SIGMA1, SIGMA2), (SIGMA1, SIGMA3), (SIGMA2, SIGMA3)])
def test_inner_product_pauli_orthogonality(a, b):
    assert inner_product(a, b) == pytest.approx(0 + 0j, abs=1e-15)


def test_inner_product_sigma2_with_itself():
    assert inner_product(SIGMA2, SIGMA2) == pytest.approx(2 + 0j)


def test_inner_product_dimension_mismatch():
    with pytest.raises(ValidationError):
        inner_product(IDENTITY, np.eye(3))


def test_inner_product_rejects_nonfinite():
    bad = np.array([[np.nan, 0], [0, 0]])
    with pytest.raises(ValidationError):
        inner_product(bad, IDENTITY)


@given(_entry, _entry, _entry, _entry, _entry, _entry, _entry, _entry)
def test_inner_product_with_itself_is_squared_frobenius_norm(
    a, b, c, d, e, f, g, h
):
    m = np.array([[complex(a, b), complex(c, d)], [complex(e, f), complex(g, h)]])
    value = inner_product(m, m)
    assert abs(value.imag) <= 1e-15
    assert value.real >= 0.0
    assert value.real == pytest.approx(float(np.sum(np.abs(m) ** 2)), abs=1e-13)


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


def test_eigenvalues_reject_non_hermitian():
    with pytest.raises(ValidationError):
        hermitian_eigenvalues_2x2(np.array([[0, 1], [0, 0]]))


def test_eigenvalues_reject_wrong_shape():
    with pytest.raises(ValidationError):
        hermitian_eigenvalues_2x2(np.eye(3))


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


# batched kernels: element-by-element agreement with the scalar kernels,
# and the same checks on every entry of a stack


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


def test_batched_eigenvalues_equal_scalar_kernel():
    batch = _edge_hermitian_batch(np.random.default_rng(3))
    spectra = hermitian_eigenvalues_batch(batch.reshape(5, -1, 2, 2))
    assert spectra.shape == (5, len(batch) // 5, 2)
    for m, pair in zip(batch, spectra.reshape(-1, 2)):
        assert tuple(pair) == hermitian_eigenvalues_2x2(m)


@pytest.mark.parametrize(
    "bad",
    [
        np.array([[0, 1], [0, 0]], dtype=complex),
        np.array([[0.5, 0], [0, np.nan]], dtype=complex),
        np.array([[np.inf, 0], [0, 0.5]], dtype=complex),
    ],
)
def test_batched_eigenvalues_reject_invalid_entry(bad):
    batch = np.array([IDENTITY / 2, bad, SIGMA3])
    with pytest.raises(ValidationError):
        hermitian_eigenvalues_batch(batch)
    with pytest.raises(ValidationError):
        hermitian_eigenvalues_2x2(bad)


def test_batched_eigenvalues_reject_wrong_shape():
    with pytest.raises(ValidationError):
        hermitian_eigenvalues_batch(np.zeros((4, 3, 3)))


def test_negative_discriminant_raises_numeric_error(monkeypatch):
    # A Hermitian matrix cannot produce one, so the Hermiticity gate is
    # widened to let [[0, 1], [-1, 0]] (discriminant -4) reach the check.
    monkeypatch.setattr(linalg, "HERMITICITY_TOL", 10.0)
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
    batch = np.array([spectrum, (0.3, 0.7), spectrum])
    values = spectrum_entropy_batch(batch)
    assert values.shape == (3,)
    expected = spectrum_entropy(spectrum)
    assert values[0] == pytest.approx(expected, abs=1e-15)
    assert values[2] == values[0]
    assert values[1] == pytest.approx(spectrum_entropy((0.3, 0.7)), abs=1e-15)


def test_batched_entropy_matches_scalar_on_random_spectra():
    hi = np.random.default_rng(8).uniform(0.5, 1.0, size=500)
    spectra = np.stack((hi, 1.0 - hi), axis=-1)
    for value, spectrum in zip(spectrum_entropy_batch(spectra), spectra):
        assert value == pytest.approx(spectrum_entropy(spectrum), abs=1e-15)


@pytest.mark.parametrize("bad", [(1.0, -1.1e-12), (1.0 + 1.1e-12, 0.0), (1.1, 0.0)])
def test_batched_entropy_rejects_out_of_range_values(bad):
    with pytest.raises(NumericError):
        spectrum_entropy_batch(np.array([(0.5, 0.5), bad]))
    with pytest.raises(NumericError):
        spectrum_entropy(bad)
