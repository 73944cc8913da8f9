import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given

from helpers import IDENTITY, SIGMA1, SIGMA2, SIGMA3, bloch_vectors
from paulinoise import (
    BlochVector,
    ValidationError,
    bloch_to_density,
    check_bloch,
    check_density,
    closed_point,
    full_report,
    make_one_pauli,
    parse_bloch,
)
from paulinoise.linalg import _pairs, hermitian_eigenvalues_2x2
from paulinoise.measures import _bloch_of

# binary entropy of (1 + sqrt(0.97))/2, evaluated with 50-digit arithmetic
ENTROPY_AT_097 = 0.06412343509793366


def _h_in(a):
    # the input entropy full_report carries; the channel does not enter it
    return full_report(make_one_pauli(1, 0.5), bloch_to_density(a)).h_in


def test_maximally_mixed():
    assert np.array_equal(bloch_to_density((0, 0, 0)), np.eye(2) / 2)


def test_sigma3_eigenstate():
    assert np.array_equal(bloch_to_density((0, 0, 1)), [[1, 0], [0, 0]])


def test_sigma1_eigenstate():
    assert np.array_equal(
        bloch_to_density((1, 0, 0)), [[0.5, 0.5], [0.5, 0.5]]
    )


def _pauli_sum(a):
    rho = IDENTITY.copy()
    for component, pauli in zip(a, (SIGMA1, SIGMA2, SIGMA3)):
        rho += component * pauli
    return rho / 2.0


@given(bloch_vectors())
def test_bloch_to_density_equals_pauli_sum(a):
    # bit for bit, zero signs included: each component also as +0.0 and -0.0
    for v in itertools.product(*((c, 0.0, -0.0) for c in a)):
        assert np.array_equal(bloch_to_density(v).view(np.int64), _pauli_sum(v).view(np.int64))


def test_density_to_bloch_maximally_mixed():
    assert _bloch_of(_pairs(check_density(np.eye(2) / 2))) == BlochVector(0, 0, 0)


def test_density_to_bloch_pure_pole():
    assert _bloch_of(_pairs(check_density([[1, 0], [0, 0]]))) == BlochVector(0, 0, 1)


def test_density_to_bloch_general():
    rho = [[0.5, 0.25 - 0.3j], [0.25 + 0.3j, 0.5]]
    a = _bloch_of(_pairs(check_density(rho)))
    assert a.a1 == pytest.approx(0.5, abs=1e-15)
    assert a.a2 == pytest.approx(0.6, abs=1e-15)
    assert a.a3 == pytest.approx(0.0, abs=1e-15)


@given(bloch_vectors())
def test_round_trip(a):
    back = _bloch_of(_pairs(bloch_to_density(a)))
    for have, want in zip(back, a):
        assert have == pytest.approx(want, abs=1e-14)


@given(bloch_vectors())
def test_density_spectrum_is_half_one_plus_minus_norm(a):
    pair = hermitian_eigenvalues_2x2(bloch_to_density(a))
    assert pair.hi == pytest.approx((1 + a.norm) / 2, abs=1e-12)
    assert pair.lo == pytest.approx((1 - a.norm) / 2, abs=1e-12)


def test_state_entropy_maximally_mixed():
    assert _h_in((0, 0, 0)) == 1.0


def test_state_entropy_pure():
    assert _h_in((1, 0, 0)) == 0.0


def test_state_entropy_known_value():
    assert _h_in((0.5, 0.6, 0.6)) == pytest.approx(
        ENTROPY_AT_097, abs=1e-9
    )


@pytest.mark.parametrize(
    "direction",
    [(0.8, 0, 0), (0, 0.8, 0), (0, 0, -0.8), (0.48, -0.64, 0.0)],
)
def test_state_entropy_depends_only_on_length(direction):
    # |a| = 0.8 for every direction, including the non-axis-aligned one
    assert _h_in(direction) == pytest.approx(
        _h_in((0.8, 0, 0)), abs=1e-12
    )


def test_check_bloch_rejects_long_vector():
    with pytest.raises(ValidationError, match="exceeds 1"):
        check_bloch((0, 0, 2))


def test_check_bloch_rejects_nan():
    with pytest.raises(ValidationError):
        check_bloch((float("nan"), 0, 0))


def test_check_bloch_accepts_rounding_slack():
    assert check_bloch((1.0 + 1e-13, 0, 0)).a1 == 1.0 + 1e-13


@pytest.mark.parametrize(
    "a",
    ["000", b"000", {0.1, 0.2, 0.3}, frozenset({0.1, 0.2, 0.3}),
     {0.1: 0, 0.2: 0, 0.3: 0}],
    ids=["str", "bytes", "set", "frozenset", "dict"],
)
def test_check_bloch_rejects_text_and_unordered_containers(a):
    # text goes through parse_bloch; a set or dict has no component order
    with pytest.raises(ValidationError, match="not a real 3-vector"):
        check_bloch(a)


@pytest.mark.parametrize(
    "a",
    [["0.1", "0.2", "0.3"], [b"0", b"0", b"1"], [True, False, False],
     np.array([True, False, False]), [0.1, 0.2, 0.3 + 0j]],
    ids=["str", "bytes", "bool", "numpy-bool", "complex"],
)
def test_check_bloch_takes_only_real_components(a):
    with pytest.raises(ValidationError, match="not a real 3-vector"):
        check_bloch(a)
    with pytest.raises(ValidationError, match="not a real 3-vector"):
        closed_point(1, 0.5, a)


@pytest.mark.parametrize(
    "a",
    [[10**400, 0, 0], [0, -(10**400), 0], [0, 0, Fraction(-(10**400), 3)]],
    ids=["int", "-int", "-Fraction"],
)
def test_check_bloch_rejects_components_beyond_float_range(a):
    with pytest.raises(ValidationError, match="non-finite components"):
        check_bloch(a)
    with pytest.raises(ValidationError, match="non-finite components"):
        closed_point(1, 0.5, a)


def test_check_bloch_accepts_real_components_of_any_type():
    assert check_bloch([0, Fraction(1, 2), np.float32(0.25)]) == (0.0, 0.5, 0.25)
    assert check_bloch(np.array([0, 0, 1])) == (0.0, 0.0, 1.0)


def test_parse_bloch():
    assert parse_bloch("0.5,0.6,0.6") == BlochVector(0.5, 0.6, 0.6)


def test_parse_bloch_tolerates_spaces():
    assert parse_bloch(" 0.1, -0.2 ,0.3") == BlochVector(0.1, -0.2, 0.3)


@pytest.mark.parametrize("text", ["0.5,0.6", "1,2,3,4", "a,b,c", ""])
def test_parse_bloch_rejects_malformed(text):
    with pytest.raises(ValidationError):
        parse_bloch(text)


def test_check_density_rejects_non_hermitian():
    with pytest.raises(ValidationError, match="Hermitian"):
        check_density([[0.5, 0.5], [0.0, 0.5]])


def test_check_density_rejects_wrong_trace():
    with pytest.raises(ValidationError, match="trace"):
        check_density([[0.7, 0], [0, 0.7]])


def test_check_density_rejects_negative_eigenvalue():
    with pytest.raises(ValidationError, match="eigenvalue"):
        check_density([[1.2, 0], [0, -0.2]])
