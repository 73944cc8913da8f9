import numpy as np
import pytest
from hypothesis import given

from helpers import bloch_vectors
from paulinoise import (
    BlochVector,
    ValidationError,
    bloch_to_density,
    check_bloch,
    check_density,
    density_to_bloch,
    parse_bloch,
    state_entropy,
)
from paulinoise.linalg import hermitian_eigenvalues_2x2

# binary entropy of (1 + sqrt(0.97))/2, evaluated with 50-digit arithmetic
ENTROPY_AT_097 = 0.06412343509793366


def test_maximally_mixed():
    assert np.array_equal(bloch_to_density((0, 0, 0)), np.eye(2) / 2)


def test_sigma3_eigenstate():
    assert np.array_equal(bloch_to_density((0, 0, 1)), [[1, 0], [0, 0]])


def test_sigma1_eigenstate():
    assert np.array_equal(
        bloch_to_density((1, 0, 0)), [[0.5, 0.5], [0.5, 0.5]]
    )


def test_density_to_bloch_maximally_mixed():
    assert density_to_bloch(np.eye(2) / 2) == BlochVector(0, 0, 0)


def test_density_to_bloch_pure_pole():
    assert density_to_bloch([[1, 0], [0, 0]]) == BlochVector(0, 0, 1)


def test_density_to_bloch_general():
    rho = [[0.5, 0.25 - 0.3j], [0.25 + 0.3j, 0.5]]
    a = density_to_bloch(rho)
    assert a.a1 == pytest.approx(0.5, abs=1e-15)
    assert a.a2 == pytest.approx(0.6, abs=1e-15)
    assert a.a3 == pytest.approx(0.0, abs=1e-15)


@given(bloch_vectors())
def test_round_trip(a):
    back = density_to_bloch(bloch_to_density(a))
    for have, want in zip(back, a):
        assert have == pytest.approx(want, abs=1e-14)


@given(bloch_vectors())
def test_density_spectrum_is_half_one_plus_minus_norm(a):
    pair = hermitian_eigenvalues_2x2(bloch_to_density(a))
    assert pair.hi == pytest.approx((1 + a.norm) / 2, abs=1e-12)
    assert pair.lo == pytest.approx((1 - a.norm) / 2, abs=1e-12)


def test_state_entropy_maximally_mixed():
    assert state_entropy((0, 0, 0)) == 1.0


def test_state_entropy_pure():
    assert state_entropy((1, 0, 0)) == 0.0


def test_state_entropy_known_value():
    assert state_entropy((0.5, 0.6, 0.6)) == pytest.approx(
        ENTROPY_AT_097, abs=1e-9
    )


@pytest.mark.parametrize(
    "direction",
    [(0.8, 0, 0), (0, 0.8, 0), (0, 0, -0.8), (0.48, -0.64, 0.0)],
)
def test_state_entropy_depends_only_on_length(direction):
    # |a| = 0.8 for every direction, including the non-axis-aligned one
    assert state_entropy(direction) == pytest.approx(
        state_entropy((0.8, 0, 0)), abs=1e-12
    )


def test_check_bloch_rejects_long_vector():
    with pytest.raises(ValidationError, match="exceeds 1"):
        check_bloch((0, 0, 2))


def test_check_bloch_rejects_nan():
    with pytest.raises(ValidationError):
        check_bloch((float("nan"), 0, 0))


def test_check_bloch_accepts_rounding_slack():
    assert check_bloch((1.0 + 1e-13, 0, 0)).a1 == 1.0 + 1e-13


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
