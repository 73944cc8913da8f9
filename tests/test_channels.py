import numpy as np
import pytest
from hypothesis import given, settings

from helpers import axes, bloch_vectors, retentions
from paulinoise import (
    KrausChannel,
    PauliAxis,
    ValidationError,
    apply_channel,
    bloch_to_density,
    completeness_residual,
    density_to_bloch,
    make_one_pauli,
)
from paulinoise.bloch import IDENTITY, SIGMA1
from paulinoise.channels import as_axis
from paulinoise.linalg import hermitian_eigenvalues_2x2


def test_noiseless_endpoint_is_identity_plus_zero():
    ch = make_one_pauli(1, 1.0)
    assert len(ch.ops) == 2
    assert np.array_equal(ch.ops[0], IDENTITY)
    assert np.array_equal(ch.ops[1], np.zeros((2, 2)))


def test_operator_scaling():
    ch = make_one_pauli(1, 0.75)
    assert np.array_equal(ch.ops[0], np.sqrt(0.75) * IDENTITY)
    assert np.array_equal(ch.ops[1], 0.5 * SIGMA1)


def test_sigma2_flip_operator_is_real():
    ch = make_one_pauli(2, 0.5)
    flip = ch.ops[1]
    assert np.all(flip.imag == 0)
    assert np.array_equal(flip, np.sqrt(0.5) * np.array([[0, -1], [1, 0]]))


def test_construction_metadata():
    ch = make_one_pauli("sigma3", 0.25)
    assert ch.axis is PauliAxis.SIGMA3
    assert ch.x == 0.25


@pytest.mark.parametrize("x", [-0.1, 1.0000001, float("nan"), None, "abc"])
def test_retention_out_of_range(x):
    with pytest.raises(ValidationError):
        make_one_pauli(1, x)


def test_axis_coercion():
    assert as_axis("SIGMA2") is PauliAxis.SIGMA2
    assert as_axis(3) is PauliAxis.SIGMA3
    with pytest.raises(ValidationError):
        as_axis(5)
    with pytest.raises(ValidationError):
        as_axis("sigma4")


def test_channel_is_a_value_of_axis_and_rate():
    ch = KrausChannel(1, 0.5)
    assert ch == make_one_pauli("sigma1", 0.5)
    assert hash(ch) == hash(make_one_pauli("sigma1", 0.5))
    assert ch != KrausChannel(1, 0.25)
    assert ch != KrausChannel(3, 0.5)
    assert len({ch, make_one_pauli(PauliAxis.SIGMA1, 0.5)}) == 1


@given(axes(), retentions())
def test_completeness_of_constructed_channel(axis, x):
    assert completeness_residual(make_one_pauli(axis, x)) <= 1e-15


def test_apply_kills_transverse_components_at_half():
    out = apply_channel(make_one_pauli(1, 0.5), bloch_to_density((0.5, 0.6, 0.6)))
    b = density_to_bloch(out)
    assert b.a1 == pytest.approx(0.5, abs=1e-15)
    assert b.a2 == pytest.approx(0.0, abs=1e-15)
    assert b.a3 == pytest.approx(0.0, abs=1e-15)


@given(axes(), bloch_vectors())
def test_apply_is_identity_at_x_one(axis, a):
    rho = bloch_to_density(a)
    assert np.allclose(apply_channel(make_one_pauli(axis, 1.0), rho), rho,
                       atol=1e-15)


def test_apply_sigma3_flips_transverse_sign():
    out = apply_channel(make_one_pauli(3, 0.2), bloch_to_density((0.6, 0.6, 0.5)))
    b = density_to_bloch(out)
    assert b.a1 == pytest.approx(-0.36, abs=1e-15)
    assert b.a2 == pytest.approx(-0.36, abs=1e-15)
    assert b.a3 == pytest.approx(0.5, abs=1e-15)


@settings(max_examples=60)
@given(axes(), retentions(), bloch_vectors())
def test_axis_component_preserved_transverse_scaled(axis, x, a):
    out = apply_channel(make_one_pauli(axis, x), bloch_to_density(a))
    b = density_to_bloch(out)
    scale = 2 * x - 1
    for k in range(3):
        expected = a[k] if k == axis - 1 else scale * a[k]
        assert b[k] == pytest.approx(expected, abs=1e-13)


@settings(max_examples=60)
@given(axes(), retentions(), bloch_vectors())
def test_output_spectra_agree_at_x_and_one_minus_x(axis, x, a):
    rho = bloch_to_density(a)
    direct = hermitian_eigenvalues_2x2(apply_channel(make_one_pauli(axis, x), rho))
    mirrored = hermitian_eigenvalues_2x2(
        apply_channel(make_one_pauli(axis, 1 - x), rho)
    )
    assert direct.hi == pytest.approx(mirrored.hi, abs=1e-12)
    assert direct.lo == pytest.approx(mirrored.lo, abs=1e-12)


@settings(max_examples=60)
@given(axes(), retentions(), bloch_vectors())
def test_output_positivity(axis, x, a):
    out = apply_channel(make_one_pauli(axis, x), bloch_to_density(a))
    assert hermitian_eigenvalues_2x2(out).lo >= -1e-12


@given(axes(), bloch_vectors())
def test_channel_at_half_is_a_projection(axis, a):
    ch = make_one_pauli(axis, 0.5)
    once = apply_channel(ch, bloch_to_density(a))
    twice = apply_channel(ch, once)
    assert np.allclose(twice, once, atol=1e-13)
