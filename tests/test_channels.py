from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import (
    IDENTITY,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    axes,
    bloch_vectors,
    matrix_of,
    retentions,
)
from paulinoise import (
    KrausChannel,
    PauliAxis,
    ValidationError,
    bloch_to_density,
    closed_point,
    completeness_residual,
    fidelity_paper_closed,
    full_report,
    make_one_pauli,
)
from paulinoise import channels
from paulinoise.channels import as_axis
from paulinoise.linalg import _pairs, hermitian_eigenvalues_2x2
from paulinoise.measures import _kraus_contraction


def test_noiseless_endpoint_is_identity_plus_zero():
    ch = make_one_pauli(1, 1.0)
    assert len(ch.ops) == 2
    assert all(len(op) == 4 for op in ch.ops)
    assert np.array_equal(matrix_of(ch.ops[0]), IDENTITY)
    assert np.array_equal(matrix_of(ch.ops[1]), np.zeros((2, 2)))


def test_operator_scaling():
    ch = make_one_pauli(1, 0.75)
    assert np.array_equal(matrix_of(ch.ops[0]), np.sqrt(0.75) * IDENTITY)
    assert np.array_equal(matrix_of(ch.ops[1]), 0.5 * SIGMA1)


@given(axes(), retentions())
def test_operators_are_the_pauli_matrices_scaled(axis, x):
    keep, flip = (matrix_of(op) for op in make_one_pauli(axis, x).ops)
    prefactor = -1j if axis is PauliAxis.SIGMA2 else 1.0
    assert np.array_equal(keep, np.sqrt(x) * IDENTITY)
    assert np.array_equal(flip, prefactor * np.sqrt(1 - x) * (SIGMA1, SIGMA2, SIGMA3)[axis - 1])


def test_sigma2_flip_operator_is_real():
    ch = make_one_pauli(2, 0.5)
    assert all(im == 0.0 for _, im in ch.ops[1])
    flip = matrix_of(ch.ops[1])
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


BOOLS = [True, False, np.True_, np.False_]
AXIS_AND_RATE_ENTRY_POINTS = {
    "KrausChannel": KrausChannel,
    "make_one_pauli": make_one_pauli,
    "closed_point": lambda axis, x: closed_point(axis, x, (0.5, 0.6, 0.6)),
    "fidelity_paper_closed": lambda axis, x: fidelity_paper_closed(
        axis, x, (0.5, 0.6, 0.6)
    ),
}


@pytest.mark.parametrize("flag", BOOLS, ids=repr)
@pytest.mark.parametrize("entry", AXIS_AND_RATE_ENTRY_POINTS)
def test_bool_is_not_an_axis(entry, flag):
    with pytest.raises(ValidationError) as info:
        AXIS_AND_RATE_ENTRY_POINTS[entry](flag, 0.5)
    assert str(info.value) == f"axis must be 1, 2 or 3, got {flag!r}"


@pytest.mark.parametrize("flag", BOOLS, ids=repr)
@pytest.mark.parametrize("entry", AXIS_AND_RATE_ENTRY_POINTS)
def test_bool_is_not_a_rate(entry, flag):
    with pytest.raises(ValidationError) as info:
        AXIS_AND_RATE_ENTRY_POINTS[entry](1, flag)
    assert str(info.value) == f"x must be a real number, got {flag!r}"


# Axes are integers (numbers.Integral, then operator.index); a float, complex
# or Decimal that equals 1, 2 or 3, or an array of any shape, is not one.
NOT_AXES = [2.0, 2 + 0j, Decimal(2), np.float64(2.0), np.array([2]), np.array(2)]
# Integers outside 1..3: below 1 as_count's minimum rejects them, above 3 PauliAxis.
OUT_OF_RANGE_AXES = [0, -1, 4, 10**30, np.int64(0), np.uint8(4)]
# Rates are real numbers; text is parsed only by the command line.
NOT_RATES = ["0.5", b"0.5", np.str_("0.5"), " 1e-1 ", 0.5 + 0j, np.complex128(0.5)]


@pytest.mark.parametrize("value", NOT_AXES, ids=repr)
@pytest.mark.parametrize("entry", AXIS_AND_RATE_ENTRY_POINTS)
def test_non_integer_number_is_not_an_axis(entry, value):
    with pytest.raises(ValidationError) as info:
        AXIS_AND_RATE_ENTRY_POINTS[entry](value, 0.5)
    assert str(info.value) == f"axis must be 1, 2 or 3, got {value!r}"


@pytest.mark.parametrize("value", OUT_OF_RANGE_AXES, ids=repr)
@pytest.mark.parametrize("entry", AXIS_AND_RATE_ENTRY_POINTS)
def test_integer_outside_one_to_three_is_not_an_axis(entry, value):
    with pytest.raises(ValidationError) as info:
        AXIS_AND_RATE_ENTRY_POINTS[entry](value, 0.5)
    assert str(info.value) == f"axis must be 1, 2 or 3, got {value!r}"


@pytest.mark.parametrize("value", NOT_RATES, ids=repr)
@pytest.mark.parametrize("entry", AXIS_AND_RATE_ENTRY_POINTS)
def test_text_and_complex_are_not_rates(entry, value):
    with pytest.raises(ValidationError) as info:
        AXIS_AND_RATE_ENTRY_POINTS[entry](1, value)
    assert str(info.value) == f"x must be a real number, got {value!r}"


# Reals too large for a float are rates out of range, not an OverflowError.
HUGE_RATES = [10**400, -(10**400), Fraction(10**400, 3), Fraction(-(10**400), 3)]


@pytest.mark.parametrize(
    "value", HUGE_RATES, ids=["int", "-int", "Fraction", "-Fraction"]
)
@pytest.mark.parametrize("entry", AXIS_AND_RATE_ENTRY_POINTS)
def test_rate_beyond_float_range_is_out_of_range(entry, value):
    sign = "-" if value < 0 else ""
    with pytest.raises(ValidationError) as info:
        AXIS_AND_RATE_ENTRY_POINTS[entry](1, value)
    assert str(info.value) == f"x must be in [0, 1], got {sign}inf"


@pytest.mark.parametrize(
    "axis, x",
    [(np.int64(2), 0.5), (PauliAxis.SIGMA2, Fraction(1, 2)),
     ("sigma2", np.float32(0.5)), (2, 1), (2, np.int64(0))],
    ids=repr,
)
def test_integer_axes_and_real_rates_of_any_type_are_accepted(axis, x):
    ch = KrausChannel(axis, x)
    assert ch.axis is PauliAxis.SIGMA2
    assert ch.x == float(x) and type(ch.x) is float


def test_channel_is_a_value_of_axis_and_rate():
    ch = KrausChannel(1, 0.5)
    assert ch == make_one_pauli("sigma1", 0.5)
    assert hash(ch) == hash(make_one_pauli("sigma1", 0.5))
    assert ch != KrausChannel(1, 0.25)
    assert ch != KrausChannel(3, 0.5)
    assert len({ch, make_one_pauli(PauliAxis.SIGMA1, 0.5)}) == 1


def test_kraus_operators_and_pauli_constants_are_read_only():
    ch = KrausChannel(1, 0.75)
    rho = bloch_to_density((0.5, 0.6, 0.6))
    before = full_report(ch, rho)
    for ops in (ch.ops, ch.ops[1], ch.ops[1][1]):
        with pytest.raises(TypeError, match="does not support item assignment"):
            ops[1] = 0.9
    for constant in (channels._KEEP, channels._FLIPS, channels._FLIPS[0]):
        with pytest.raises(TypeError, match="does not support item assignment"):
            constant[0] = 3
    assert full_report(ch, rho) == before
    assert completeness_residual(ch) <= 1e-15
    assert (bloch_to_density((0, 0, 0)) == IDENTITY / 2).all()


@given(axes(), retentions())
def test_completeness_of_constructed_channel(axis, x):
    assert completeness_residual(make_one_pauli(axis, x)) <= 1e-15


def test_apply_kills_transverse_components_at_half():
    ops = make_one_pauli(1, 0.5).ops
    b = _kraus_contraction(ops, _pairs(bloch_to_density((0.5, 0.6, 0.6))))[3]
    assert b.a1 == pytest.approx(0.5, abs=1e-15)
    assert b.a2 == pytest.approx(0.0, abs=1e-15)
    assert b.a3 == pytest.approx(0.0, abs=1e-15)


@given(axes(), bloch_vectors())
def test_apply_is_identity_at_x_one(axis, a):
    rho = bloch_to_density(a)
    out = _kraus_contraction(make_one_pauli(axis, 1.0).ops, _pairs(rho))[0]
    assert np.allclose(out, _pairs(rho), atol=1e-15)


def test_apply_sigma3_flips_transverse_sign():
    ops = make_one_pauli(3, 0.2).ops
    b = _kraus_contraction(ops, _pairs(bloch_to_density((0.6, 0.6, 0.5))))[3]
    assert b.a1 == pytest.approx(-0.36, abs=1e-15)
    assert b.a2 == pytest.approx(-0.36, abs=1e-15)
    assert b.a3 == pytest.approx(0.5, abs=1e-15)


@settings(max_examples=60)
@given(axes(), retentions(), bloch_vectors())
def test_axis_component_preserved_transverse_scaled(axis, x, a):
    b = _kraus_contraction(make_one_pauli(axis, x).ops, _pairs(bloch_to_density(a)))[3]
    scale = 2 * x - 1
    for k in range(3):
        expected = a[k] if k == axis - 1 else scale * a[k]
        assert b[k] == pytest.approx(expected, abs=1e-13)


@settings(max_examples=60)
@given(axes(), retentions(), bloch_vectors())
def test_output_spectra_agree_at_x_and_one_minus_x(axis, x, a):
    rho = bloch_to_density(a)
    direct = hermitian_eigenvalues_2x2(
        matrix_of(_kraus_contraction(make_one_pauli(axis, x).ops, _pairs(rho))[0])
    )
    mirrored = hermitian_eigenvalues_2x2(
        matrix_of(_kraus_contraction(make_one_pauli(axis, 1 - x).ops, _pairs(rho))[0])
    )
    assert direct.hi == pytest.approx(mirrored.hi, abs=1e-12)
    assert direct.lo == pytest.approx(mirrored.lo, abs=1e-12)


@settings(max_examples=60)
@given(axes(), retentions(), bloch_vectors())
def test_output_positivity(axis, x, a):
    out = _kraus_contraction(make_one_pauli(axis, x).ops, _pairs(bloch_to_density(a)))[0]
    assert hermitian_eigenvalues_2x2(matrix_of(out)).lo >= -1e-12


@given(axes(), bloch_vectors())
def test_channel_at_half_is_a_projection(axis, a):
    ch = make_one_pauli(axis, 0.5)
    once = _kraus_contraction(ch.ops, _pairs(bloch_to_density(a)))[0]
    twice = _kraus_contraction(ch.ops, once)[0]
    assert np.allclose(twice, once, atol=1e-13)
