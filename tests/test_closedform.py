import pytest
from hypothesis import given, settings

from helpers import axes, bloch_vectors, grid_bloch_vectors, retentions
from paulinoise import (
    BlochVector,
    ValidationError,
    apply_channel,
    bloch_out_closed,
    bloch_to_density,
    closed_point,
    coherent_closed,
    coherent_information,
    density_to_bloch,
    entangled_fidelity,
    entropy_exchange,
    fidelity_paper_closed,
    lambdas_closed,
    make_one_pauli,
    noise_closed,
    thetas_closed,
    w_matrix,
    w_spectrum,
)
from paulinoise import NumericError, closedform
from paulinoise.closedform import closed_batch
from paulinoise.linalg import hermitian_eigenvalues_2x2

H_REF = 0.06412343509793366        # binary entropy of (1 + sqrt(0.97))/2
H_THREE_QUARTERS = 0.8112781244591328

# spectrum of the output state at x = 1 for |a|^2 = 0.97
THETA_HI_PURE = 0.9924428900898052
THETA_LO_PURE = 0.007557109910194759


def test_bloch_out_kills_transverse_at_half():
    assert bloch_out_closed(1, 0.5, (0.5, 0.6, 0.6)) == BlochVector(0.5, 0.0, 0.0)


def test_bloch_out_identity_endpoint():
    assert bloch_out_closed(2, 1.0, (0.3, -0.1, 0.2)) == BlochVector(0.3, -0.1, 0.2)


def test_bloch_out_sigma3():
    b = bloch_out_closed(3, 0.2, (0.6, 0.6, 0.5))
    assert b.a1 == pytest.approx(-0.36, abs=1e-15)
    assert b.a2 == pytest.approx(-0.36, abs=1e-15)
    assert b.a3 == 0.5


def test_lambdas_halfway():
    pair = lambdas_closed(1, 0.5, (0.5, 0.6, 0.6))
    assert pair.hi == pytest.approx(0.75, abs=1e-15)
    assert pair.lo == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("axis", [1, 2, 3])
@pytest.mark.parametrize("x", [0.0, 1.0])
def test_lambdas_trivial_at_endpoints(axis, x):
    assert lambdas_closed(axis, x, (0.5, 0.6, 0.6)) == (1.0, 0.0)


@pytest.mark.parametrize("x", [0.1, 0.5, 0.8])
def test_lambdas_trivial_for_axis_aligned_pure_state(x):
    assert lambdas_closed(1, x, (1, 0, 0)) == (1.0, 0.0)


def test_thetas_halfway_collapse_to_axis_component():
    pair = thetas_closed(1, 0.5, (0.5, 0.6, 0.6))
    assert pair.hi == pytest.approx(0.75, abs=1e-15)
    assert pair.lo == pytest.approx(0.25, abs=1e-15)


def test_thetas_noiseless_endpoint():
    pair = thetas_closed(1, 1.0, (0.5, 0.6, 0.6))
    assert pair.hi == pytest.approx(THETA_HI_PURE, abs=1e-12)
    assert pair.lo == pytest.approx(THETA_LO_PURE, abs=1e-12)


def test_thetas_maximally_mixed():
    assert thetas_closed(3, 0.0, (0, 0, 0)) == (0.5, 0.5)


@pytest.mark.parametrize("x", [0.0, 1.0])
def test_noise_vanishes_at_endpoints(x):
    assert noise_closed(1, x, (0.5, 0.6, 0.6)) == 0.0


def test_noise_halfway():
    assert noise_closed(1, 0.5, (0.5, 0.6, 0.6)) == pytest.approx(
        H_THREE_QUARTERS, abs=1e-12
    )


def test_noise_axis_permutation_image():
    assert noise_closed(2, 0.5, (0.6, 0.5, 0.6)) == pytest.approx(
        H_THREE_QUARTERS, abs=1e-12
    )


def test_coherent_halfway_is_zero():
    assert coherent_closed(1, 0.5, (0.5, 0.6, 0.6)) == 0.0


def test_coherent_noiseless_is_input_entropy():
    assert coherent_closed(1, 1.0, (0.5, 0.6, 0.6)) == pytest.approx(
        H_REF, abs=1e-9
    )


@pytest.mark.parametrize("x", [0.0, 0.3, 0.7, 1.0])
def test_coherent_vanishes_for_axis_aligned_pure_state(x):
    assert coherent_closed(1, x, (1, 0, 0)) == 0.0


def test_fidelity_sigma1_full_noise():
    assert fidelity_paper_closed(1, 0.0, (0.5, 0.6, 0.6)) == pytest.approx(
        0.25, abs=1e-15
    )


def test_fidelity_sigma2_keeps_printed_sign():
    assert fidelity_paper_closed(2, 0.0, (0.6, 0.5, 0.6)) == pytest.approx(
        -0.25, abs=1e-15
    )


def test_fidelity_sigma3_noiseless():
    assert fidelity_paper_closed(3, 1.0, (0.1, 0.9, 0.2)) == 1.0


def test_closed_point_noiseless_assembly():
    point = closed_point(1, 1.0, (0.5, 0.6, 0.6))
    assert point.b == BlochVector(0.5, 0.6, 0.6)
    assert point.lambdas == (1.0, 0.0)
    assert point.noise_n == 0.0
    assert point.coherent_c == pytest.approx(H_REF, abs=1e-9)
    assert point.fidelity_paper == 1.0


def test_closed_point_halfway_assembly():
    point = closed_point(1, 0.5, (0.5, 0.6, 0.6))
    assert point.b == BlochVector(0.5, 0.0, 0.0)
    assert point.lambdas == point.thetas
    assert point.noise_n == pytest.approx(H_THREE_QUARTERS, abs=1e-12)
    assert point.coherent_c == 0.0
    assert point.fidelity_paper == pytest.approx(0.625, abs=1e-15)


def test_closed_point_sigma2_fidelity():
    point = closed_point(2, 0.5, (0.6, 0.5, 0.6))
    assert point.fidelity_paper == pytest.approx(0.375, abs=1e-15)


def test_spectra_sum_to_one():
    point = closed_point(2, 0.37, (0.2, 0.4, -0.5))
    assert sum(point.lambdas) == pytest.approx(1.0, abs=1e-12)
    assert sum(point.thetas) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad_x", [-0.2, 1.5])
def test_domain_validation(bad_x):
    with pytest.raises(ValidationError):
        closed_point(1, bad_x, (0, 0, 0))
    with pytest.raises(ValidationError):
        closed_point(1, 0.5, (1, 1, 1))
    with pytest.raises(ValidationError):
        closed_batch(1, [0.0, bad_x], [(0, 0, 0)])
    with pytest.raises(ValidationError):
        closed_batch(1, [0.5], [(0, 0, 0), (1, 1, 1)])


def test_batched_radicand_floor(monkeypatch):
    # valid inputs keep the radicands non-negative, so a radicand below the
    # floor is injected to reach the check
    monkeypatch.setattr(closedform, "_lambda_radicand", lambda x, ak: x - 2.0)
    with pytest.raises(NumericError):
        closed_batch(3, [0.5], [(0.1, 0.2, 0.3)])
    with pytest.raises(NumericError):
        closed_point(3, 0.5, (0.1, 0.2, 0.3))


# cross-path equivalence against the generic Kraus route; grid vectors,
# because the faithfully transcribed radicands cannot beat double rounding
# for components inside (0, ~1e-4)


@settings(max_examples=80, deadline=None)
@given(axes(), retentions(), grid_bloch_vectors())
def test_closed_forms_match_generic_path(axis, x, a):
    ch = make_one_pauli(axis, x)
    rho = bloch_to_density(a)
    point = closed_point(axis, x, a)

    b_numeric = density_to_bloch(apply_channel(ch, rho))
    for have, want in zip(b_numeric, point.b):
        assert have == pytest.approx(want, abs=1e-12)

    lam_numeric = w_spectrum(w_matrix(ch, rho))
    assert lam_numeric.hi == pytest.approx(point.lambdas.hi, abs=1e-12)
    assert lam_numeric.lo == pytest.approx(point.lambdas.lo, abs=1e-12)

    theta_numeric = hermitian_eigenvalues_2x2(apply_channel(ch, rho))
    assert theta_numeric.hi == pytest.approx(point.thetas.hi, abs=1e-12)
    assert theta_numeric.lo == pytest.approx(point.thetas.lo, abs=1e-12)

    assert point.noise_n == pytest.approx(entropy_exchange(ch, rho), abs=1e-12)
    assert point.coherent_c == pytest.approx(
        coherent_information(ch, rho), abs=1e-12
    )


@settings(max_examples=80, deadline=None)
@given(axes(), retentions(), bloch_vectors())
def test_fidelity_closed_forms_against_trace_form(axis, x, a):
    # fidelity expressions are polynomial, so arbitrary floats are fine here
    f_numeric = entangled_fidelity(make_one_pauli(axis, x), bloch_to_density(a))
    f_closed = fidelity_paper_closed(axis, x, a)
    if axis == 2:
        # the printed axis-2 sign makes the closed form differ by exactly
        # twice the flip probability times a2^2
        assert f_closed + 2 * (1 - x) * a.a2 * a.a2 == pytest.approx(
            f_numeric, abs=1e-12
        )
    else:
        assert f_closed == pytest.approx(f_numeric, abs=1e-12)


@settings(max_examples=80)
@given(axes(), retentions(), bloch_vectors())
def test_spectra_invariant_under_retention_reflection(axis, x, a):
    for fn in (lambdas_closed, thetas_closed):
        direct = fn(axis, x, a)
        mirrored = fn(axis, 1 - x, a)
        assert direct.hi == pytest.approx(mirrored.hi, abs=1e-12)
        assert direct.lo == pytest.approx(mirrored.lo, abs=1e-12)
