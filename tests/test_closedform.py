import itertools
from fractions import Fraction
from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import axes, bloch_vectors, reference_values, retentions
from paulinoise import (
    BlochVector,
    PauliAxis,
    ValidationError,
    closed_point,
    fidelity_paper_closed,
    full_report,
    make_one_pauli,
)
from paulinoise import NumericError, closedform
from paulinoise.bloch import _density_pairs
from paulinoise.channels import _FLIPS, _KEEP
from paulinoise.closedform import closed_batch
from paulinoise.linalg import ROUNDING_TOL
from paulinoise.measures import _kraus_contraction

H_REF = 0.06412343509793366        # binary entropy of (1 + sqrt(0.97))/2
H_THREE_QUARTERS = 0.8112781244591328

# spectrum of the output state at x = 1 for |a|^2 = 0.97
THETA_HI_PURE = 0.9924428900898052
THETA_LO_PURE = 0.007557109910194759


def test_bloch_out_kills_transverse_at_half():
    assert closed_point(1, 0.5, (0.5, 0.6, 0.6)).b == BlochVector(0.5, 0.0, 0.0)


def test_bloch_out_identity_endpoint():
    assert closed_point(2, 1.0, (0.3, -0.1, 0.2)).b == BlochVector(0.3, -0.1, 0.2)


def test_bloch_out_sigma3():
    b = closed_point(3, 0.2, (0.6, 0.6, 0.5)).b
    assert b.a1 == pytest.approx(-0.36, abs=1e-15)
    assert b.a2 == pytest.approx(-0.36, abs=1e-15)
    assert b.a3 == 0.5


def test_lambdas_halfway():
    pair = closed_point(1, 0.5, (0.5, 0.6, 0.6)).lambdas
    assert pair.hi == pytest.approx(0.75, abs=1e-15)
    assert pair.lo == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("axis", [1, 2, 3])
@pytest.mark.parametrize("x", [0.0, 1.0])
def test_lambdas_trivial_at_endpoints(axis, x):
    assert closed_point(axis, x, (0.5, 0.6, 0.6)).lambdas == (1.0, 0.0)


@pytest.mark.parametrize("x", [0.1, 0.5, 0.8])
def test_lambdas_trivial_for_axis_aligned_pure_state(x):
    assert closed_point(1, x, (1, 0, 0)).lambdas == (1.0, 0.0)


def test_thetas_halfway_collapse_to_axis_component():
    pair = closed_point(1, 0.5, (0.5, 0.6, 0.6)).thetas
    assert pair.hi == pytest.approx(0.75, abs=1e-15)
    assert pair.lo == pytest.approx(0.25, abs=1e-15)


def test_thetas_noiseless_endpoint():
    pair = closed_point(1, 1.0, (0.5, 0.6, 0.6)).thetas
    assert pair.hi == pytest.approx(THETA_HI_PURE, abs=1e-12)
    assert pair.lo == pytest.approx(THETA_LO_PURE, abs=1e-12)


def test_thetas_maximally_mixed():
    assert closed_point(3, 0.0, (0, 0, 0)).thetas == (0.5, 0.5)


@pytest.mark.parametrize("x", [0.0, 1.0])
def test_noise_vanishes_at_endpoints(x):
    assert closed_point(1, x, (0.5, 0.6, 0.6)).noise_n == 0.0


def test_noise_halfway():
    assert closed_point(1, 0.5, (0.5, 0.6, 0.6)).noise_n == pytest.approx(
        H_THREE_QUARTERS, abs=1e-12
    )


def test_noise_axis_permutation_image():
    assert closed_point(2, 0.5, (0.6, 0.5, 0.6)).noise_n == pytest.approx(
        H_THREE_QUARTERS, abs=1e-12
    )


def test_coherent_halfway_is_zero():
    assert closed_point(1, 0.5, (0.5, 0.6, 0.6)).coherent_c == 0.0


def test_coherent_noiseless_is_input_entropy():
    assert closed_point(1, 1.0, (0.5, 0.6, 0.6)).coherent_c == pytest.approx(
        H_REF, abs=1e-9
    )


@pytest.mark.parametrize("x", [0.0, 0.3, 0.7, 1.0])
def test_coherent_vanishes_for_axis_aligned_pure_state(x):
    assert closed_point(1, x, (1, 0, 0)).coherent_c == 0.0


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


@pytest.mark.parametrize("axis", list(PauliAxis), ids=lambda axis: axis.token)
def test_fidelity_paper_closed_equals_closed_batch_bitwise(axis):
    grid = [0.0, 1e-9] + [i / 10 for i in range(1, 11)]
    states = [(0.6, 0.5, 0.6), (-0.3, 0.9, 0.1), (1e-8, -1e-12, 0.7), (0, 0, 1)]
    # |a|^2 = 1 + ROUNDING_TOL exactly, the Bloch-norm slack, on the channel
    # axis both ways and off it: closed_point's spectra must not raise there
    edge = sqrt(1.0 + ROUNDING_TOL)
    for slack_state in ((edge, 0.0, 0.0), (-edge, 0.0, 0.0), (0.0, 0.6 * edge, 0.8 * edge)):
        states.append(tuple(np.roll(slack_state, axis - 1)))
    batch = closed_batch(axis, np.array(grid)[:, None], np.array(states, dtype=float).T)
    scalar = np.array([[fidelity_paper_closed(axis, x, a) for a in states]
                       for x in grid])
    # bit patterns, so that 0.0 and -0.0 count as different
    assert np.array_equal(batch["fidelity_paper"].view(np.uint64), scalar.view(np.uint64))
    # every closed_point field against its batch cell, b and the spectra
    # stacked as verify stacks them
    cells = {field: np.stack(np.broadcast_arrays(*v), -1) if isinstance(v, tuple) else v
             for field, v in batch.items()}
    for g, x in enumerate(grid):
        for s, a in enumerate(states):
            for field, value in closed_point(axis, x, a)._asdict().items():
                have = np.array(value, dtype=float).tobytes()
                assert have == cells[field][g, s].tobytes(), (field, x, a)


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


def _assert_radicand_floor_raises():
    with pytest.raises(NumericError, match="negative radicand"):
        closed_batch(3, np.array([[0.5]]), np.array([(0.1, 0.2, 0.3)]).T)
    with pytest.raises(NumericError, match="negative radicand"):
        closed_point(3, 0.5, (0.1, 0.2, 0.3))


def test_batched_radicand_floor(monkeypatch):
    # valid inputs keep the radicands non-negative, so a radicand below the
    # floor is injected to reach the check
    monkeypatch.setattr(closedform, "_lambda_radicand", lambda x, ak: x - 2.0)
    _assert_radicand_floor_raises()


def test_batched_theta_radicand_floor(monkeypatch):
    # the theta split shares the lambda split's guard
    monkeypatch.setattr(closedform, "_theta_radicand", lambda x, ak, t_sq: x - 2.0)
    _assert_radicand_floor_raises()


@pytest.mark.parametrize(
    "axis, x, a",
    [
        (2, 0.5, (-2.3e-8, 7.4e-9, 4.8e-8)),
        (1, 0.499999999, (1e-12, 0.0, 0.0)),
    ],
)
def test_lambdas_accurate_for_tiny_axis_component(axis, x, a):
    # near x = 1/2 with a tiny a_k the lambda radicand is tiny itself; the
    # printed form 1 - 4x(x-1)(a_k^2 - 1) left it off by 1e-16 and lambda
    # off by up to 3.7e-9
    want = reference_values(axis, x, a)["lambdas"]
    have = closed_point(axis, x, a).lambdas
    assert abs(have.lo - want[1]) <= 1e-15
    assert abs(have.hi - want[0]) <= 1e-15
    kraus = full_report(make_one_pauli(axis, x), a).lambdas
    assert abs(have.lo - kraus.lo) <= 1e-15


# cross-path equivalence against the generic Kraus route


@settings(max_examples=80, deadline=None)
@given(axes(), retentions(), bloch_vectors())
def test_closed_forms_match_generic_path(axis, x, a):
    rep = full_report(make_one_pauli(axis, x), a)
    point = closed_point(axis, x, a)

    for have, want in zip(rep.bloch_out, point.b):
        assert have == pytest.approx(want, abs=1e-12)

    assert rep.lambdas.hi == pytest.approx(point.lambdas.hi, abs=1e-12)
    assert rep.lambdas.lo == pytest.approx(point.lambdas.lo, abs=1e-12)

    assert rep.thetas.hi == pytest.approx(point.thetas.hi, abs=1e-12)
    assert rep.thetas.lo == pytest.approx(point.thetas.lo, abs=1e-12)

    assert point.noise_n == pytest.approx(rep.noise_n, abs=1e-12)
    assert point.coherent_c == pytest.approx(rep.coherent_c, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(axes(), retentions(), bloch_vectors())
def test_fidelity_closed_forms_against_trace_form(axis, x, a):
    # fidelity expressions are polynomial, so arbitrary floats are fine here
    rep = full_report(make_one_pauli(axis, x), a)
    f_numeric = rep.fidelity_numeric
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
    point, image = closed_point(axis, x, a), closed_point(axis, 1 - x, a)
    for field in ("lambdas", "thetas"):
        direct, mirrored = getattr(point, field), getattr(image, field)
        assert direct.hi == pytest.approx(mirrored.hi, abs=1e-12)
        assert direct.lo == pytest.approx(mirrored.lo, abs=1e-12)


# Exact transcription check. At t in [0, 1] the Kraus roots sqrt(x) = 2t/(1+t^2)
# and sqrt(1-x) = (1-t^2)/(1+t^2) are rational (Euclid's parametrization of
# Pythagorean triples; t = 0 and 1 give x = 0 and 1), and so are states with
# components in {0, +-2/7, +-4/7}. The Kraus contraction and the closed-form
# polynomials then run on Fractions with no rounding, so every identity
# between them holds with ==, and a transcription slip of any size fails it.
RATIONAL_T = sorted({Fraction(p, q) for q in range(1, 7) for p in range(q + 1)})
# every ninth of the 125 component triples, which touches every value on every axis
RATIONAL_STATES = list(itertools.islice(itertools.product(
    (Fraction(n, 7) for n in (0, 2, -2, 4, -4)), repeat=3), 0, None, 9))


def _disc(m):
    """(m00 - m11)^2 + 4 Re(m01 m10) of row-major (re, im) pairs, as
    linalg._eigenvalues forms the discriminant."""
    (r00, _), (r01, i01), (r10, i10), (r11, _) = m
    return (r00 - r11) * (r00 - r11) + 4 * (r01 * r10 - i01 * i10)


@pytest.mark.parametrize("axis", list(PauliAxis), ids=lambda axis: axis.token)
def test_closed_forms_are_exact_at_rational_points(axis):
    k = axis - 1
    mismatches = []
    for t in RATIONAL_T:
        keep, flip = 2 * t / (1 + t * t), (1 - t * t) / (1 + t * t)
        x = keep * keep
        ops = tuple(tuple((s * Fraction(e), 0) for e in entries)
                    for s, entries in ((keep, _KEEP), (flip, _FLIPS[k])))
        for a in RATIONAL_STATES:
            out, w, fidelity, bloch_out = _kraus_contraction(ops, _density_pairs(*a))
            ak = a[k]
            transverse_sq = sum(c * c for c in a) - ak * ak
            gap = 2 * (1 - x) * ak * ak if axis is PauliAxis.SIGMA2 else 0
            # name -> (expected, the package's value), which must be a Fraction
            checks = {
                "lambda": (_disc(w), closedform._lambda_radicand(x, ak)),
                "theta": (_disc(out), closedform._theta_radicand(x, ak, transverse_sq)),
                "fidelity": (x + (1 - x) * ak * ak, fidelity),
                "gap": (gap, fidelity - closedform._fidelity_paper(axis, x, ak)),
            }
            # bloch_out == b, one check per component
            b = closedform._bloch_out(axis, x, a)
            checks.update((f"b{i + 1}", pair) for i, pair in enumerate(zip(bloch_out, b)))
            mismatches += [(name, x, a) for name, (want, have) in checks.items()
                           if type(have) is not Fraction or have != want]
    assert mismatches == []
