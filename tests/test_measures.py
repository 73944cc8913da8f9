from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import (
    axes,
    bloch_vectors,
    hermiticity_residual,
    matrix_of,
    reference,
    retentions,
)
from paulinoise import (
    KrausChannel,
    PauliAxis,
    bloch_to_density,
    environment_entropy_oracle,
    full_report,
    hermitian_eigenvalues_2x2,
    make_one_pauli,
)
from paulinoise import bloch, closedform, linalg, measures
from paulinoise.linalg import _pairs
from paulinoise.measures import (
    _kraus_contraction,
    environment_entropy_oracle_batch,
    report_batch,
)

# binary entropy of (1 + sqrt(0.97))/2, evaluated with 50-digit arithmetic;
# the input entropy of every reference state used below
H_REF = 0.06412343509793366
# binary entropy of 3/4
H_THREE_QUARTERS = 0.8112781244591328
# binary entropy of 0.3
H_POINT_THREE = 0.8812908992306927


def _rho(a):
    return bloch_to_density(a)


def _state_pairs(rhos):
    """The batch kernels' state operand, as verify lays it out: the four
    (re, im) pairs of a stack of states, each an array of shape (S,)."""
    return _pairs(np.moveaxis(np.array(rhos), 0, -1))


def _ops_pairs(channels):
    """The batch kernels' Kraus operand, as verify lays it out: ops[i][k]
    is the pair k of operator i, each an array of shape (G, 1)."""
    return np.moveaxis(np.array([ch.ops for ch in channels]), 0, -1)[..., None]


def test_w_matrix_sigma1_halfway():
    w = _kraus_contraction(make_one_pauli(1, 0.5).ops, _pairs(_rho((0.5, 0.6, 0.6))))[1]
    assert np.allclose(w, _pairs([[0.5, 0.25], [0.25, 0.5]]), atol=1e-15)


def test_w_matrix_sigma2_imaginary_off_diagonal():
    w = _kraus_contraction(make_one_pauli(2, 0.5).ops, _pairs(_rho((0.6, 0.5, 0.6))))[1]
    assert np.allclose(w, _pairs([[0.5, 0.25j], [-0.25j, 0.5]]), atol=1e-15)


@pytest.mark.parametrize("axis", [1, 2, 3])
def test_w_matrix_noiseless_endpoint(axis):
    w = _kraus_contraction(make_one_pauli(axis, 1.0).ops, _pairs(_rho((0.3, -0.2, 0.5))))[1]
    assert np.allclose(w, _pairs([[1, 0], [0, 0]]), atol=1e-15)


@settings(max_examples=60)
@given(axes(), retentions(), bloch_vectors())
def test_w_matrix_invariants(axis, x, a):
    w = matrix_of(_kraus_contraction(make_one_pauli(axis, x).ops, _pairs(_rho(a)))[1])
    assert hermiticity_residual(w) <= 1e-12
    assert np.trace(w).real == pytest.approx(1.0, abs=1e-13)
    assert hermitian_eigenvalues_2x2(w).lo >= -1e-12


# The entries of I and, by axis, of sigma1, -i sigma2 and sigma3, as integers.
_INT_KEEP = (1, 0, 0, 1)
_INT_FLIPS = {1: (0, 1, 1, 0), 2: (0, -1, 1, 0), 3: (1, 0, 0, -1)}


@pytest.mark.parametrize("axis", [1, 2, 3])
def test_kraus_contraction_is_exact_on_fractions(axis):
    # x = 9/25 has sqrt(x) = 3/5 and sqrt(1 - x) = 4/5, so every operand is rational
    x, a = Fraction(9, 25), (Fraction(1, 3), Fraction(-1, 4), Fraction(1, 5))
    scaled = ((Fraction(3, 5), _INT_KEEP), (Fraction(4, 5), _INT_FLIPS[axis]))
    ops = [[(s * e, Fraction(0)) for e in entries] for s, entries in scaled]
    out, w, fidelity, bloch_out = _kraus_contraction(ops, bloch._density_pairs(*a))
    assert all(type(v) is Fraction for pair in out + w for v in pair)
    assert type(fidelity) is Fraction
    assert bloch_out == tuple(
        a_i if i == axis else (2 * x - 1) * a_i for i, a_i in enumerate(a, 1)
    )
    assert all(type(b) is Fraction for b in bloch_out)
    assert fidelity == x + (1 - x) * a[axis - 1] ** 2


def test_entropy_exchange_noiseless():
    assert full_report(make_one_pauli(1, 1.0), _rho((0.5, 0.6, 0.6))).noise_n == 0.0


def test_entropy_exchange_halfway():
    n = full_report(make_one_pauli(1, 0.5), _rho((0.5, 0.6, 0.6))).noise_n
    assert n == pytest.approx(H_THREE_QUARTERS, abs=1e-12)


@pytest.mark.parametrize("x", [0.0, 0.3, 0.5, 0.9, 1.0])
def test_entropy_exchange_vanishes_for_axis_aligned_pure_state(x):
    assert full_report(make_one_pauli(1, x), _rho((1, 0, 0))).noise_n <= 1e-12


def test_coherent_information_halfway_is_zero():
    c = full_report(make_one_pauli(1, 0.5), _rho((0.5, 0.6, 0.6))).coherent_c
    assert c == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("x", [0.0, 1.0])
def test_coherent_information_equals_input_entropy_at_endpoints(x):
    c = full_report(make_one_pauli(1, x), _rho((0.5, 0.6, 0.6))).coherent_c
    assert c == pytest.approx(H_REF, abs=1e-9)


def test_entangled_fidelity_identity_channel():
    rep = full_report(make_one_pauli(2, 1.0), _rho((0.5, 0.6, 0.6)))
    assert rep.fidelity_numeric == 1.0


def test_entangled_fidelity_sigma1_full_noise():
    f = full_report(make_one_pauli(1, 0.0), _rho((0.5, 0.6, 0.6))).fidelity_numeric
    assert f == pytest.approx(0.25, abs=1e-12)


def test_entangled_fidelity_sigma2_full_noise_is_positive():
    f = full_report(make_one_pauli(2, 0.0), _rho((0.6, 0.5, 0.6))).fidelity_numeric
    assert f == pytest.approx(0.25, abs=1e-12)


@settings(max_examples=60)
@given(axes(), retentions(), bloch_vectors())
def test_entangled_fidelity_closed_identity(axis, x, a):
    # direct consequence of the trace form, for every axis
    f = full_report(make_one_pauli(axis, x), _rho(a)).fidelity_numeric
    ak = a[axis - 1]
    assert f == pytest.approx(x + (1 - x) * ak * ak, abs=1e-12)
    assert 0.0 <= f <= 1.0 + 1e-12


def test_mutual_information_noiseless():
    m = full_report(make_one_pauli(1, 1.0), _rho((0.5, 0.6, 0.6))).mutual_info
    assert m == pytest.approx(2 * H_REF, abs=1e-9)


@pytest.mark.parametrize("x", [0.0, 0.25, 0.5, 1.0])
def test_mutual_information_maximally_mixed(x):
    ch = make_one_pauli(1, x)
    rho = _rho((0, 0, 0))
    rep = full_report(ch, rho)
    assert rep.mutual_info == pytest.approx(2.0 - rep.noise_n, abs=1e-12)


def test_mutual_information_components():
    ch = make_one_pauli(1, 0.5)
    rho = _rho((0.5, 0.6, 0.6))
    assert full_report(ch, rho).mutual_info == pytest.approx(H_REF, abs=1e-9)


def test_oracle_noiseless():
    assert environment_entropy_oracle(make_one_pauli(3, 1.0), _rho((0.5, 0.6, 0.6))) == 0.0


def test_oracle_halfway():
    n = environment_entropy_oracle(make_one_pauli(1, 0.5), _rho((0.5, 0.6, 0.6)))
    assert n == pytest.approx(H_THREE_QUARTERS, abs=1e-10)


def test_oracle_transverse_pure_state():
    # for an input pure along sigma1, the sigma3 exchange matrix is exactly
    # diagonal {x, 1-x}, so the noise is the binary entropy of x
    n = environment_entropy_oracle(make_one_pauli(3, 0.3), _rho((1, 0, 0)))
    assert n == pytest.approx(H_POINT_THREE, abs=1e-10)


def test_oracle_axis_aligned_pure_state_sees_no_noise():
    # the sigma3 error acts trivially on its own eigenstate: the dilation
    # leaves the environment pure and both routes must report zero
    ch = make_one_pauli(3, 0.3)
    rho = _rho((0, 0, 1))
    assert environment_entropy_oracle(ch, rho) == pytest.approx(0.0, abs=1e-12)
    assert full_report(ch, rho).noise_n == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(axes(), retentions(), bloch_vectors())
def test_oracle_matches_entropy_exchange(axis, x, a):
    ch = make_one_pauli(axis, x)
    rho = _rho(a)
    assert environment_entropy_oracle(ch, rho) == pytest.approx(
        full_report(ch, rho).noise_n, abs=1e-10
    )


def test_oracle_survives_nearly_degenerate_input():
    # regression: a state a hair away from maximally mixed must not trip
    # the spectral decomposition into a non-orthogonal eigenbasis
    ch = make_one_pauli(1, 0.5)
    rho = _rho((1e-12, 0.0, 1e-12))
    assert environment_entropy_oracle(ch, rho) == pytest.approx(
        full_report(ch, rho).noise_n, abs=1e-10
    )


# the rates and Bloch radii of the oracle's edge test: |a| within 2e-13 of the
# maximally mixed state, pure, and within 1e-16 or 1e-12 of pure
ORACLE_EDGE_X = (0.0, 1e-12, 0.5 - 1e-9, 0.5 + 1e-9, 1.0 - 1e-9, 1.0)
ORACLE_EDGE_RADII = (1e-15, 5e-14, 1e-13, 2e-13, 1.0, 1.0 - 1e-16, 1.0 - 1e-12)


def _oracle_edge_states(axis):
    """Each radius along the channel axis, both ways, and off it: along the
    next axis and along two directions that mix the axes."""
    along = np.eye(3)[axis - 1]
    directions = (along, -along, np.roll(along, 1), np.array([0.6, -0.8, 0.0]),
                  np.ones(3) / np.sqrt(3))
    return [r * d for r in ORACLE_EDGE_RADII for d in directions]


@pytest.mark.parametrize("axis", list(PauliAxis), ids=lambda axis: axis.token)
def test_oracle_matches_reference_near_mixed_and_pure_states(axis):
    states = _oracle_edge_states(axis)
    channels = [KrausChannel(axis, x) for x in ORACLE_EDGE_X]
    have = environment_entropy_oracle_batch(
        _ops_pairs(channels), _state_pairs([_rho(a) for a in states])
    )
    want = np.array([[float(reference().point(axis, x, a)["noise_n"]) for a in states]
                     for x in ORACLE_EDGE_X])
    error = np.abs(have - want)
    g, s = np.unravel_index(np.argmax(error), error.shape)
    assert error[g, s] <= 1e-14, (ORACLE_EDGE_X[g], states[s], have[g, s], want[g, s])


def test_full_report_noiseless_endpoint():
    rep = full_report(make_one_pauli(1, 1.0), _rho((0.5, 0.6, 0.6)))
    assert rep.x == 1.0
    assert rep.noise_n == 0.0
    assert rep.coherent_c == pytest.approx(rep.h_in, abs=1e-12)
    assert rep.fidelity_numeric == pytest.approx(1.0, abs=1e-15)
    assert rep.fidelity_paper == pytest.approx(1.0, abs=1e-15)


def test_full_report_halfway():
    rep = full_report(make_one_pauli(1, 0.5), _rho((0.5, 0.6, 0.6)))
    assert rep.lambdas.hi == pytest.approx(0.75, abs=1e-12)
    assert rep.lambdas.lo == pytest.approx(0.25, abs=1e-12)
    assert rep.thetas.hi == pytest.approx(0.75, abs=1e-12)
    assert rep.coherent_c == pytest.approx(0.0, abs=1e-12)


def test_full_report_exposes_both_fidelities():
    rep = full_report(make_one_pauli(2, 0.0), _rho((0.6, 0.5, 0.6)))
    assert rep.fidelity_numeric == pytest.approx(0.25, abs=1e-12)
    assert rep.fidelity_paper == pytest.approx(-0.25, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(axes(), retentions(), bloch_vectors())
def test_full_report_is_consistent_with_pointwise_measures(axis, x, a):
    # every field against the 50-digit recomputation of the same point
    rep = full_report(make_one_pauli(axis, x), _rho(a))
    ref = reference().point(int(axis), x, a)
    want = dict(ref, lambdas=(ref["lambda_hi"], ref["lambda_lo"]),
                thetas=(ref["theta_hi"], ref["theta_lo"]))
    for name, value in asdict(rep).items():
        expected = want[name]
        if isinstance(value, tuple):
            assert len(value) == len(expected), name
            for have, ref_value in zip(value, expected):
                assert abs(have - float(ref_value)) <= 1e-12, name
        else:
            assert abs(value - float(expected)) <= 1e-12, name


@pytest.mark.parametrize("axis", [1, 2, 3])
def test_full_report_validates_once(monkeypatch, axis):
    # check_density coerces rho once; the matrices full_report builds from
    # it, and the closed-form F_paper, skip every further coercion
    ch, rho = make_one_pauli(axis, 0.3), _rho((0.5, 0.6, 0.6))
    validators = ("as_axis", "check_retention", "check_bloch")
    calls = {"as_matrix": 0, **dict.fromkeys(validators, 0)}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(linalg, "as_matrix")
    monkeypatch.setattr(bloch, "as_matrix", linalg.as_matrix)
    for name in validators:  # the point validation closed_point runs
        counted(closedform, name)
    full_report(ch, rho)
    assert calls == {"as_matrix": 1, **dict.fromkeys(validators, 0)}


@pytest.mark.parametrize("axis", [1, 2, 3])
def test_full_report_runs_the_eigenvalue_kernel_three_times(monkeypatch, axis):
    # one spectrum each of the input state, the output state and W: the
    # state's spectrum from check_density's pass also gives h_in
    ch, rho = make_one_pauli(axis, 0.3), _rho((0.5, 0.6, 0.6))
    expected_in, kernel, spectra = hermitian_eigenvalues_2x2(rho), linalg._eigenvalues, []

    def counted(m):
        spectra.append(kernel(m))
        return spectra[-1]

    for module in (linalg, bloch, measures):
        monkeypatch.setattr(module, "_eigenvalues", counted)
    rep = full_report(ch, rho)
    assert spectra == [expected_in, rep.thetas, rep.lambdas]


# full_report runs report_batch on Python floats, so every quantity is
# bit-equal between one point and its cell of the arrays.
_KERNEL_RNG = np.random.default_rng(20261019)
KERNEL_RATES = [0.0, 1e-9, 0.5, 1 - 1e-9, 1.0, *_KERNEL_RNG.random(6).tolist()]
KERNEL_STATES = [
    (0.48, 0.6, 0.64),  # pure
    (1.0, 0.0, 0.0),
    (0.0, -1.0, 0.0),
    (0.0, 0.0, 1.0),
    (0.0, 0.0, 0.0),
    (1e-12, -1e-12, 1e-12),
    (0.6, 0.5, 0.6),
    *(
        tuple((v * _KERNEL_RNG.random() / np.linalg.norm(v)).tolist())
        for v in _KERNEL_RNG.normal(size=(8, 3))
    ),
]


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _cell(value, at):
    """Cell at of a route value: an array, or a tuple of arrays."""
    return [v[at] for v in value] if isinstance(value, tuple) else value[at]


@pytest.mark.parametrize("axis", list(PauliAxis), ids=lambda axis: axis.token)
def test_full_report_is_bit_equal_to_report_batch(axis):
    channels = [KrausChannel(axis, x) for x in KERNEL_RATES]
    rhos = [bloch_to_density(a) for a in KERNEL_STATES]
    batch = report_batch(_ops_pairs(channels), _state_pairs(rhos))
    for g, ch in enumerate(channels):
        for s, rho in enumerate(rhos):
            rep, at = full_report(ch, rho), (g, s)
            assert _bits(rep.bloch_out) == _bits(_cell(batch["bloch_out"], at)), at
            assert _bits(rep.lambdas) == _bits(_cell(batch["lambdas"], at)), at
            assert _bits(rep.thetas) == _bits(_cell(batch["thetas"], at)), at
            assert _bits(rep.fidelity_numeric) == _bits(batch["fidelity_numeric"][at]), at
            assert _bits(rep.h_out) == _bits(batch["h_out"][at]), at
            assert _bits(rep.noise_n) == _bits(batch["noise_n"][at]), at
            assert _bits(rep.coherent_c) == _bits(batch["coherent_c"][at]), at


@pytest.mark.parametrize("axis", list(PauliAxis), ids=lambda axis: axis.token)
def test_oracle_is_bit_equal_to_its_batch_kernel(axis):
    channels = [KrausChannel(axis, x) for x in KERNEL_RATES]
    rhos = [bloch_to_density(a) for a in KERNEL_STATES]
    batch = environment_entropy_oracle_batch(_ops_pairs(channels), _state_pairs(rhos))
    scalar = [[environment_entropy_oracle(ch, rho) for rho in rhos] for ch in channels]
    assert _bits(scalar) == _bits(batch)
