import itertools
from dataclasses import asdict

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
from paulinoise.measures import _kraus_contraction, report_batch
from paulinoise.verify import random_blochs

# binary entropy of (1 + sqrt(0.97))/2, evaluated with 50-digit arithmetic;
# the input entropy of every reference state used below
H_REF = 0.06412343509793366
# binary entropy of 3/4
H_THREE_QUARTERS = 0.8112781244591328
# binary entropy of 0.3
H_POINT_THREE = 0.8812908992306927


def _rho(a):
    return bloch_to_density(a)


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


def _eigensystem_inputs():
    """a = 0; |a| around the 1e-13 degeneracy cut on and off the axes;
    components of 1e-12 and 1e-8; pure states on and off each axis; and
    seeded states."""
    states = [(0.0, 0.0, 0.0)]
    directions = np.array([*np.eye(3), *-np.eye(3), np.ones(3) / np.sqrt(3), (0.6, -0.8, 0)])
    states += [r * d for r in (1e-14, 1e-13, 2e-13) for d in directions]
    states += itertools.product((0.0, 1e-12, -1e-12, 1e-8, -1e-8), repeat=3)
    states += [*directions, (0.48, 0.6, -0.64), (0.0, 0.6, 0.8)]
    states += itertools.islice(random_blochs(5), 100)
    return np.array([_rho(a) for a in states])


def test_eigensystem_is_orthonormal_and_rebuilds_the_state():
    rhos = _eigensystem_inputs()
    vals, vectors = measures._eigensystem_batch(rhos)
    # v[s, p, b]: component b of the eigenvector of vals[s, p]
    v = np.moveaxis(np.array([[re + 1j * im for re, im in vec] for vec in vectors]), -1, 0)
    gram = np.einsum("spb,sqb->spq", v.conj(), v)
    assert np.abs(gram - np.eye(2)).max() <= 1e-15
    rebuilt = np.einsum("sp,spa,spb->sab", vals, v, v.conj())
    gap = vals[:, 0] - vals[:, 1]
    degenerate = gap <= 1e-13
    # inside the cut the standard basis stands in, off by at most half the gap
    tol = np.where(degenerate, gap / 2, 0.0) + 1e-15
    assert (np.abs(rebuilt - rhos).max(axis=(1, 2)) <= tol).all()
    basis = np.abs(v[degenerate])
    assert degenerate.sum() > 1 and ((basis == 0.0) | (basis == 1.0)).all()


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
    calls = {"as_matrix": 0, "_domain": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(linalg, "as_matrix")
    monkeypatch.setattr(bloch, "as_matrix", linalg.as_matrix)
    counted(closedform, "_domain")
    full_report(ch, rho)
    assert calls == {"as_matrix": 1, "_domain": 0}


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


# full_report and report_batch run one contraction, so every quantity but
# the entropies (math.log2 against np.log2) is bit-equal between them.
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


@pytest.mark.parametrize("axis", list(PauliAxis), ids=lambda axis: axis.token)
def test_full_report_is_bit_equal_to_report_batch(axis):
    channels = [KrausChannel(axis, x) for x in KERNEL_RATES]
    rhos = [bloch_to_density(a) for a in KERNEL_STATES]
    batch = report_batch(np.array([ch.ops for ch in channels]), np.array(rhos))
    for g, ch in enumerate(channels):
        for s, rho in enumerate(rhos):
            rep, at = full_report(ch, rho), (g, s)
            assert _bits(rep.bloch_out) == _bits(batch["bloch_out"][at]), at
            assert _bits(rep.lambdas) == _bits(batch["lambdas"][at]), at
            assert _bits(rep.thetas) == _bits(batch["thetas"][at]), at
            assert _bits(rep.fidelity_numeric) == _bits(batch["fidelity_numeric"][at]), at
            assert abs(rep.noise_n - batch["noise_n"][at]) <= 1e-15, at
            assert abs(rep.coherent_c - batch["coherent_c"][at]) <= 1e-15, at
