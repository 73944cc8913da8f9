"""Information measures of a Kraus channel acting on a qubit state.

The exchange matrix W_ij = Tr(A_i rho A_j^dagger) drives everything: its
spectrum entropy is the quantum noise N, the output-state entropy minus N
is the coherent information, and the input entropy enters the mutual
information. The entangled fidelity sum_mu |Tr(rho A_mu)|^2 measures how
well the channel preserves the state together with its entanglement.

environment_entropy_oracle recomputes N from first principles through the
system-environment dilation. It shares no intermediate quantities with
w_matrix, which makes the pair a genuine two-route consistency check.

report_batch and environment_entropy_oracle_batch evaluate the same two
routes over a grid of channels and a set of states at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from . import closedform
from .bloch import SIGMAS, BlochVector, check_density
from .channels import (
    COMPLETENESS_TOL,
    KrausChannel,
    apply_channel,
    completeness_residual,
)
from .errors import ValidationError
from .linalg import (
    SpectrumPair,
    hermitian_eigenvalues_2x2,
    hermitian_eigenvalues_batch,
    inner_product,
    spectrum_entropy,
    spectrum_entropy_batch,
)

_SIGMA_STACK = np.array(SIGMAS)


@dataclass(frozen=True)
class ChannelReport:
    """Every measure at one operating point. x and fidelity_paper are None
    when the channel carries no construction metadata."""

    x: float | None
    bloch_in: BlochVector
    bloch_out: BlochVector
    h_in: float
    h_out: float
    noise_n: float
    coherent_c: float
    fidelity_numeric: float
    fidelity_paper: float | None
    lambdas: SpectrumPair
    thetas: SpectrumPair
    mutual_info: float


def _require_valid(ch: KrausChannel, rho) -> np.ndarray:
    residual = completeness_residual(ch)
    if residual > COMPLETENESS_TOL:
        raise ValidationError(
            f"incomplete Kraus set: completeness residual {residual:.3e} "
            f"exceeds {COMPLETENESS_TOL}"
        )
    return check_density(rho)


# Internal cores working on pre-validated inputs. The public wrappers always
# validate; full_report validates once and then reuses these.


def _output_state(ops, rho: np.ndarray) -> np.ndarray:
    out = np.zeros((2, 2), dtype=complex)
    for op in ops:
        out += op @ rho @ op.conj().T
    return out


def _w_entries(ops, rho: np.ndarray) -> np.ndarray:
    n = len(ops)
    w = np.empty((n, n), dtype=complex)
    for i, op_i in enumerate(ops):
        left = op_i @ rho
        for j, op_j in enumerate(ops):
            w[i, j] = np.vdot(op_j, left)  # Tr(A_j^dagger A_i rho)
    return w


def _fidelity_sum(ops, rho: np.ndarray) -> float:
    total = 0.0
    for op in ops:
        t = complex(np.trace(rho @ op))
        total += t.real * t.real + t.imag * t.imag
    return total


def _bloch_of(rho: np.ndarray) -> BlochVector:
    return BlochVector(*(float(np.vdot(pauli, rho).real) for pauli in SIGMAS))


def w_matrix(ch: KrausChannel, rho) -> np.ndarray:
    """Exchange matrix with entry (i, j) = Tr(A_i rho A_j^dagger)."""
    rho = _require_valid(ch, rho)
    n = len(ch.ops)
    w = np.empty((n, n), dtype=complex)
    for i, op_i in enumerate(ch.ops):
        left = op_i @ rho
        for j, op_j in enumerate(ch.ops):
            w[i, j] = inner_product(op_j, left)
    return w


def w_spectrum(w) -> SpectrumPair:
    """Eigenvalues of an exchange matrix, descending."""
    w = np.asarray(w, dtype=complex)
    if w.shape == (1, 1):
        return SpectrumPair(float(w[0, 0].real), 0.0)
    if w.shape == (2, 2):
        return hermitian_eigenvalues_2x2(w)
    raise ValidationError(
        f"exchange spectra beyond 2x2 are out of scope, got {w.shape}"
    )


def entropy_exchange(ch: KrausChannel, rho) -> float:
    """Quantum noise N in bits: entropy of the exchange-matrix spectrum."""
    return spectrum_entropy(w_spectrum(w_matrix(ch, rho)))


def coherent_information(ch: KrausChannel, rho) -> float:
    """Output-state entropy minus entropy exchange, in bits."""
    out = apply_channel(ch, rho)
    h_out = spectrum_entropy(hermitian_eigenvalues_2x2(out))
    return h_out - entropy_exchange(ch, rho)


def entangled_fidelity(ch: KrausChannel, rho) -> float:
    """sum_mu |Tr(rho A_mu)|^2; for Hermitian rho this equals the product
    form (Tr rho A_mu)(Tr rho A_mu^dagger). Always in [0, 1]."""
    rho = _require_valid(ch, rho)
    return _fidelity_sum(ch.ops, rho)


def mutual_information(ch: KrausChannel, rho) -> float:
    """Input entropy plus output entropy minus entropy exchange, in bits."""
    rho = _require_valid(ch, rho)
    h_in = spectrum_entropy(hermitian_eigenvalues_2x2(rho))
    out = apply_channel(ch, rho)
    h_out = spectrum_entropy(hermitian_eigenvalues_2x2(out))
    return h_in + h_out - entropy_exchange(ch, rho)


def _eigensystem_2x2(rho: np.ndarray) -> tuple[SpectrumPair, tuple[np.ndarray, np.ndarray]]:
    """Closed-form spectral decomposition of a 2x2 Hermitian matrix.

    The top eigenvector comes from the better-conditioned of the two
    analytic expressions; the second is its exact orthogonal complement,
    so the pair stays orthonormal even for nearly degenerate spectra.
    Within a hair of exact degeneracy any orthonormal basis diagonalizes
    the matrix to working precision, so the standard basis is used.
    """
    vals = hermitian_eigenvalues_2x2(rho)
    if vals.hi - vals.lo <= 1e-13:
        basis = np.eye(2, dtype=complex)
        return vals, (basis[:, 0], basis[:, 1])
    off = complex(rho[0, 1])
    v1 = np.array([off, vals.hi - rho[0, 0].real], dtype=complex)
    v2 = np.array([vals.hi - rho[1, 1].real, off.conjugate()], dtype=complex)
    v_hi = v1 if np.vdot(v1, v1).real >= np.vdot(v2, v2).real else v2
    v_hi = v_hi / sqrt(np.vdot(v_hi, v_hi).real)
    v_lo = np.array([-v_hi[1].conjugate(), v_hi[0].conjugate()])
    return vals, (v_hi, v_lo)


def environment_entropy_oracle(ch: KrausChannel, rho) -> float:
    """Entropy exchange recomputed through the system-environment dilation.

    The channel is realized as the isometry V psi = sum_i (A_i psi) x |i>,
    each eigenvector of rho is pushed through V, the system is traced out,
    and the entropy of the resulting environment state is returned. Must
    agree with entropy_exchange for every valid input.
    """
    rho = _require_valid(ch, rho)
    n = len(ch.ops)
    if n > 2:
        raise ValidationError(
            "environment spectra beyond two Kraus operators are out of scope"
        )
    probs, vectors = _eigensystem_2x2(rho)
    iso = np.zeros((2 * n, 2), dtype=complex)
    for e, op in enumerate(ch.ops):
        iso[e::n, :] = op  # joint index (s, e) -> s * n + e
    env = np.zeros((n, n), dtype=complex)
    for p, vec in zip(probs, vectors):
        if p <= 0.0:  # clamped rounding zeros contribute nothing
            continue
        joint = (iso @ vec).reshape(2, n)
        env += p * (joint.T @ joint.conj())
    if n == 1:
        return spectrum_entropy((env[0, 0].real,))
    return spectrum_entropy(hermitian_eigenvalues_2x2(env))


def full_report(ch: KrausChannel, rho) -> ChannelReport:
    """Evaluate every measure at one operating point.

    Inputs are validated once up front; the output-state invariants are
    still enforced through the spectral guards (Hermiticity residual,
    eigenvalue floor) on everything derived from it.
    """
    rho = _require_valid(ch, rho)
    bloch_in = _bloch_of(rho)
    h_in = spectrum_entropy(hermitian_eigenvalues_2x2(rho))
    out = _output_state(ch.ops, rho)
    thetas = hermitian_eigenvalues_2x2(out)
    h_out = spectrum_entropy(thetas)
    lambdas = w_spectrum(_w_entries(ch.ops, rho))
    noise_n = spectrum_entropy(lambdas)
    fidelity_paper = None
    if ch.axis is not None and ch.x is not None:
        fidelity_paper = closedform.fidelity_paper_closed(ch.axis, ch.x, bloch_in)
    return ChannelReport(
        x=ch.x,
        bloch_in=bloch_in,
        bloch_out=_bloch_of(out),
        h_in=h_in,
        h_out=h_out,
        noise_n=noise_n,
        coherent_c=h_out - noise_n,
        fidelity_numeric=_fidelity_sum(ch.ops, rho),
        fidelity_paper=fidelity_paper,
        lambdas=lambdas,
        thetas=thetas,
        mutual_info=h_in + h_out - noise_n,
    )


# Batched routes. kraus has shape (G, 2, 2, 2): two Kraus operators for each
# of G channels; rhos has shape (S, 2, 2). Both are validated by the caller
# (completeness per channel, check_density_batch on the states); every
# result has leading shape (G, S).


def report_batch(kraus: np.ndarray, rhos: np.ndarray) -> dict[str, np.ndarray]:
    """The full_report measures bloch_out, lambdas, thetas, noise_n,
    coherent_c and fidelity_numeric for every (channel, state) pair; the
    spectra carry a trailing (hi, lo) axis."""
    conj = kraus.conj()
    left = np.einsum("giab,sbc->gsiac", kraus, rhos, optimize=True)  # A_i rho
    out = np.einsum("gsiac,gidc->gsad", left, conj, optimize=True)
    # Tr(A_j^dagger A_i rho)
    w = np.einsum("gjac,gsiac->gsij", conj, left, optimize=True)
    thetas = hermitian_eigenvalues_batch(out)
    lambdas = hermitian_eigenvalues_batch(w)
    h_out = spectrum_entropy_batch(thetas)
    noise = spectrum_entropy_batch(lambdas)
    traces = np.einsum("sab,giba->gsi", rhos, kraus, optimize=True)  # Tr(rho A_i)
    return {
        "bloch_out": np.einsum(
            "kab,gsab->gsk", _SIGMA_STACK.conj(), out, optimize=True
        ).real,
        "lambdas": lambdas,
        "thetas": thetas,
        "noise_n": noise,
        "coherent_c": h_out - noise,
        "fidelity_numeric": (traces.real**2 + traces.imag**2).sum(axis=-1),
    }


def _eigensystem_batch(rhos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_eigensystem_2x2 over a stack of states: spectra of shape (S, 2) and
    eigenvectors of shape (S, 2, 2) indexed [state, hi/lo, component]."""
    vals = hermitian_eigenvalues_batch(rhos)
    hi = vals[:, 0]
    off = rhos[:, 0, 1]
    v1 = np.stack((off, hi - rhos[:, 0, 0].real), axis=-1)
    v2 = np.stack((hi - rhos[:, 1, 1].real, off.conj()), axis=-1)
    n1 = (v1.conj() * v1).real.sum(axis=-1)
    n2 = (v2.conj() * v2).real.sum(axis=-1)
    first = n1 >= n2
    degenerate = vals[:, 0] - vals[:, 1] <= 1e-13
    norm = np.sqrt(np.where(degenerate, 1.0, np.where(first, n1, n2)))
    v_hi = np.where(first[:, None], v1, v2) / norm[:, None]
    v_lo = np.stack((-v_hi[:, 1].conj(), v_hi[:, 0].conj()), axis=-1)
    vectors = np.stack((v_hi, v_lo), axis=1)
    vectors[degenerate] = np.eye(2)
    return vals, vectors


def environment_entropy_oracle_batch(kraus: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """environment_entropy_oracle for every (channel, state) pair, through
    its own dilation: each eigenvector v of rho is pushed through
    V v = sum_e (A_e v) x |e>, the system is traced out, and the entropy of
    the environment state is returned with shape (G, S)."""
    probs, vectors = _eigensystem_batch(rhos)
    weights = np.where(probs > 0.0, probs, 0.0)  # clamped rounding zeros drop out
    # (V v_p)[system a, env e]
    images = np.einsum("geab,spb->gspae", kraus, vectors, optimize=True)
    env = np.einsum("sp,gspae,gspaf->gsef", weights, images, images.conj())
    return spectrum_entropy_batch(hermitian_eigenvalues_batch(env))
