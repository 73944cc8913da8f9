"""Information measures of a Kraus channel acting on a qubit state.

The exchange matrix W_ij = Tr(A_i rho A_j^dagger) drives everything: its
spectrum entropy is the quantum noise N, the output-state entropy minus N
is the coherent information, and the input entropy enters the mutual
information. The entangled fidelity sum_mu |Tr(rho A_mu)|^2 measures how
well the channel preserves the state together with its entanglement.

environment_entropy_oracle recomputes N from first principles through the
system-environment dilation. It shares no intermediate quantities with W,
which makes the pair a genuine two-route consistency check.

report_batch and environment_entropy_oracle_batch evaluate the same two
routes over a grid of channels and a set of states at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import closedform
from .bloch import SIGMAS, BlochVector, _bloch_of, check_density
from .channels import KrausChannel
from .linalg import (
    SpectrumPair,
    _eigenvalues_2x2,
    hermitian_eigenvalues_batch,
    spectrum_entropy,
    spectrum_entropy_batch,
)

_SIGMA_STACK = np.array(SIGMAS)


@dataclass(frozen=True)
class ChannelReport:
    """Every measure at one operating point."""

    x: float
    bloch_in: BlochVector
    bloch_out: BlochVector
    h_in: float
    h_out: float
    noise_n: float
    coherent_c: float
    fidelity_numeric: float
    fidelity_paper: float
    lambdas: SpectrumPair
    thetas: SpectrumPair
    mutual_info: float


# The scalar Kraus contraction, one pass per operator in report_batch's
# order (left, out, W, traces). full_report validates the state once
# (check_density) and calls it; a channel is valid from its construction.


def _kraus_contraction(ops, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The output state, the exchange matrix W and the entangled fidelity."""
    out = np.zeros((2, 2), dtype=complex)
    w = np.empty((2, 2), dtype=complex)
    fidelity = 0.0
    for i, op in enumerate(ops):
        left = op @ rho
        out += left @ op.conj().T
        for j, op_j in enumerate(ops):
            w[i, j] = np.vdot(op_j, left)  # Tr(A_j^dagger A_i rho)
        t = complex(np.trace(rho @ op))  # Tr(rho A_i)
        fidelity += t.real * t.real + t.imag * t.imag
    return out, w, fidelity


def environment_entropy_oracle(ch: KrausChannel, rho) -> float:
    """Entropy exchange recomputed through the system-environment dilation.

    The channel is realized as the isometry V psi = sum_i (A_i psi) x |i>,
    each eigenvector of rho is pushed through V, the system is traced out,
    and the entropy of the resulting environment state is returned. Must
    agree with full_report's noise_n for every valid input.
    """
    rho = check_density(rho)
    kraus = np.array([ch.ops])
    return float(environment_entropy_oracle_batch(kraus, rho[None])[0, 0])


def full_report(ch: KrausChannel, rho) -> ChannelReport:
    """Evaluate every measure at one operating point.

    The state is validated once, by check_density, and the channel by its
    constructor; the cores' spectral guards (Hermiticity, discriminant,
    spectrum bounds) still run on everything derived from them.
    """
    rho = check_density(rho)
    bloch_in = _bloch_of(rho)
    h_in = spectrum_entropy(_eigenvalues_2x2(rho))
    out, w, fidelity = _kraus_contraction(ch.ops, rho)
    thetas = _eigenvalues_2x2(out)
    h_out = spectrum_entropy(thetas)
    lambdas = _eigenvalues_2x2(w)
    noise_n = spectrum_entropy(lambdas)
    return ChannelReport(
        x=ch.x,
        bloch_in=bloch_in,
        bloch_out=_bloch_of(out),
        h_in=h_in,
        h_out=h_out,
        noise_n=noise_n,
        coherent_c=h_out - noise_n,
        fidelity_numeric=fidelity,
        fidelity_paper=closedform._fidelity_paper(
            ch.axis, ch.x, bloch_in[ch.axis - 1]
        ),
        lambdas=lambdas,
        thetas=thetas,
        mutual_info=h_in + h_out - noise_n,
    )


# Batched routes. kraus has shape (G, 2, 2, 2): two Kraus operators for each
# of G channels; rhos has shape (S, 2, 2). Both are valid by construction:
# the stack from KrausChannel, the states from bloch_to_density. Every
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
    """Closed-form spectral decomposition of a stack of 2x2 Hermitian
    matrices: spectra of shape (S, 2) and eigenvectors of shape (S, 2, 2)
    indexed [state, hi/lo, component].

    The top eigenvector comes from the better-conditioned of the two
    analytic expressions; the second is its exact orthogonal complement,
    so the pair stays orthonormal even for nearly degenerate spectra.
    Within a hair of exact degeneracy any orthonormal basis diagonalizes
    the matrix to working precision, so the standard basis is used.
    """
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
