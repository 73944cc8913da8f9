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
routes over a grid of channels and a set of states at once. Both Kraus
kernels call _kraus_contraction and pass its (re, im) pairs to the one
eigenvalue kernel, linalg._eigenvalues, so they differ only in their
entropies (math.log2 against np.log2), and no result depends on the BLAS
kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import closedform
from .bloch import BlochVector, _checked_density, check_density
from .channels import KrausChannel
from .linalg import (
    SpectrumPair,
    _eigenvalues,
    _entropy,
    _pairs,
    _vdot,
    hermitian_eigenvalues_batch,
    spectrum_entropy_batch,
)


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


def _bloch_of(m) -> BlochVector:
    """Tr(sigma_k m), k = 1, 2, 3: one sum or difference of two entries each."""
    return BlochVector(m[1][0] + m[2][0], m[2][1] - m[1][1], m[0][0] - m[3][0])


def _kraus_contraction(ops, rho):
    """The output state and W as their four row-major (re, im) pairs, the
    entangled fidelity and bloch_out, from 2x2 nested entries of the Kraus
    operators and the state's four row-major (re, im) pairs: Python numbers
    (full_report) or arrays that broadcast together (report_batch). _vdot
    spells out every complex product, so both give the same bits, whatever
    the BLAS kernel."""
    ops = [_pairs(op) for op in ops]
    # left_i = A_i rho: entry (r, c) takes row r of A_i against column c of
    # rho, passed conjugated since _vdot conjugates its first argument
    conj_columns = [[(re, -im) for re, im in rho[c::2]] for c in (0, 1)]
    lefts = [[_vdot(col, op[r:r + 2]) for r in (0, 2) for col in conj_columns]
             for op in ops]
    # out = 0 + sum_i left_i A_i^dagger: entry (a, d) takes row a of every
    # left_i against row d of its A_i
    op_rows = [[z for op in ops for z in op[d:d + 2]] for d in (0, 2)]
    left_rows = [[z for left in lefts for z in left[a:a + 2]] for a in (0, 2)]
    out = [_vdot(op_row, left_row) for left_row in left_rows for op_row in op_rows]
    # W_ij = Tr(A_j^dagger left_i), summed in np.vdot's row-major order
    w = [_vdot(op_j, left_i) for left_i in lefts for op_j in ops]
    # the entangled fidelity sum_i |Tr(A_i rho)|^2, as Tr(A_i rho) = Tr(left_i)
    traces = [(re0 + re3, im0 + im3) for (re0, im0), _, _, (re3, im3) in lefts]
    fidelity = _vdot(traces, traces)[0]
    return out, w, fidelity, _bloch_of(out)


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

    The state is validated once, by check_density's pass, whose pairs give
    the contraction's input and bloch_in and whose spectrum gives h_in; the
    channel is validated by its constructor. Everything derived from them
    goes straight to the cores, whose spectral guards (Hermiticity,
    discriminant, spectrum bounds) still run.
    """
    _, pairs, spectrum = _checked_density(rho)
    bloch_in = _bloch_of(pairs)
    h_in = _entropy(spectrum)
    ops = [op.tolist() for op in ch.ops]
    out, w, fidelity, bloch_out = _kraus_contraction(ops, pairs)
    thetas = _eigenvalues(out)
    h_out = _entropy(thetas)
    lambdas = _eigenvalues(w)
    noise_n = _entropy(lambdas)
    return ChannelReport(
        x=ch.x,
        bloch_in=bloch_in,
        bloch_out=bloch_out,
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
    # entries ops[i][a][b] of shape (G, 1) and rho[a][b] of shape (1, S)
    out, w, fidelity, bloch_out = _kraus_contraction(
        np.moveaxis(kraus, 0, -1)[..., None],
        _pairs(np.moveaxis(rhos, 0, -1)[..., None, :]),
    )
    thetas = _eigenvalues(out)
    lambdas = _eigenvalues(w)
    h_out = spectrum_entropy_batch(thetas)
    noise = spectrum_entropy_batch(lambdas)
    return {
        "bloch_out": np.stack(bloch_out, axis=-1),
        "lambdas": lambdas,
        "thetas": thetas,
        "noise_n": noise,
        "coherent_c": h_out - noise,
        "fidelity_numeric": fidelity,
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
