"""Information measures of a Kraus channel acting on a qubit state.

The exchange matrix W_ij = Tr(A_i rho A_j^dagger) drives everything: its
spectrum entropy is the quantum noise N, the output-state entropy minus N
is the coherent information, and the input entropy enters the mutual
information. The entangled fidelity sum_mu |Tr(rho A_mu)|^2 measures how
well the channel preserves the state together with its entanglement.

environment_entropy_oracle recomputes N from first principles through the
system-environment dilation. It shares no intermediate quantities with W,
which makes the pair a genuine two-route consistency check.

report_batch and environment_entropy_oracle_batch evaluate both routes over
a grid of channels and a set of states at once. Every complex product here
is linalg._vdot's arithmetic on (re, im) pairs and every spectrum comes
from linalg._eigenvalues, so none depends on the BLAS kernel or on numpy's
SIMD dispatch; only the batch entropies' np.log2 does.
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
    rhos = check_density(rho)[None]
    return float(environment_entropy_oracle_batch(np.array([ch.ops]), rhos)[0, 0])


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


def _eigensystem_batch(rhos: np.ndarray):
    """Closed-form spectral decomposition of a stack of 2x2 Hermitian
    matrices: spectra of shape (S, 2) and the eigenvectors (v_hi, v_lo),
    each two (re, im) component pairs of arrays of shape (S,).

    The top eigenvector comes from the better-conditioned of the two
    analytic expressions; the second is its exact orthogonal complement,
    so the pair stays orthonormal even for nearly degenerate spectra.
    Within a hair of exact degeneracy (a gap of 1e-13 or less) the standard
    basis, ordered by the diagonal, rebuilds the matrix to half the gap.
    """
    (r00, _), (r01, i01), _, (r11, _) = rho = _pairs(np.moveaxis(rhos, 0, -1))
    vals = _eigenvalues(rho)
    hi, lo = vals.T
    v1 = r01, i01, hi - r00, 0.0  # two eigenvectors of hi as (re, im, re, im)
    v2 = hi - r11, 0.0, r01, -i01
    n1, n2 = (sum(c * c for c in v) for v in (v1, v2))
    first = n1 >= n2
    degenerate = hi - lo <= 1e-13
    norm = np.sqrt(np.where(degenerate, 1.0, np.where(first, n1, n2)))
    ar, ai, br, bi = (np.where(degenerate, e, np.where(first, c1, c2) / norm)
                      for e, c1, c2 in zip((r00 >= r11, 0.0, r00 < r11, 0.0), v1, v2))
    return vals, (((ar, ai), (br, bi)), ((-br, bi), (ar, -ai)))


def environment_entropy_oracle_batch(kraus: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """environment_entropy_oracle for every (channel, state) pair, through
    its own dilation: each eigenvector v of rho is pushed through
    V v = sum_e (A_e v) x |e>, the system is traced out, and the entropy of
    the environment state is returned with shape (G, S)."""
    probs, vectors = _eigensystem_batch(rhos)
    # the weight p of each image below, clamped so rounding zeros drop out
    weights = np.repeat(np.where(probs > 0.0, probs, 0.0).T, 2, axis=0)
    # entries A_e[a][b] of shape (G, 1) against eigenvector components of shape (S,)
    ops = [_pairs(op) for op in np.moveaxis(kraus, 0, -1)[..., None]]
    # images[e] = (A_e v_p)_a over (p, a): row a of A_e against v_p, passed
    # conjugated since _vdot conjugates its first argument
    conj_vectors = [[(re, -im) for re, im in v] for v in vectors]
    images = [[_vdot(v, op[a:a + 2]) for v in conj_vectors for a in (0, 2)] for op in ops]
    weighted = [[(w * re, w * im) for w, (re, im) in zip(weights, img)] for img in images]
    # env_ef = sum_p p <A_f v_p|A_e v_p>: the system traced out
    env = [_vdot(images[f], weighted[e]) for e in (0, 1) for f in (0, 1)]
    return spectrum_entropy_batch(_eigenvalues(env))
