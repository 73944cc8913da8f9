"""Information measures of a Kraus channel acting on a qubit state.

The exchange matrix W_ij = Tr(A_i rho A_j^dagger) drives everything: its
spectrum entropy is the quantum noise N, the output-state entropy minus N
is the coherent information, and the input entropy enters the mutual
information. The entangled fidelity sum_mu |Tr(rho A_mu)|^2 measures how
well the channel preserves the state together with its entanglement.

environment_entropy_oracle recomputes N from first principles through the
system-environment dilation. It shares no intermediate quantities with W,
which makes the pair a genuine two-route consistency check.

report_batch is the one Kraus-route sequence, contraction to entropies, on
the (re, im) pairs of the Kraus operators and of the state: Python floats in
full_report, or arrays that broadcast over a grid of channels by a set of
states, as environment_entropy_oracle_batch takes them; only
verify.axis_routes stacks them. Every complex product is linalg._vdot's, every
spectrum linalg._eigenvalues' and every entropy linalg._entropy's (math.log2),
so none depends on the BLAS kernel or on numpy's SIMD dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import closedform
from .bloch import BlochVector, _checked_density
from .channels import KrausChannel
from .linalg import SpectrumPair, _eigenvalues, _entropy, _vdot


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
    """The output state and W as their row-major (re, im) pairs, the entangled
    fidelity and bloch_out, from the pairs of each Kraus operator and the state:
    Python numbers (full_report) or arrays that broadcast (report_batch). _vdot
    spells out every complex product, so both give the same bits on any BLAS."""
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
    pairs = np.array(_checked_density(rho)[1])[..., None]
    ops = np.array(ch.ops)[..., None, None]
    return float(environment_entropy_oracle_batch(ops, pairs)[0, 0])


def full_report(ch: KrausChannel, rho) -> ChannelReport:
    """Evaluate every measure at one operating point.

    The state is validated once, by check_density's pass, whose pairs give
    report_batch's input and bloch_in and whose spectrum gives h_in; the
    channel is validated by its constructor. Everything derived from them
    goes straight to the cores, whose spectral guards (Hermiticity,
    discriminant, spectrum bounds) still run.
    """
    _, pairs, spectrum = _checked_density(rho)
    bloch_in = _bloch_of(pairs)
    h_in = _entropy(spectrum)
    kraus = report_batch(ch.ops, pairs)
    return ChannelReport(
        x=ch.x,
        bloch_in=bloch_in,
        h_in=h_in,
        fidelity_paper=closedform._fidelity_paper(
            ch.axis, ch.x, bloch_in[ch.axis - 1]
        ),
        mutual_info=h_in + kraus["h_out"] - kraus["noise_n"],
        **kraus,
    )


def report_batch(ops, rho) -> dict:
    """The full_report measures bloch_out (a BlochVector), thetas and lambdas
    (SpectrumPairs), h_out, noise_n, coherent_c and fidelity_numeric, of floats
    or of arrays, from the pairs _kraus_contraction reads; the ops are valid
    from KrausChannel, the state from check_density or bloch_to_density."""
    out, w, fidelity, bloch_out = _kraus_contraction(ops, rho)
    thetas = _eigenvalues(out)
    h_out = _entropy(thetas)
    lambdas = _eigenvalues(w)
    noise = _entropy(lambdas)
    return {
        "bloch_out": bloch_out,
        "thetas": thetas,
        "h_out": h_out,
        "lambdas": lambdas,
        "noise_n": noise,
        "coherent_c": h_out - noise,
        "fidelity_numeric": fidelity,
    }


def _eigensystem_batch(rho):
    """Closed-form spectral decomposition of 2x2 Hermitian matrices given as
    their four row-major (re, im) pairs of arrays of shape (S,): the spectra,
    a SpectrumPair of arrays of shape (S,), and the eigenvectors (v_hi, v_lo),
    each two (re, im) component pairs of arrays of shape (S,).

    The top eigenvector comes from the better-conditioned of the two
    analytic expressions; the second is its exact orthogonal complement,
    so the pair stays orthonormal even for nearly degenerate spectra.
    Within a hair of exact degeneracy (a gap of 1e-13 or less) the standard
    basis, ordered by the diagonal, rebuilds the matrix to half the gap.
    """
    (r00, _), (r01, i01), _, (r11, _) = rho
    vals = _eigenvalues(rho)
    hi, lo = vals
    v1 = r01, i01, hi - r00, 0.0  # two eigenvectors of hi as (re, im, re, im)
    v2 = hi - r11, 0.0, r01, -i01
    n1, n2 = (sum(c * c for c in v) for v in (v1, v2))
    first = n1 >= n2
    degenerate = hi - lo <= 1e-13
    norm = np.sqrt(np.where(degenerate, 1.0, np.where(first, n1, n2)))
    ar, ai, br, bi = (np.where(degenerate, e, np.where(first, c1, c2) / norm)
                      for e, c1, c2 in zip((r00 >= r11, 0.0, r00 < r11, 0.0), v1, v2))
    return vals, (((ar, ai), (br, bi)), ((-br, bi), (ar, -ai)))


def environment_entropy_oracle_batch(ops, rho) -> np.ndarray:
    """environment_entropy_oracle for every broadcast (channel, state) cell,
    through its own dilation: each eigenvector v of rho is pushed through
    V v = sum_e (A_e v) x |e>, the system is traced out, and the entropy of
    the environment state is returned; ops as report_batch takes them, and
    rho as _eigensystem_batch does."""
    probs, vectors = _eigensystem_batch(rho)
    # the weight p of each image below, clamped so rounding zeros drop out
    probs = np.array(probs)
    weights = np.repeat(np.where(probs > 0.0, probs, 0.0), 2, axis=0)
    # images[e] = (A_e v_p)_a over (p, a): row a of A_e against v_p, passed
    # conjugated since _vdot conjugates its first argument
    conj_vectors = [[(re, -im) for re, im in v] for v in vectors]
    images = [[_vdot(v, op[a:a + 2]) for v in conj_vectors for a in (0, 2)] for op in ops]
    weighted = [[(w * re, w * im) for w, (re, im) in zip(weights, img)] for img in images]
    # env_ef = sum_p p <A_f v_p|A_e v_p>: the system traced out
    env = [_vdot(images[f], weighted[e]) for e in (0, 1) for f in (0, 1)]
    return _entropy(_eigenvalues(env))
