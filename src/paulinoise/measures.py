"""Information measures of a Kraus channel acting on a qubit state.

The exchange matrix W_ij = Tr(A_i rho A_j^dagger) drives everything: its
spectrum entropy is the quantum noise N, the output-state entropy minus N
is the coherent information, and the input entropy enters the mutual
information. The entangled fidelity sum_mu |Tr(rho A_mu)|^2 measures how
well the channel preserves the state together with its entanglement.

environment_entropy_oracle recomputes N from first principles through the
dilation of the canonical purification sqrt(rho). It shares no intermediate
quantity with W, which makes the pair a genuine two-route consistency check.

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
    """Entropy exchange recomputed through the system-environment dilation
    V psi = sum_i (A_i psi) x |i> of the canonical purification of rho, by the
    columns of sqrt(rho): environment_entropy_oracle_batch on numpy scalars.
    Must agree with full_report's noise_n for every valid input."""
    return float(environment_entropy_oracle_batch(ch.ops, _checked_density(rho)[1]))


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
    from KrausChannel, the state from check_density or _density_pairs."""
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


def environment_entropy_oracle_batch(ops, rho) -> np.ndarray:
    """environment_entropy_oracle for every broadcast (channel, state) cell: the columns
    m_k of sqrt(rho) = (rho + sI)/t, s = sqrt(det rho), t = sqrt(tr rho + 2s) (Cayley-Hamilton),
    go through V m = sum_e (A_e m) x |e>, and the entropy of the environment state left by
    tracing out the system is returned; ops and rho as report_batch takes them."""
    (r00, _), (r01, i01), (r10, i10), (r11, _) = rho
    # det rho floored at 0, which moves the rebuilt state by at most |det|
    det = r00 * r11 - (r01 * r10 - i01 * i10)
    s = np.sqrt(np.maximum(det, 0.0))
    t = np.sqrt(r00 + r11 + 2.0 * s)
    # the columns m_k, conjugated since _vdot conjugates its first argument
    columns = ((((r00 + s) / t, 0.0), (r10 / t, -i10 / t)),
               ((r01 / t, -i01 / t), ((r11 + s) / t, 0.0)))
    # images[e] = (A_e m_k)_a over (k, a): row a of A_e against m_k
    images = [[_vdot(m, op[a:a + 2]) for m in columns for a in (0, 2)] for op in ops]
    # env_ef = sum_k <A_f m_k|A_e m_k>: the system traced out
    env = [_vdot(images[f], images[e]) for e in (0, 1) for f in (0, 1)]
    return _entropy(_eigenvalues(env))
