"""Per-channel analytic expressions for the one-Pauli channels.

These are transcriptions of the published closed forms, not re-derivations,
so that the generic Kraus path can cross-validate them and any typo in the
source formulas surfaces as a residual instead of being silently corrected.
closed_batch evaluates them with one body on Python floats at one point,
which is closed_point, the one entry that validates its point, or over a
grid of retention rates and a set of Bloch vectors as arrays that broadcast;
fidelity_paper_closed is closed_point's fidelity_paper. The lambda and theta
spectra are linalg.split_spectrum of their radicands, the split and floor
the eigenvalue kernel uses, and the entropies linalg._entropy's.
The known case is the axis-2 fidelity, whose printed sign disagrees with
the trace-form definition; see fidelity_paper_closed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bloch import BlochVector, check_bloch
from .channels import PauliAxis, as_axis, check_retention
from .linalg import SpectrumPair, _entropy, split_spectrum


@dataclass(frozen=True)
class ClosedFormPoint:
    """All closed-form quantities at one operating point (axis, x, a), as
    printed, with k the channel axis and t^2 = |a|^2 - a_k^2; the caller
    holds the point, so the record does not repeat it:

    b keeps a_k and scales the transverse components by (2x - 1);
    lambdas = [1 +- sqrt(1 - 4x(x-1)(a_k^2 - 1))]/2, the exchange matrix's;
    thetas = [1 +- sqrt(a_k^2 + t^2 (1-2x)^2)]/2, the output state's;
    noise_n is the binary entropy of lambdas in bits, coherent_c that of
    thetas minus noise_n; fidelity_paper is fidelity_paper_closed.
    """

    b: BlochVector
    lambdas: SpectrumPair
    thetas: SpectrumPair
    noise_n: float
    coherent_c: float
    fidelity_paper: float


def _lambda_radicand(x, ak):
    """1 - 4x(x-1)(a_k^2 - 1) as u u + 4x(1-x) a_k^2, u = 2x-1, which keeps a
    tiny radicand (x near 1/2, tiny a_k) accurate; floats, arrays or Fractions."""
    u = 2 * x - 1
    return u * u + 4 * x * (1 - x) * (ak * ak)


def _theta_radicand(x, ak, transverse_sq):
    """a_k^2 + t^2 (u u), u = 1-2x, for floats, broadcastable arrays or Fractions."""
    u = 1 - 2 * x
    return ak * ak + transverse_sq * (u * u)


def _fidelity_paper(axis: PauliAxis, x, ak):
    """a_k^2 (1-x) + x, the a_k^2 term negated on axis 2 as printed; for
    floats, broadcastable arrays or Fractions."""
    sign = -1 if axis is PauliAxis.SIGMA2 else 1
    return sign * ak * ak * (1 - x) + x


def fidelity_paper_closed(axis, x, a) -> float:
    """Closed-form fidelity as printed: a_k^2 (1-x) + x for axes 1 and 3,
    but -a_2^2 (1-x) + x for axis 2.

    The axis-2 sign is reproduced verbatim even though the trace-form
    fidelity is non-negative by construction; full_report's
    fidelity_numeric carries the trace-form value and both are reported
    side by side so the discrepancy stays visible.
    """
    return closed_point(axis, x, a).fidelity_paper


def closed_point(axis, x, a) -> ClosedFormPoint:
    """Every closed-form quantity at one operating point: closed_batch on
    Python floats, after validating the point."""
    return ClosedFormPoint(**closed_batch(as_axis(axis), check_retention(x), check_bloch(a)))


def closed_batch(axis: PauliAxis, x, a) -> dict:
    """The ClosedFormPoint fields, computed from x and the Bloch components
    alone: at one point, from a float x and a BlochVector a of floats, or
    over retention rates x, an array of shape (G, 1), and Bloch vectors a,
    an array of shape (3, S), as arrays of shape (G, S) or broadcast to it.
    b is a BlochVector and the spectra SpectrumPairs (hi, lo), of floats or
    of arrays. The domain is validated by the caller: closed_point for one
    point, and verify, whose grid comes from retention_grid and whose
    states pass check_bloch.
    """
    k = axis - 1
    ak = a[k]
    t1, t2 = (a[i] for i in range(3) if i != k)
    transverse_sq = t1 * t1 + t2 * t2
    u = 2 * x - 1
    lambdas = split_spectrum(1.0, _lambda_radicand(x, ak), "radicand")
    thetas = split_spectrum(1.0, _theta_radicand(x, ak, transverse_sq), "radicand")
    noise = _entropy(lambdas)
    return {
        "b": BlochVector(*(ak if i == k else u * a[i] for i in range(3))),
        "lambdas": lambdas,
        "thetas": thetas,
        "noise_n": noise,
        "coherent_c": _entropy(thetas) - noise,
        "fidelity_paper": _fidelity_paper(axis, x, ak),
    }
