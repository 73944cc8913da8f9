"""Per-channel analytic expressions for the one-Pauli channels.

These are transcriptions of the published closed forms, not re-derivations,
so that the generic Kraus path can cross-validate them and any typo in the
source formulas surfaces as a residual instead of being silently corrected.
closed_batch evaluates them over a grid of retention rates and a set of
Bloch vectors; closed_point is that computation on a batch of one, and
fidelity_paper_closed its scalar form. The lambda and theta spectra are
linalg.split_spectrum of their radicands, the split and floor the
eigenvalue kernel uses.
The known case is the axis-2 fidelity, whose printed sign disagrees with
the trace-form definition; see fidelity_paper_closed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import BlochVector, check_bloch
from .channels import PauliAxis, as_axis, check_retention
from .linalg import SpectrumPair, spectrum_entropy_batch, split_spectrum


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


def _domain(axis, x, a) -> tuple[PauliAxis, float, BlochVector]:
    return as_axis(axis), check_retention(x), check_bloch(a)


def _lambda_radicand(x, ak):
    """1 - 4x(x-1)(a_k^2 - 1) as (2x-1)^2 + 4x(1-x) a_k^2, which keeps a
    tiny radicand (x near 1/2, tiny a_k) accurate; floats or arrays."""
    return (2.0 * x - 1.0) ** 2 + 4.0 * x * (1.0 - x) * (ak * ak)


def _theta_radicand(x, ak, transverse_sq):
    """a_k^2 + t^2 (1-2x)^2, for floats or broadcastable arrays."""
    return ak * ak + transverse_sq * (1.0 - 2.0 * x) ** 2


def _fidelity_paper(axis: PauliAxis, x, ak):
    """a_k^2 (1-x) + x, the a_k^2 term negated on axis 2 as printed; for
    floats or broadcastable arrays."""
    sign = -1.0 if axis is PauliAxis.SIGMA2 else 1.0
    return sign * ak * ak * (1.0 - x) + x


def fidelity_paper_closed(axis, x, a) -> float:
    """Closed-form fidelity as printed: a_k^2 (1-x) + x for axes 1 and 3,
    but -a_2^2 (1-x) + x for axis 2.

    The axis-2 sign is reproduced verbatim even though the trace-form
    fidelity is non-negative by construction; full_report's
    fidelity_numeric carries the trace-form value and both are reported
    side by side so the discrepancy stays visible.
    """
    axis, x, a = _domain(axis, x, a)
    return _fidelity_paper(axis, x, a[axis - 1])


def closed_point(axis, x, a) -> ClosedFormPoint:
    """Every closed-form quantity at one operating point: closed_batch's
    kernel on a batch of one, after validating the point."""
    axis, x, a = _domain(axis, x, a)
    values = {
        name: array[0, 0].tolist()
        for name, array in closed_batch(axis, np.array([x]), np.array([a])).items()
    }
    return ClosedFormPoint(
        b=BlochVector(*values["bloch_out"]),
        lambdas=SpectrumPair(*values["lambdas"]),
        thetas=SpectrumPair(*values["thetas"]),
        noise_n=values["noise_n"],
        coherent_c=values["coherent_c"],
        fidelity_paper=values["fidelity_paper"],
    )


def closed_batch(axis: PauliAxis, x, a) -> dict[str, np.ndarray]:
    """closed_point over retention rates x of shape (G,) and Bloch vectors
    a of shape (S, 3), computed from x and the Bloch components alone.

    Returns the ClosedFormPoint quantities b, lambdas, thetas, noise_n,
    coherent_c and fidelity_paper as arrays of leading shape (G, S); b and
    the spectra carry a trailing axis of 3 and 2 (hi, lo). The domain is
    validated by the caller: closed_point for one point, and verify, whose
    grid comes from retention_grid and whose states pass check_bloch.
    """
    k = axis - 1
    a = np.asarray(a, dtype=float)
    ak = a[:, k]
    t1, t2 = (a[:, i] for i in range(3) if i != k)
    transverse_sq = t1 * t1 + t2 * t2
    x = np.asarray(x, dtype=float)[:, None]
    b = (2.0 * x - 1.0)[..., None] * a
    b[..., k] = ak
    lambdas = split_spectrum(1.0, _lambda_radicand(x, ak), "radicand")
    thetas = split_spectrum(1.0, _theta_radicand(x, ak, transverse_sq), "radicand")
    noise = spectrum_entropy_batch(lambdas)
    return {
        "bloch_out": b,
        "lambdas": lambdas,
        "thetas": thetas,
        "noise_n": noise,
        "coherent_c": spectrum_entropy_batch(thetas) - noise,
        "fidelity_paper": _fidelity_paper(axis, x, ak),
    }
