"""Per-channel analytic expressions for the one-Pauli channels.

These are transcriptions of the published closed forms, not re-derivations,
so that the generic Kraus path can cross-validate them and any typo in the
source formulas surfaces as a residual instead of being silently corrected.
closed_batch evaluates the same expressions over a grid of retention rates
and a set of Bloch vectors; the radicands exist once and serve both forms.
The known case is the axis-2 fidelity, whose printed sign disagrees with
the trace-form definition; see fidelity_paper_closed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .bloch import BLOCH_NORM_TOL, BlochVector, check_bloch
from .channels import PauliAxis, as_axis, check_retention
from .errors import NumericError, ValidationError
from .linalg import SpectrumPair, spectrum_entropy, spectrum_entropy_batch

RADICAND_FLOOR = -1e-12


@dataclass(frozen=True)
class ClosedFormPoint:
    """All closed-form quantities at one operating point (axis, x, a)."""

    axis: PauliAxis
    x: float
    a: BlochVector
    b: BlochVector
    lambdas: SpectrumPair
    thetas: SpectrumPair
    noise_n: float
    coherent_c: float
    fidelity_paper: float


def _domain(axis, x, a) -> tuple[PauliAxis, float, BlochVector]:
    return as_axis(axis), check_retention(x), check_bloch(a)


def _axis_split(axis: PauliAxis, a: BlochVector) -> tuple[float, float]:
    """Component along the channel axis and squared transverse length."""
    k = axis - 1
    t1, t2 = (a[i] for i in range(3) if i != k)
    return a[k], t1 * t1 + t2 * t2


def _lambda_radicand(x, ak):
    """1 - 4x(x-1)(a_k^2 - 1), for floats or broadcastable arrays."""
    return 1.0 - 4.0 * x * (x - 1.0) * (ak * ak - 1.0)


def _theta_radicand(x, ak, transverse_sq):
    """a_k^2 + t^2 (1-2x)^2, for floats or broadcastable arrays."""
    return ak * ak + transverse_sq * (1.0 - 2.0 * x) ** 2


def _split_unit_spectrum(radicand: float) -> SpectrumPair:
    if radicand < RADICAND_FLOOR:
        raise NumericError(f"negative radicand {radicand:.3e}")
    root = sqrt(max(radicand, 0.0))
    return SpectrumPair((1.0 + root) / 2.0, (1.0 - root) / 2.0)


def bloch_out_closed(axis, x, a) -> BlochVector:
    """Output Bloch vector: the axis component survives unchanged, the
    transverse components shrink by (2x - 1)."""
    axis, x, a = _domain(axis, x, a)
    scale = 2.0 * x - 1.0
    components = [scale * c for c in a]
    components[axis - 1] = a[axis - 1]
    return BlochVector(*components)


def lambdas_closed(axis, x, a) -> SpectrumPair:
    """Exchange-matrix spectrum [1 +- sqrt(1 - 4x(x-1)(a_k^2 - 1))]/2."""
    axis, x, a = _domain(axis, x, a)
    ak, _ = _axis_split(axis, a)
    return _split_unit_spectrum(_lambda_radicand(x, ak))


def thetas_closed(axis, x, a) -> SpectrumPair:
    """Output-state spectrum [1 +- sqrt(a_k^2 + t^2 (1-2x)^2)]/2, where
    t^2 is the squared transverse length of the input Bloch vector."""
    axis, x, a = _domain(axis, x, a)
    ak, transverse_sq = _axis_split(axis, a)
    return _split_unit_spectrum(_theta_radicand(x, ak, transverse_sq))


def noise_closed(axis, x, a) -> float:
    """Quantum noise in bits: binary entropy of the closed-form lambdas."""
    return spectrum_entropy(lambdas_closed(axis, x, a))


def coherent_closed(axis, x, a) -> float:
    """Coherent information in bits: output entropy minus noise."""
    return spectrum_entropy(thetas_closed(axis, x, a)) - noise_closed(axis, x, a)


def fidelity_paper_closed(axis, x, a) -> float:
    """Closed-form fidelity as printed: a_k^2 (1-x) + x for axes 1 and 3,
    but -a_2^2 (1-x) + x for axis 2.

    The axis-2 sign is reproduced verbatim even though the trace-form
    fidelity is non-negative by construction; entangled_fidelity carries
    the trace-form value and both are reported side by side so the
    discrepancy stays visible.
    """
    axis, x, a = _domain(axis, x, a)
    ak, _ = _axis_split(axis, a)
    sign = -1.0 if axis is PauliAxis.SIGMA2 else 1.0
    return sign * ak * ak * (1.0 - x) + x


def closed_point(axis, x, a) -> ClosedFormPoint:
    """Bundle every closed-form quantity at one operating point."""
    axis, x, a = _domain(axis, x, a)
    lambdas = lambdas_closed(axis, x, a)
    thetas = thetas_closed(axis, x, a)
    noise = spectrum_entropy(lambdas)
    return ClosedFormPoint(
        axis=axis,
        x=x,
        a=a,
        b=bloch_out_closed(axis, x, a),
        lambdas=lambdas,
        thetas=thetas,
        noise_n=noise,
        coherent_c=spectrum_entropy(thetas) - noise,
        fidelity_paper=fidelity_paper_closed(axis, x, a),
    )


def _split_unit_spectrum_batch(radicand: np.ndarray) -> np.ndarray:
    lowest = float(radicand.min(initial=0.0))
    if lowest < RADICAND_FLOOR:
        raise NumericError(f"negative radicand {lowest:.3e}")
    root = np.sqrt(np.maximum(radicand, 0.0))
    return np.stack(((1.0 + root) / 2.0, (1.0 - root) / 2.0), axis=-1)


def closed_batch(axis, x, a) -> dict[str, np.ndarray]:
    """closed_point over retention rates x of shape (G,) and Bloch vectors
    a of shape (S, 3), computed from x and the Bloch components alone.

    Returns the ClosedFormPoint quantities b, lambdas, thetas, noise_n,
    coherent_c and fidelity_paper as arrays of leading shape (G, S); b and
    the spectra carry a trailing axis of 3 and 2 (hi, lo). The domain is
    validated for every entry, as closed_point does for one.
    """
    axis = as_axis(axis)
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    if x.ndim != 1 or a.ndim != 2 or a.shape[1] != 3:
        raise ValidationError(
            f"expected shapes (G,) and (S, 3), got {x.shape} and {a.shape}"
        )
    if not np.all(np.isfinite(x)) or np.any((x < 0.0) | (x > 1.0)):
        raise ValidationError("x must be in [0, 1] at every grid point")
    if not np.all(np.isfinite(a)):
        raise ValidationError("Bloch vectors have non-finite components")
    if float((a * a).sum(axis=1).max(initial=0.0)) > 1.0 + BLOCH_NORM_TOL:
        raise ValidationError("a Bloch vector is longer than 1")
    k = axis - 1
    ak = a[:, k]
    t1, t2 = (a[:, i] for i in range(3) if i != k)
    transverse_sq = t1 * t1 + t2 * t2
    x = x[:, None]
    b = (2.0 * x - 1.0)[..., None] * a
    b[..., k] = ak
    lambdas = _split_unit_spectrum_batch(_lambda_radicand(x, ak))
    thetas = _split_unit_spectrum_batch(_theta_radicand(x, ak, transverse_sq))
    noise = spectrum_entropy_batch(lambdas)
    sign = -1.0 if axis is PauliAxis.SIGMA2 else 1.0
    return {
        "bloch_out": b,
        "lambdas": lambdas,
        "thetas": thetas,
        "noise_n": noise,
        "coherent_c": spectrum_entropy_batch(thetas) - noise,
        "fidelity_paper": sign * ak * ak * (1.0 - x) + x,
    }
