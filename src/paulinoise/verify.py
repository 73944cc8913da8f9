"""Cross-validation of the closed forms against the Kraus route and the
dilation oracle.

For each channel axis, all three routes are evaluated at once over (G, S)
arrays of G grid retention rates by S input states: the Kraus route from
the stacked Kraus operators and density matrices, the closed forms from x
and the Bloch components only, and the oracle from its own dilation of
each state. The report then reduces the route arrays: every residual is
the largest absolute difference of one pair of arrays named in
RESIDUAL_ROUTES.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import closedform, measures
from .bloch import BlochVector, bloch_to_density, check_density_batch
from .channels import (
    COMPLETENESS_TOL,
    PauliAxis,
    completeness_residual,
    make_one_pauli,
    retention_grid,
)
from .errors import ValidationError

# Largest cross-route residual a passing verification allows. It also
# separates C > 0 from C ~ 0 in the sign counts: at x = 1/2, C = 0 exactly
# and the routes only agree to rounding.
RESIDUAL_LIMIT = 1e-10

# Per-axis reference inputs used by the verify claim check: component 0.5
# along the channel axis, 0.6 on the two transverse axes.
REFERENCE_STATES = {
    PauliAxis.SIGMA1: BlochVector(0.5, 0.6, 0.6),
    PauliAxis.SIGMA2: BlochVector(0.6, 0.5, 0.6),
    PauliAxis.SIGMA3: BlochVector(0.6, 0.6, 0.5),
}

# AxisVerification field -> the two route arrays whose largest absolute
# difference it reports. Keys are "route.quantity"; the identity route
# holds the fidelity formulas x + (1-x) a_k^2 and, for the axis-2 gap
# F_numeric - F_paper, its predicted value 2(1-x) a2^2.
RESIDUAL_ROUTES = {
    "residual_bloch": ("kraus.bloch_out", "closed.bloch_out"),
    "residual_lambda": ("kraus.lambdas", "closed.lambdas"),
    "residual_theta": ("kraus.thetas", "closed.thetas"),
    "residual_noise": ("kraus.noise_n", "closed.noise_n"),
    "residual_coherent": ("kraus.coherent_c", "closed.coherent_c"),
    "residual_oracle": ("kraus.noise_n", "oracle.noise_n"),
    "residual_fidelity_identity": ("kraus.fidelity_numeric", "identity.fidelity"),
    "residual_fidelity_closed": ("fidelity_gap", "identity.fidelity_gap"),
}


@dataclass
class AxisVerification:
    """Maximum cross-path residuals for one channel axis, plus the
    coherent-information sign counts: C > RESIDUAL_LIMIT counts as
    positive, |C| <= RESIDUAL_LIMIT as zero, C < -RESIDUAL_LIMIT as
    negative."""

    axis: PauliAxis
    residual_bloch: float = 0.0
    residual_lambda: float = 0.0
    residual_theta: float = 0.0
    residual_noise: float = 0.0
    residual_coherent: float = 0.0
    residual_oracle: float = 0.0
    residual_fidelity_identity: float = 0.0
    residual_fidelity_closed: float = 0.0
    completeness_max: float = 0.0
    gap_max: float = 0.0
    gap_predicted_at_max: float = 0.0
    c_positive: int = 0
    c_zero: int = 0
    c_negative: int = 0
    points: int = 0
    c_positive_reference: int = 0
    reference_points: int = 0
    c_positive_at_x0: bool = False
    c_positive_at_x1: bool = False

    def residuals(self) -> dict[str, float]:
        return {
            "bloch_out": self.residual_bloch,
            "lambda": self.residual_lambda,
            "theta": self.residual_theta,
            "noise": self.residual_noise,
            "coherent": self.residual_coherent,
            "oracle_vs_w": self.residual_oracle,
            "fidelity_identity": self.residual_fidelity_identity,
            "fidelity_closed": self.residual_fidelity_closed,
        }

    @property
    def endpoints_c_positive(self) -> bool:
        return self.c_positive_at_x0 and self.c_positive_at_x1

    @property
    def passed(self) -> bool:
        return (
            max(self.residuals().values()) <= RESIDUAL_LIMIT
            and self.completeness_max <= COMPLETENESS_TOL
        )


@dataclass
class VerificationReport:
    grid_steps: int
    samples: int
    seed: int
    axes: list[AxisVerification] = field(default_factory=list)

    @property
    def max_residual(self) -> float:
        return max(max(av.residuals().values()) for av in self.axes)

    @property
    def passed(self) -> bool:
        return all(av.passed for av in self.axes)

    def axis(self, axis: PauliAxis) -> AxisVerification:
        for av in self.axes:
            if av.axis is axis:
                return av
        raise KeyError(axis)


def random_bloch(rng: np.random.Generator) -> BlochVector:
    """Uniform components in [-1, 1], resampled until inside the unit ball."""
    while True:
        v = rng.uniform(-1.0, 1.0, size=3)
        if float(v @ v) <= 1.0:
            return BlochVector(*(float(c) for c in v))


def axis_routes(
    axis: PauliAxis, grid: list[float], states: list[BlochVector]
) -> dict[str, np.ndarray]:
    """Every route array of one axis, keyed "route.quantity" as in
    RESIDUAL_ROUTES, with leading shape (G, S) over the retention rates in
    grid and the Bloch vectors in states; "completeness" has shape (G,).

    Inputs are validated once per axis: completeness at every grid point,
    and the Bloch norm, trace and positivity of every state.
    """
    channels = [make_one_pauli(axis, x) for x in grid]
    completeness = np.array([completeness_residual(ch) for ch in channels])
    worst = float(completeness.max())
    if worst > COMPLETENESS_TOL:
        raise ValidationError(
            f"incomplete Kraus set: completeness residual {worst:.3e} "
            f"exceeds {COMPLETENESS_TOL}"
        )
    kraus = np.array([ch.ops for ch in channels])
    rhos = check_density_batch([bloch_to_density(a) for a in states])
    x = np.array(grid)[:, None]
    a = np.array(states)
    routes = {"completeness": completeness}
    for name, values in measures.report_batch(kraus, rhos).items():
        routes[f"kraus.{name}"] = values
    for name, values in closedform.closed_batch(axis, grid, a).items():
        routes[f"closed.{name}"] = values
    routes["oracle.noise_n"] = measures.environment_entropy_oracle_batch(kraus, rhos)
    ak = a[:, axis - 1]
    routes["identity.fidelity"] = x + (1.0 - x) * ak * ak
    if axis is PauliAxis.SIGMA2:
        routes["identity.fidelity_gap"] = 2.0 * (1.0 - x) * ak * ak
    else:
        routes["identity.fidelity_gap"] = np.zeros((len(grid), len(states)))
    routes["fidelity_gap"] = (
        routes["kraus.fidelity_numeric"] - routes["closed.fidelity_paper"]
    )
    return routes


def reduce_routes(axis: PauliAxis, routes: dict[str, np.ndarray]) -> AxisVerification:
    """Residual maxima and C sign counts of one axis; the last state is the
    axis's reference input."""
    av = AxisVerification(axis=axis)
    for name, (route_a, route_b) in RESIDUAL_ROUTES.items():
        setattr(av, name, float(np.max(np.abs(routes[route_a] - routes[route_b]))))
    av.completeness_max = float(routes["completeness"].max())

    gap = routes["fidelity_gap"]
    at = np.unravel_index(np.argmax(gap), gap.shape)
    if gap[at] > 0.0:
        av.gap_max = float(gap[at])
        av.gap_predicted_at_max = float(routes["identity.fidelity_gap"][at])

    c = routes["kraus.coherent_c"]
    positive = c > RESIDUAL_LIMIT
    av.points = c.size
    av.c_positive = int(positive.sum())
    av.c_zero = int((np.abs(c) <= RESIDUAL_LIMIT).sum())
    av.c_negative = int((c < -RESIDUAL_LIMIT).sum())
    reference = positive[:, -1]
    av.reference_points = reference.size
    av.c_positive_reference = int(reference.sum())
    av.c_positive_at_x0 = bool(reference[0])
    av.c_positive_at_x1 = bool(reference[-1])
    return av


def run_verification(grid_steps: int, samples: int, seed: int) -> VerificationReport:
    """Cross-validate the closed forms against the generic Kraus path.

    For each axis, every grid retention rate is evaluated on `samples`
    seeded random Bloch vectors plus the axis's reference input. The
    arrays of one axis are reduced before the next axis is evaluated.
    """
    grid = retention_grid(grid_steps)
    if samples < 1:
        raise ValidationError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    report = VerificationReport(grid_steps=grid_steps, samples=samples, seed=seed)
    for axis in PauliAxis:
        states = [random_bloch(rng) for _ in range(samples)]
        states.append(REFERENCE_STATES[axis])
        report.axes.append(reduce_routes(axis, axis_routes(axis, grid, states)))
    return report
