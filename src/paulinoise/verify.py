"""Cross-validation of the closed forms against the Kraus route and the
dilation oracle.

For each channel axis, all three routes are evaluated at once over (G, S)
arrays of G grid retention rates by S input states, seeded quasi-random
Bloch vectors and one reference input: the Kraus route from the (re, im)
pairs of the Kraus operators and states, the closed forms from x and the Bloch
components only, and the oracle from its own dilation of each state. The
report then reduces the route arrays as the rows of CHECKS say, and the gate
holds each value to its row's limit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping

from . import closedform, measures
from .bloch import BlochVector, _density_pairs
from .channels import (
    COMPLETENESS_TOL,
    PauliAxis,
    as_count,
    completeness_residual,
    make_one_pauli,
    retention_grid,
)

# Largest cross-route residual a passing verification allows. It also
# separates C > 0 from C ~ 0 in the sign counts: at x = 1/2, C = 0 exactly
# and the routes only agree to rounding.
RESIDUAL_LIMIT = 1e-10

# random_blochs in 64-bit fixed point: Roberts' R3 steps floor(phi^-k 2^64),
# k = 1, 2, 3, phi^4 = phi + 1, and the seed multiplier floor(2^64 / golden ratio).
_R3_STEPS = (0xD1B54A32D192ED03, 0xABC98388FB8FAC02, 0x8CB92BA72F3D8DD7)
_SEED_MULTIPLIER = 0x9E3779B97F4A7C15

# Per-axis reference inputs used by the verify claim check: component 0.5
# along the channel axis, 0.6 on the two transverse axes.
REFERENCE_STATES = {
    PauliAxis.SIGMA1: BlochVector(0.5, 0.6, 0.6),
    PauliAxis.SIGMA2: BlochVector(0.6, 0.5, 0.6),
    PauliAxis.SIGMA3: BlochVector(0.6, 0.6, 0.5),
}

# Check label, as verify prints it -> (route a, route b or None, limit): the
# gate holds max |a - b|, or max a, to the limit. Route arrays are keyed
# "route.quantity"; the identity route holds the fidelity formulas x + (1-x) a_k^2
# and, for the axis-2 gap F_numeric - F_paper, its predicted value 2(1-x) a2^2.
CHECKS = {
    "residual bloch_out": ("kraus.bloch_out", "closed.b", RESIDUAL_LIMIT),
    "residual lambda": ("kraus.lambdas", "closed.lambdas", RESIDUAL_LIMIT),
    "residual theta": ("kraus.thetas", "closed.thetas", RESIDUAL_LIMIT),
    "residual noise": ("kraus.noise_n", "closed.noise_n", RESIDUAL_LIMIT),
    "residual coherent": ("kraus.coherent_c", "closed.coherent_c", RESIDUAL_LIMIT),
    "residual oracle_vs_w": ("kraus.noise_n", "oracle.noise_n", RESIDUAL_LIMIT),
    "residual fidelity_identity": ("kraus.fidelity_numeric", "identity.fidelity", RESIDUAL_LIMIT),
    "residual fidelity_closed": ("fidelity_gap", "identity.fidelity_gap", RESIDUAL_LIMIT),
    "completeness residual": ("completeness", None, COMPLETENESS_TOL),
}


@dataclass(frozen=True)
class AxisVerification:
    """The value of every CHECKS row for one channel axis, plus the
    coherent-information sign counts: C > RESIDUAL_LIMIT counts as
    positive, |C| <= RESIDUAL_LIMIT as zero, C < -RESIDUAL_LIMIT as
    negative."""

    axis: PauliAxis
    residuals: Mapping[str, float]  # read-only, keyed and ordered as CHECKS
    gap_max: float
    gap_predicted_at_max: float
    c_positive: int
    c_zero: int
    c_negative: int
    points: int
    c_positive_reference: int
    reference_points: int
    endpoints_c_positive: bool  # reference input at x = 0 and x = 1

    @property
    def passed(self) -> bool:
        """Every row's value at most its limit; NaN compares false, so it fails."""
        return all(self.residuals[label] <= limit for label, (*_, limit) in CHECKS.items())


def random_blochs(seed: int) -> Iterator[BlochVector]:
    """Seeded quasi-random Bloch vectors (seed as check_seed returns it):
    Roberts' R3 point n >= 1 has components -1 + 2 (u_k >> 11) 2^-53 in
    [-1, 1), u_k = s + n _R3_STEPS[k] mod 2^64, and is skipped if norm_sq > 1.
    The start s is sum_i w_i M^(i+1) mod 2^64 over the seed's 64-bit words w_i,
    least significant first, M = _SEED_MULTIPLIER: one-to-one on seeds below
    2^64 (M is odd), moved by every word of a larger seed. Integer arithmetic
    only: any seed works, and no command imports numpy's random module."""
    start = 0
    for shift in range(seed.bit_length() // 64 * 64, -1, -64):
        start = (start + (seed >> shift) % 2**64) * _SEED_MULTIPLIER % 2**64
    for n in itertools.count(1):
        u = [(start + n * step) % 2**64 for step in _R3_STEPS]
        v = BlochVector(*(-1.0 + 2.0 * ((uk >> 11) * 2.0**-53) for uk in u))
        if v.norm_sq <= 1.0:
            yield v


def axis_routes(
    axis: PauliAxis, grid: list[float], states: list[BlochVector]
) -> dict:
    """Every route ndarray of one axis, keyed "route.quantity" as in
    CHECKS, with leading shape (G, S) over the retention rates in
    grid and the Bloch vectors in states; "completeness" has shape (G,).

    Inputs are valid by construction: each channel checks its axis and x, and the
    states were drawn inside the ball, so _density_pairs takes them unchecked.
    Completeness is measured here and gated by AxisVerification.passed.
    """
    import numpy as np
    channels = [make_one_pauli(axis, x) for x in grid]
    completeness = np.array([completeness_residual(ch) for ch in channels])
    # pairs ops[i][k] of arrays of shape (G, 1), rho[k] of shape (S,); x (G, 1), a (3, S)
    ops = np.moveaxis(np.array([ch.ops for ch in channels]), 0, -1)[..., None]
    x = np.array(grid)[:, None]
    a = np.array(states).T
    rho = _density_pairs(*a)
    routes = {"completeness": completeness}
    for route, values in (("kraus", measures.report_batch(ops, rho)),
                          ("closed", closedform.closed_batch(axis, x, a))):
        for name, v in values.items():  # a BlochVector or SpectrumPair: one trailing axis
            stacked = np.stack(np.broadcast_arrays(*v), -1) if isinstance(v, tuple) else v
            routes[f"{route}.{name}"] = stacked
    routes["oracle.noise_n"] = measures.environment_entropy_oracle_batch(ops, rho)
    ak = a[axis - 1]
    routes["identity.fidelity"] = x + (1.0 - x) * ak * ak
    gap_scale = 2.0 if axis is PauliAxis.SIGMA2 else 0.0  # +0.0 in every cell off axis 2
    routes["identity.fidelity_gap"] = gap_scale * (1.0 - x) * ak * ak
    routes["fidelity_gap"] = (
        routes["kraus.fidelity_numeric"] - routes["closed.fidelity_paper"]
    )
    return routes


def reduce_routes(axis: PauliAxis, routes: dict) -> AxisVerification:
    """The CHECKS values and C sign counts of one axis; the last state is
    the axis's reference input."""
    import numpy as np
    gap = routes["fidelity_gap"]
    at = np.unravel_index(np.argmax(gap), gap.shape)
    gap_max, gap_predicted = 0.0, 0.0
    if gap[at] > 0.0:
        gap_max = float(gap[at])
        gap_predicted = float(routes["identity.fidelity_gap"][at])
    c = routes["kraus.coherent_c"]
    positive = c > RESIDUAL_LIMIT
    reference = positive[:, -1]
    return AxisVerification(
        axis=axis,
        residuals=MappingProxyType({
            label: float(np.max(routes[a] if b is None else np.abs(routes[a] - routes[b])))
            for label, (a, b, _) in CHECKS.items()
        }),
        gap_max=gap_max,
        gap_predicted_at_max=gap_predicted,
        c_positive=int(positive.sum()),
        c_zero=int((np.abs(c) <= RESIDUAL_LIMIT).sum()),
        c_negative=int((c < -RESIDUAL_LIMIT).sum()),
        points=c.size,
        c_positive_reference=int(reference.sum()),
        reference_points=reference.size,
        endpoints_c_positive=bool(reference[0] and reference[-1]),
    )


def check_samples(samples) -> int:
    return as_count(samples, "samples", 1)


def check_seed(seed) -> int:
    return as_count(seed, "seed", 0)


def run_verification(
    grid_steps: int, samples: int, seed: int
) -> tuple[AxisVerification, ...]:
    """Cross-validate the closed forms against the generic Kraus path; one
    record per axis, in PauliAxis order.

    For each axis, every grid retention rate is evaluated on `samples`
    seeded quasi-random Bloch vectors plus the axis's reference input. The
    arrays of one axis are reduced before the next axis's states are drawn.
    """
    grid = retention_grid(grid_steps)
    samples, seed = check_samples(samples), check_seed(seed)
    stream = random_blochs(seed)
    axes = []
    for axis in PauliAxis:
        states = list(itertools.islice(stream, samples))
        states.append(REFERENCE_STATES[axis])
        axes.append(reduce_routes(axis, axis_routes(axis, grid, states)))
    return tuple(axes)
