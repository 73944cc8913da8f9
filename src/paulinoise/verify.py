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

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

from . import closedform, measures
from .bloch import BlochVector, bloch_to_density
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

# Word masks and the PCG64 multiplier of the seeded state stream (random_blochs).
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULTIPLIER = 2549297995355413924 << 64 | 4865540595714422341

# Per-axis reference inputs used by the verify claim check: component 0.5
# along the channel axis, 0.6 on the two transverse axes.
REFERENCE_STATES = {
    PauliAxis.SIGMA1: BlochVector(0.5, 0.6, 0.6),
    PauliAxis.SIGMA2: BlochVector(0.6, 0.5, 0.6),
    PauliAxis.SIGMA3: BlochVector(0.6, 0.6, 0.5),
}

# Residual label, as verify prints it -> the two route arrays whose largest
# absolute difference it reports. Route arrays are keyed "route.quantity";
# the identity route holds the fidelity formulas x + (1-x) a_k^2 and, for
# the axis-2 gap F_numeric - F_paper, its predicted value 2(1-x) a2^2.
RESIDUAL_ROUTES = {
    "bloch_out": ("kraus.bloch_out", "closed.bloch_out"),
    "lambda": ("kraus.lambdas", "closed.lambdas"),
    "theta": ("kraus.thetas", "closed.thetas"),
    "noise": ("kraus.noise_n", "closed.noise_n"),
    "coherent": ("kraus.coherent_c", "closed.coherent_c"),
    "oracle_vs_w": ("kraus.noise_n", "oracle.noise_n"),
    "fidelity_identity": ("kraus.fidelity_numeric", "identity.fidelity"),
    "fidelity_closed": ("fidelity_gap", "identity.fidelity_gap"),
}


@dataclass(frozen=True)
class AxisVerification:
    """Maximum cross-path residuals for one channel axis, plus the
    coherent-information sign counts: C > RESIDUAL_LIMIT counts as
    positive, |C| <= RESIDUAL_LIMIT as zero, C < -RESIDUAL_LIMIT as
    negative."""

    axis: PauliAxis
    residuals: Mapping[str, float]  # read-only, keyed and ordered as RESIDUAL_ROUTES
    completeness_max: float
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
        return (
            max(self.residuals.values()) <= RESIDUAL_LIMIT
            and self.completeness_max <= COMPLETENESS_TOL
        )


def _hasher(const: int, multiplier: int):
    """numpy SeedSequence's hashmix on 32-bit words, its constant stepped by multiplier."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * multiplier & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _seed_state(seed: int) -> list[int]:
    """numpy's SeedSequence(seed).generate_state(4, np.uint64): the seed's
    32-bit words, least significant first, hashed into a pool of four; words
    beyond four (seeds >= 2^128) are then mixed into every pool word."""
    words = [seed >> k & _MASK32 for k in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]

    def mix(dst: int, value: int) -> None:
        mixed = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(value)) & _MASK32
        pool[dst] = mixed ^ mixed >> 16

    for src, dst in itertools.permutations(range(4), 2):
        mix(dst, pool[src])
    for word, dst in itertools.product(words[4:], range(4)):
        mix(dst, word)
    output = _hasher(0x8B51F9DD, 0x58F38DED)
    half = [output(pool[i % 4]) for i in range(8)]
    return [half[i] | half[i + 1] << 32 for i in range(0, 8, 2)]


def _uniforms(seed: int) -> Iterator[float]:
    """default_rng(seed).uniform(-1.0, 1.0) draws: PCG64 (XSL-RR 128/64)
    seeded as numpy's pcg64_set_seed, each output u read as (u >> 11) 2^-53."""
    s_hi, s_lo, i_hi, i_lo = _seed_state(seed)
    inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
    state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULTIPLIER + inc) & _MASK128
    while True:
        state = (state * _PCG_MULTIPLIER + inc) & _MASK128
        rot = state >> 122
        folded = (state >> 64 ^ state) & _MASK64
        u = (folded >> rot | folded << (64 - rot)) & _MASK64
        yield -1.0 + 2.0 * ((u >> 11) * 2.0**-53)


def random_blochs(seed: int) -> Iterator[BlochVector]:
    """Seeded random Bloch vectors (seed as check_seed returns it):
    components uniform in [-1, 1), redrawn until norm_sq <= 1. This is
    numpy's default_rng(seed).uniform(-1.0, 1.0, size=3) stream with that
    rejection, bit for bit, in pure Python, so no command imports numpy's
    random module and verify's output does not depend on its Generator."""
    draws = _uniforms(seed)
    while True:
        v = BlochVector(next(draws), next(draws), next(draws))
        if v.norm_sq <= 1.0:
            yield v


def axis_routes(
    axis: PauliAxis, grid: list[float], states: list[BlochVector]
) -> dict[str, np.ndarray]:
    """Every route array of one axis, keyed "route.quantity" as in
    RESIDUAL_ROUTES, with leading shape (G, S) over the retention rates in
    grid and the Bloch vectors in states; "completeness" has shape (G,).

    Inputs are valid by construction: each channel checks its axis and x,
    and bloch_to_density checks each Bloch vector. Completeness is measured
    here and gated by AxisVerification.passed.
    """
    channels = [make_one_pauli(axis, x) for x in grid]
    completeness = np.array([completeness_residual(ch) for ch in channels])
    kraus = np.array([ch.ops for ch in channels])
    rhos = np.array([bloch_to_density(a) for a in states])
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
            name: float(np.max(np.abs(routes[route_a] - routes[route_b])))
            for name, (route_a, route_b) in RESIDUAL_ROUTES.items()
        }),
        completeness_max=float(routes["completeness"].max()),
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
    seeded random Bloch vectors plus the axis's reference input. The
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
