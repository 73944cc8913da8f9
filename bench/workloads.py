"""Seeded workloads of the paulinoise benchmark.

Each workload turns the benchmark seed into an endless stream of command
lines for the `paulinoise` CLI. The program receives only these generated
inputs; the matching check (see reference.py) travels with each one.

Why these three (which layer each one loads is tabulated in README.md):

- verify-grid: the heaviest user path and the only one where closedform
  and the dilation oracle do any work.
- sweep-long: measures in a different pattern (one state, a new channel per
  row, every report held in memory) plus CSV formatting; no closedform
  route, no oracle. A gain on verify that costs sweep shows here.
- analyze-cold: one process per point, so interpreter start and
  `import paulinoise` dominate; work moved into import shows here. Its
  inputs include the edges of the domain (pure states, a = 0, x in
  {0, 1/2, 1}, Bloch components of 1e-12 and 1e-8).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

import reference

# Each invocation runs for about a second, so the reference runs on either
# side of it (see run.py) see the host in the state the invocation saw.
VERIFY_GRID = 35  # shaped like the 101 x 100 default
VERIFY_SAMPLES = 34
SWEEP_STEPS = 5001  # odd, so x = 1/2 is a grid point
SWEEP_SAMPLED_ROWS = 16  # rows checked against mpmath besides x = 0, 1/2, 1
SWEEP_CSV = "sweep.csv"  # written into the invocation's own directory


@dataclass(frozen=True)
class Invocation:
    """One command line, its number of work items, and its output check,
    called as check(returncode, stdout, csv) -> list of problems."""

    argv: tuple[str, ...]
    items: int
    check: Callable[[int, bytes, "bytes | None"], list[str]]


def _ball_vector(rng: random.Random) -> tuple[float, float, float]:
    while True:
        v = tuple(rng.uniform(-1.0, 1.0) for _ in range(3))
        if sum(c * c for c in v) <= 1.0:
            return v


def _unit_vector(rng: random.Random) -> tuple[float, float, float]:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(c * c for c in v))
        if norm > 1e-3:
            return tuple(c / norm for c in v)


def _bloch_arg(a) -> str:
    # "--bloch=" form: a leading minus would otherwise read as a flag.
    return "--bloch=" + ",".join(repr(float(c)) for c in a)


def verify_grid(seed: int, grid: int = VERIFY_GRID,
                samples: int = VERIFY_SAMPLES) -> Iterator[Invocation]:
    rng = random.Random(seed)
    while True:
        verify_seed = rng.randrange(2**31)
        yield Invocation(
            argv=("verify", "--grid", str(grid), "--samples", str(samples),
                  "--seed", str(verify_seed)),
            items=3 * grid * (samples + 1),
            check=functools.partial(reference.check_verify, grid, samples,
                                    verify_seed),
        )


def sweep_long(seed: int, steps: int = SWEEP_STEPS) -> Iterator[Invocation]:
    rng = random.Random(seed)
    while True:
        axis = rng.randint(1, 3)
        a = _ball_vector(rng)
        rows = {0, (steps - 1) // 2, steps - 1}
        rows.update(rng.sample(range(steps), min(SWEEP_SAMPLED_ROWS, steps)))
        yield Invocation(
            argv=("sweep", "--channel", f"sigma{axis}", _bloch_arg(a),
                  "--steps", str(steps), "--out", SWEEP_CSV),
            items=steps,
            check=functools.partial(reference.check_sweep, axis, a, steps,
                                    sorted(rows)),
        )


def _edge_states(rng: random.Random) -> dict[str, Callable[[], tuple]]:
    def tiny():
        picks = (1e-12, 1e-8, rng.uniform(-0.9, 0.9) / math.sqrt(3))
        return tuple(rng.choice((-1.0, 1.0)) * rng.choice(picks) for _ in range(3))

    def axis_pure():
        k = rng.randrange(3)
        return tuple(rng.choice((-1.0, 1.0)) if i == k else 0.0 for i in range(3))

    return {
        "ball": lambda: _ball_vector(rng),
        "pure": lambda: _unit_vector(rng),
        "axis-pure": axis_pure,
        "zero": lambda: (0.0, 0.0, 0.0),
        "tiny": tiny,
    }


def analyze_cold(seed: int) -> Iterator[Invocation]:
    """Blocks of all 60 (state kind, x kind, axis) combinations, each
    block in a fresh seeded order, so every block covers every edge."""
    rng = random.Random(seed)
    states = _edge_states(rng)
    x_kinds = {
        "0": lambda: 0.0,
        "1/2": lambda: 0.5,
        "1": lambda: 1.0,
        "uniform": lambda: rng.random(),
    }
    combos = list(itertools.product(states, x_kinds, (1, 2, 3)))
    while True:
        rng.shuffle(combos)
        for state, x_kind, axis in combos:
            a = states[state]()
            x = x_kinds[x_kind]()
            yield Invocation(
                argv=("analyze", "--channel", f"sigma{axis}", _bloch_arg(a),
                      f"--x={x!r}"),
                items=1,
                check=functools.partial(reference.check_analyze, axis, x, a),
            )


WORKLOADS = {
    "verify-grid": verify_grid,
    "sweep-long": sweep_long,
    "analyze-cold": analyze_cold,
}
