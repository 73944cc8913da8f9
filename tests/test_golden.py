"""Byte-for-byte comparison of command-line output with committed golden files.

The golden files in tests/golden/ hold:

- analyze.txt: `analyze` stdout at every combination of a state kind (pure,
  pure along the channel axis, a = 0, components 1e-12 and 1e-8, inside the
  ball), an x kind (0, 1/2, 1 and one interior value) and an axis, each
  block headed by its command line;
- sweep_sigma{1,2,3}.csv: `sweep --steps 201` for each axis at its
  verification reference input;
- verify.txt: `verify --grid 101 --samples 100 --seed 1` stdout;
- route_bits.json: the sha256 of the bytes of every route array that a
  verify.CHECKS row names, keyed by axis and by the row's label less the
  word "residual": a list of both sides for a two-route row, one hash for
  the one-route completeness row; plus the kraus.coherent_c array. The
  arrays come from axis_routes on an edge grid (ROUTE_BITS_GRID by
  ROUTE_BITS_STATES). Printed output rounds; this file pins every bit of
  the arrays behind it.

Run this file as a script to rewrite the golden files from the current
code; `git diff tests/golden` then shows every byte that changed.
"""

import hashlib
import io
import itertools
import json
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from paulinoise.bloch import BlochVector
from paulinoise.channels import PauliAxis, retention_grid
from paulinoise.cli import main
from paulinoise.verify import CHECKS, REFERENCE_STATES, axis_routes, random_blochs

GOLDEN = Path(__file__).resolve().parent / "golden"

X_KINDS = ("0", "0.5", "1", "0.3")


def _state_kinds(axis: PauliAxis) -> tuple[str, ...]:
    axis_pure = ["0", "0", "0"]
    axis_pure[axis - 1] = "1"
    return (
        "0.48,0.6,0.64",  # pure
        ",".join(axis_pure),  # pure along the channel axis
        "0,0,0",
        "1e-12,-1e-12,1e-12",
        "-2.3e-08,7.4e-09,4.8e-08",  # the axis-2 lambda radicand regression point
        "0.5,-0.3,0.2",  # inside the ball
    )


def _analyze_argvs() -> list[list[str]]:
    return [
        ["analyze", "--channel", axis.token, f"--bloch={bloch}", "--x", x]
        for axis in PauliAxis
        for bloch in _state_kinds(axis)
        for x in X_KINDS
    ]


def _stdout(argv: list[str]) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        rc = main(argv)
    assert rc == 0, argv
    return buffer.getvalue()


def _sweep_csv(axis: PauliAxis, directory: Path) -> bytes:
    path = directory / f"sweep_{axis.token}.csv"
    bloch = ",".join(repr(c) for c in REFERENCE_STATES[axis])
    _stdout(["sweep", "--channel", axis.token, f"--bloch={bloch}",
             "--steps", "201", "--out", str(path)])
    return path.read_bytes()


def analyze_bytes() -> bytes:
    blocks = [f"$ paulinoise {' '.join(argv)}\n{_stdout(argv)}" for argv in _analyze_argvs()]
    return "".join(blocks).encode("ascii")


def verify_bytes() -> bytes:
    argv = ["verify", "--grid", "101", "--samples", "100", "--seed", "1"]
    return _stdout(argv).encode("ascii")


# x at and next to 0, 1/2 and 1, between the points of an 11-step grid
ROUTE_BITS_GRID = sorted({*retention_grid(11), 1e-9, 0.5 - 1e-9, 0.5 + 1e-9, 1.0 - 1e-9})
# a = 0, pure states (on each axis, off every axis), 1e-12 components, and
# quasi-random states inside the ball
ROUTE_BITS_STATES = [
    BlochVector(0.0, 0.0, 0.0),
    BlochVector(1.0, 0.0, 0.0),
    BlochVector(0.0, -1.0, 0.0),
    BlochVector(0.0, 0.0, 1.0),
    BlochVector(0.48, 0.6, 0.64),
    BlochVector(1e-12, -1e-12, 1e-12),
    BlochVector(1e-12, 0.6, -0.8),
    *itertools.islice(random_blochs(1), 24),
]


def _sha256(values) -> str:
    array = np.ascontiguousarray(values, dtype="<f8")
    return hashlib.sha256(f"{array.shape}".encode() + array.tobytes()).hexdigest()


def route_bits() -> dict:
    bits = {}
    for axis in PauliAxis:
        routes = axis_routes(axis, ROUTE_BITS_GRID, ROUTE_BITS_STATES)
        bits[axis.token] = {"kraus.coherent_c": _sha256(routes["kraus.coherent_c"])}
        for label, (route_a, route_b, _) in CHECKS.items():
            key = label.replace("residual", "").strip()
            sides = [_sha256(routes[route]) for route in (route_a, route_b) if route]
            bits[axis.token][key] = sides if route_b else sides[0]
    return bits


def route_bits_bytes() -> bytes:
    return (json.dumps(route_bits(), indent=1) + "\n").encode("ascii")


def test_analyze_matches_golden():
    assert analyze_bytes() == (GOLDEN / "analyze.txt").read_bytes()


@pytest.mark.parametrize("axis", list(PauliAxis), ids=lambda axis: axis.token)
def test_sweep_matches_golden(axis, tmp_path):
    assert _sweep_csv(axis, tmp_path) == (GOLDEN / f"sweep_{axis.token}.csv").read_bytes()


def test_verify_matches_golden():
    assert verify_bytes() == (GOLDEN / "verify.txt").read_bytes()


def test_route_bits_match_golden():
    assert route_bits() == json.loads((GOLDEN / "route_bits.json").read_bytes())


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "analyze.txt").write_bytes(analyze_bytes())
    (GOLDEN / "verify.txt").write_bytes(verify_bytes())
    (GOLDEN / "route_bits.json").write_bytes(route_bits_bytes())
    for axis in PauliAxis:
        _sweep_csv(axis, GOLDEN)
