"""Byte-for-byte comparison of command-line output with committed golden files.

The golden files in tests/golden/ hold:

- analyze.txt: `analyze` stdout at every combination of a state kind (pure,
  pure along the channel axis, a = 0, components 1e-12 and 1e-8, inside the
  ball), an x kind (0, 1/2, 1 and one interior value) and an axis, each
  block headed by its command line;
- sweep_sigma{1,2,3}.csv: `sweep --steps 201` for each axis at its
  verification reference input;
- verify.txt: `verify --grid 101 --samples 100 --seed 1` stdout.

Run this file as a script to rewrite the golden files from the current
code; `git diff tests/golden` then shows every byte that changed.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from paulinoise.channels import PauliAxis
from paulinoise.cli import main
from paulinoise.verify import REFERENCE_STATES

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


def test_analyze_matches_golden():
    assert analyze_bytes() == (GOLDEN / "analyze.txt").read_bytes()


@pytest.mark.parametrize("axis", list(PauliAxis), ids=lambda axis: axis.token)
def test_sweep_matches_golden(axis, tmp_path):
    assert _sweep_csv(axis, tmp_path) == (GOLDEN / f"sweep_{axis.token}.csv").read_bytes()


def test_verify_matches_golden():
    assert verify_bytes() == (GOLDEN / "verify.txt").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "analyze.txt").write_bytes(analyze_bytes())
    (GOLDEN / "verify.txt").write_bytes(verify_bytes())
    for axis in PauliAxis:
        _sweep_csv(axis, GOLDEN)
