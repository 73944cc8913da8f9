"""Command-line surface: single-point analysis, x sweeps emitted as CSV,
and cross-validation of the closed forms against the generic Kraus path."""

from __future__ import annotations

import argparse
import sys
from typing import Iterable, Iterator

from .bloch import BlochVector, parse_bloch
from .channels import (
    PauliAxis,
    as_axis,
    as_count,
    check_retention,
    make_one_pauli,
    retention_grid,
)
from .errors import NumericError, ValidationError
from .measures import ChannelReport, full_report

CSV_HEADER = "x,N,C,F_numeric,F_paper,H_out,lambda_hi,theta_hi,b1,b2,b3"
DEFAULT_PRECISION = 12
DEFAULT_STEPS = 201
MAX_PRECISION = 2**31 - 1  # a format spec's precision is a C int


def format_value(value: float, precision: int) -> str:
    if value == 0.0:
        value = 0.0  # never print -0
    return f"{value:.{precision}g}"


def format_bloch(vec: BlochVector, precision: int) -> str:
    return ",".join(format_value(c, precision) for c in vec)


# ---------------------------------------------------------------------------
# sweep


def sweep_reports(
    axis: PauliAxis, bloch: BlochVector, grid: list[float]
) -> Iterator[ChannelReport]:
    """Full report at every retention rate of grid, in grid order, one at a time."""
    return (full_report(make_one_pauli(axis, x), bloch) for x in grid)


def csv_line(report: ChannelReport, precision: int) -> str:
    columns = (
        report.x,
        report.noise_n,
        report.coherent_c,
        report.fidelity_numeric,
        report.fidelity_paper,
        report.h_out,
        report.lambdas.hi,
        report.thetas.hi,
        report.bloch_out.a1,
        report.bloch_out.a2,
        report.bloch_out.a3,
    )
    return ",".join(format_value(c, precision) for c in columns)


def write_sweep_csv(
    reports: Iterable[ChannelReport], path: str, precision: int
) -> None:
    """Keep only the formatted lines; open the file after the last one."""
    lines = [CSV_HEADER]
    lines.extend(csv_line(report, precision) for report in reports)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(f"{line}\n" for line in lines)


# ---------------------------------------------------------------------------
# commands


def _flagged(flag: str, convert, raw):
    """Run a converter, prefixing any validation error with the flag name."""
    try:
        return convert(raw)
    except ValidationError as exc:
        raise ValidationError(f"{flag}: {exc}") from None


def _check_precision(precision) -> int:
    precision = as_count(precision, "precision", 1)
    if precision > MAX_PRECISION:
        raise ValidationError(f"precision must be <= {MAX_PRECISION}, got {precision}")
    return precision


def cmd_analyze(args) -> int:
    axis = as_axis(args.channel)
    bloch = _flagged("--bloch", parse_bloch, args.bloch)
    x = _flagged("--x", check_retention, args.x)
    precision = _flagged("--precision", _check_precision, args.precision)
    report = full_report(make_one_pauli(axis, x), bloch)
    print(f"x = {format_value(report.x, precision)}")
    print(f"bloch_in = {format_bloch(bloch, precision)}")
    print(f"bloch_out = {format_bloch(report.bloch_out, precision)}")
    for name in ("h_in", "h_out", "noise_n", "coherent_c", "fidelity_numeric",
                 "fidelity_paper"):
        print(f"{name} = {format_value(getattr(report, name), precision)}")
    print(f"lambda_hi = {format_value(report.lambdas.hi, precision)}")
    print(f"lambda_lo = {format_value(report.lambdas.lo, precision)}")
    print(f"theta_hi = {format_value(report.thetas.hi, precision)}")
    print(f"theta_lo = {format_value(report.thetas.lo, precision)}")
    print(f"mutual_info = {format_value(report.mutual_info, precision)}")
    return 0


def cmd_sweep(args) -> int:
    axis = as_axis(args.channel)
    bloch = _flagged("--bloch", parse_bloch, args.bloch)
    precision = _flagged("--precision", _check_precision, args.precision)
    grid = _flagged("--steps", retention_grid, args.steps)
    write_sweep_csv(sweep_reports(axis, bloch, grid), args.out, precision)
    return 0


def run_verification(grid_steps: int, samples: int, seed: int) -> tuple:
    """verify.run_verification, imported on call: no other command loads verify.py."""
    from . import verify
    return verify.run_verification(grid_steps, samples, seed)


def cmd_verify(args) -> int:
    from .verify import check_samples, check_seed, format_verification
    # The same checks run_verification makes, each named by its flag.
    grid_steps = len(_flagged("--grid", retention_grid, args.grid))
    samples = _flagged("--samples", check_samples, args.samples)
    seed = _flagged("--seed", check_seed, args.seed)
    axes = run_verification(grid_steps, samples, seed)
    print(format_verification(grid_steps, samples, seed, axes))
    return 0 if all(av.passed for av in axes) else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paulinoise",
        description="One-Pauli qubit noise channels: measures, sweeps and "
        "closed-form cross-validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    point = argparse.ArgumentParser(add_help=False)  # analyze's and sweep's leading flags
    point.add_argument("--channel", required=True, choices=[axis.token for axis in PauliAxis])
    point.add_argument("--bloch", required=True, metavar="a1,a2,a3")

    analyze = sub.add_parser("analyze", parents=[point],
                             help="report every measure at one point")
    analyze.add_argument("--x", required=True, type=float)

    sweep = sub.add_parser("sweep", parents=[point], help="sweep x over [0, 1] and write CSV")
    sweep.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    sweep.add_argument("--out", required=True)
    for command, func in ((analyze, cmd_analyze), (sweep, cmd_sweep)):
        command.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
        command.set_defaults(func=func)

    verify = sub.add_parser(
        "verify", help="cross-validate closed forms against the Kraus path"
    )
    verify.add_argument("--grid", type=int, default=101)
    verify.add_argument("--samples", type=int, default=100)
    verify.add_argument("--seed", type=int, default=1)
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on syntax errors, 0 on --help
        # A bad command line exits 1; 2 stays reserved for a failed verification.
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (ValidationError, NumericError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
