"""Command-line surface: single-point analysis, x sweeps emitted as CSV,
and cross-validation of the closed forms against the generic Kraus path."""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from .bloch import BlochVector, bloch_to_density, parse_bloch
from .channels import PauliAxis, check_retention, make_one_pauli, retention_grid
from .errors import NumericError, ValidationError
from .measures import ChannelReport, full_report
# random_bloch is re-exported for callers that import the verification
# names from the command-line module.
from .verify import (  # noqa: F401
    REFERENCE_STATES,
    RESIDUAL_LIMIT,
    VerificationReport,
    random_bloch,
    run_verification,
)

CSV_HEADER = "x,N,C,F_numeric,F_paper,H_out,lambda_hi,theta_hi,b1,b2,b3"
DEFAULT_PRECISION = 12
DEFAULT_STEPS = 201


def format_value(value: float, precision: int) -> str:
    if value == 0.0:
        value = 0.0  # never print -0
    return f"{value:.{precision}g}"


def format_bloch(vec: BlochVector, precision: int) -> str:
    return ",".join(format_value(c, precision) for c in vec)


# ---------------------------------------------------------------------------
# sweep


@dataclass(frozen=True)
class SweepSpec:
    axis: PauliAxis
    bloch: BlochVector
    steps: int = DEFAULT_STEPS
    precision: int = DEFAULT_PRECISION

    def __post_init__(self):
        if self.steps < 2:
            raise ValidationError(f"steps must be >= 2, got {self.steps}")
        if self.precision < 1:
            raise ValidationError(f"precision must be >= 1, got {self.precision}")

    def grid(self) -> list[float]:
        return retention_grid(self.steps)


def sweep_reports(spec: SweepSpec) -> list[ChannelReport]:
    """Full report at every grid point, ascending in x."""
    rho = bloch_to_density(spec.bloch)
    return [full_report(make_one_pauli(spec.axis, x), rho) for x in spec.grid()]


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


def write_sweep_csv(spec: SweepSpec, reports: list[ChannelReport], path: str) -> None:
    lines = [CSV_HEADER]
    lines.extend(csv_line(report, spec.precision) for report in reports)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# verification


def format_verification(report: VerificationReport) -> str:
    lines = [
        f"grid = {report.grid_steps}, samples = {report.samples}, "
        f"seed = {report.seed}"
    ]
    for av in report.axes:
        lines.append(
            f"[{av.axis.token}] reference input "
            f"{format_bloch(REFERENCE_STATES[av.axis], 12)}"
        )
        for name, value in av.residuals().items():
            lines.append(f"  residual {name:<18} = {value:.3e}")
        lines.append(f"  completeness residual       = {av.completeness_max:.3e}")
        if av.axis is PauliAxis.SIGMA2:
            lines.append(
                f"  fidelity gap max |F_numeric - F_paper| = {av.gap_max:.12g}"
            )
            lines.append(
                f"  fidelity gap predicted 2(1-x)a2^2      = "
                f"{av.gap_predicted_at_max:.12g}"
            )
        lines.append(f"  C>0 points = {av.c_positive} of {av.points}")
        lines.append(
            f"  |C|<={RESIDUAL_LIMIT:g} points = {av.c_zero}; "
            f"C<-{RESIDUAL_LIMIT:g} points = {av.c_negative}"
        )
        endpoints = "yes" if av.endpoints_c_positive else "no"
        lines.append(
            f"  C>0 points (reference input) = {av.c_positive_reference} of "
            f"{av.reference_points}; endpoints C>0: {endpoints}"
        )
    verdict = "PASS" if report.passed else "FAIL"
    lines.append(
        f"result: {verdict} (max cross-path residual {report.max_residual:.3e}, "
        f"limit {RESIDUAL_LIMIT:g})"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# commands


def _flagged(flag: str, convert, raw):
    """Run a converter, prefixing any validation error with the flag name."""
    try:
        return convert(raw)
    except ValidationError as exc:
        raise ValidationError(f"{flag}: {exc}") from None


def _check_precision(precision) -> int:
    precision = int(precision)
    if precision < 1:
        raise ValidationError(f"precision must be >= 1, got {precision}")
    return precision


def cmd_analyze(args) -> int:
    axis = PauliAxis.from_token(args.channel)
    bloch = _flagged("--bloch", parse_bloch, args.bloch)
    x = _flagged("--x", check_retention, args.x)
    precision = _flagged("--precision", _check_precision, args.precision)
    report = full_report(make_one_pauli(axis, x), bloch_to_density(bloch))
    print(f"x = {format_value(report.x, precision)}")
    print(f"bloch_in = {format_bloch(report.bloch_in, precision)}")
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
    axis = PauliAxis.from_token(args.channel)
    bloch = _flagged("--bloch", parse_bloch, args.bloch)
    precision = _flagged("--precision", _check_precision, args.precision)
    spec = _flagged(
        "--steps", lambda steps: SweepSpec(axis, bloch, steps, precision), args.steps
    )
    reports = sweep_reports(spec)
    write_sweep_csv(spec, reports, args.out)
    return 0


def cmd_verify(args) -> int:
    report = run_verification(args.grid, args.samples, args.seed)
    print(format_verification(report))
    return 0 if report.passed else 2


class _ArgumentParser(argparse.ArgumentParser):
    # Exit code 1 for bad command lines; 2 stays reserved for a failed
    # verification.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="paulinoise",
        description="One-Pauli qubit noise channels: measures, sweeps and "
        "closed-form cross-validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    channels = [axis.token for axis in PauliAxis]

    analyze = sub.add_parser("analyze", help="report every measure at one point")
    analyze.add_argument("--channel", required=True, choices=channels)
    analyze.add_argument("--bloch", required=True, metavar="a1,a2,a3")
    analyze.add_argument("--x", required=True, type=float)
    analyze.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    analyze.set_defaults(func=cmd_analyze)

    sweep = sub.add_parser("sweep", help="sweep x over [0, 1] and write CSV")
    sweep.add_argument("--channel", required=True, choices=channels)
    sweep.add_argument("--bloch", required=True, metavar="a1,a2,a3")
    sweep.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    sweep.set_defaults(func=cmd_sweep)

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
    except SystemExit as exc:  # argparse exits on syntax errors and --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValidationError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
