import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from paulinoise import ValidationError, cli
from paulinoise.cli import (
    CSV_HEADER,
    _check_precision,
    format_value,
    main,
    run_verification,
    sweep_reports,
)
from paulinoise.channels import PauliAxis, retention_grid
from paulinoise.bloch import BlochVector


def _lines(capsys):
    return capsys.readouterr().out.splitlines()


def test_analyze_noiseless_endpoint(capsys):
    rc = main(["analyze", "--channel", "sigma1", "--bloch", "0.5,0.6,0.6",
               "--x", "1"])
    assert rc == 0
    out = _lines(capsys)
    assert "noise_n = 0" in out
    assert "fidelity_numeric = 1" in out
    assert "x = 1" in out


def test_analyze_reports_both_fidelities(capsys):
    rc = main(["analyze", "--channel", "sigma2", "--bloch", "0.6,0.5,0.6",
               "--x", "0"])
    assert rc == 0
    out = _lines(capsys)
    assert "fidelity_numeric = 0.25" in out
    assert "fidelity_paper = -0.25" in out


def test_analyze_prints_every_report_field(capsys):
    main(["analyze", "--channel", "sigma3", "--bloch", "0.1,0.2,0.3",
          "--x", "0.25"])
    names = [line.split(" = ")[0] for line in _lines(capsys)]
    assert names == [
        "x", "bloch_in", "bloch_out", "h_in", "h_out", "noise_n",
        "coherent_c", "fidelity_numeric", "fidelity_paper", "lambda_hi",
        "lambda_lo", "theta_hi", "theta_lo", "mutual_info",
    ]


@pytest.mark.parametrize(
    "bloch, printed",
    [
        ("1e-12,-1e-12,1e-12", "1e-12,-1e-12,1e-12"),
        ("0,0,-1e-300", "0,0,-1e-300"),
        ("5e-324,0,0", "4.94065645841e-324,0,0"),  # the one subnormal at 12 digits
        ("0.6,0.8,1e-7", "0.6,0.8,1e-07"),
    ],
)
def test_analyze_echoes_tiny_bloch_components(capsys, bloch, printed):
    # the density entries (1 +- a3)/2 hold a3 only to about 1e-16 absolute,
    # so bloch_in is the parsed vector, not one rebuilt from the matrix
    assert main(["analyze", "--channel", "sigma1", f"--bloch={bloch}", "--x", "0.3"]) == 0
    line = next(line for line in _lines(capsys) if line.startswith("bloch_in = "))
    assert line == f"bloch_in = {printed}"
    echoed = [float(c) for c in line.removeprefix("bloch_in = ").split(",")]
    assert echoed == [float(c) for c in bloch.split(",")]


def test_analyze_rejects_long_bloch_vector(capsys):
    rc = main(["analyze", "--channel", "sigma1", "--bloch", "0,0,2",
               "--x", "0.5"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--bloch" in err
    assert "exceeds 1" in err


def test_analyze_rejects_malformed_bloch(capsys):
    rc = main(["analyze", "--channel", "sigma1", "--bloch", "a,b,c",
               "--x", "0.5"])
    assert rc == 1
    assert "--bloch" in capsys.readouterr().err


def test_analyze_rejects_out_of_range_x(capsys):
    rc = main(["analyze", "--channel", "sigma1", "--bloch", "0,0,0",
               "--x", "1.5"])
    assert rc == 1
    assert "--x" in capsys.readouterr().err


def test_unknown_channel_token_exits_one(capsys):
    rc = main(["analyze", "--channel", "sigma4", "--bloch", "0,0,0",
               "--x", "0.5"])
    assert rc == 1


def test_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "fig.csv"
    rc = main(["sweep", "--channel", "sigma1", "--bloch", "0.5,0.6,0.6",
               "--steps", "201", "--out", str(out)])
    assert rc == 0
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    lines = raw.decode("ascii").splitlines()
    assert len(lines) == 202
    assert lines[0] == CSV_HEADER
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[0]) == 0.0 and float(last[0]) == 1.0
    assert float(first[1]) == 0.0 and float(last[1]) == 0.0  # N at endpoints


def test_sweep_rows_strictly_ascending(tmp_path):
    out = tmp_path / "s.csv"
    main(["sweep", "--channel", "sigma2", "--bloch", "0.6,0.5,0.6",
          "--steps", "21", "--out", str(out)])
    xs = [float(line.split(",")[0]) for line in
          out.read_text().splitlines()[1:]]
    assert xs == sorted(xs)
    assert len(set(xs)) == len(xs)
    assert xs[0] == 0.0 and xs[-1] == 1.0


def test_sweep_middle_row_values(tmp_path):
    out = tmp_path / "t.csv"
    rc = main(["sweep", "--channel", "sigma2", "--bloch", "0.6,0.5,0.6",
               "--steps", "3", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 4
    middle = rows[2].split(",")
    assert float(middle[0]) == 0.5
    assert float(middle[1]) == pytest.approx(0.8112781244591328, abs=1e-9)
    assert abs(float(middle[2])) <= 1e-12  # C at x = 1/2


def test_sweep_two_steps_endpoints_only(tmp_path):
    out = tmp_path / "e.csv"
    rc = main(["sweep", "--channel", "sigma3", "--bloch", "0.6,0.6,0.5",
               "--steps", "2", "--out", str(out)])
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [float(r[0]) for r in rows] == [0.0, 1.0]
    assert all(float(r[1]) == 0.0 for r in rows)
    assert float(rows[0][3]) == pytest.approx(0.25, abs=1e-12)
    assert float(rows[1][3]) == pytest.approx(1.0, abs=1e-12)


def test_sweep_symmetric_rows_for_reference_input(tmp_path):
    out = tmp_path / "sym.csv"
    main(["sweep", "--channel", "sigma1", "--bloch", "0.5,0.6,0.6",
          "--steps", "21", "--out", str(out)])
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    n = [float(r[1]) for r in rows]
    c = [float(r[2]) for r in rows]
    h = [float(r[5]) for r in rows]
    for i in range(len(rows)):
        j = len(rows) - 1 - i
        assert n[i] == pytest.approx(n[j], abs=1e-12)
        assert c[i] == pytest.approx(c[j], abs=1e-12)
        assert h[i] == pytest.approx(h[j], abs=1e-12)


def test_sweep_rejects_single_step(capsys):
    rc = main(["sweep", "--channel", "sigma1", "--bloch", "0,0,0",
               "--steps", "1", "--out", "unused.csv"])
    assert rc == 1
    assert capsys.readouterr().err == "error: --steps: grid must be >= 2, got 1\n"


def test_sweep_rejects_nonpositive_precision(capsys):
    rc = main(["sweep", "--channel", "sigma1", "--bloch", "0,0,0",
               "--steps", "2", "--precision", "0", "--out", "unused.csv"])
    assert rc == 1
    assert "--precision" in capsys.readouterr().err


def test_sweep_unwritable_path_exits_one(tmp_path, capsys):
    rc = main(["sweep", "--channel", "sigma1", "--bloch", "0,0,0",
               "--steps", "2", "--out", str(tmp_path / "no-dir" / "x.csv")])
    assert rc == 1
    assert capsys.readouterr().err


def _printed_unit(text: str) -> float:
    """Size of one unit in the last printed significant digit."""
    mantissa = text
    exponent = 0
    if "e" in text:
        mantissa, exp = text.split("e")
        exponent = int(exp)
    digits = mantissa.replace("-", "").replace(".", "").lstrip("0")
    if not digits:
        return 1.0  # the value 0 was printed exactly
    if "." in mantissa:
        decimals = len(mantissa.split(".")[1])
        return 10.0 ** (exponent - decimals)
    trailing = len(mantissa) - len(mantissa.rstrip("0"))
    return 10.0 ** (exponent + trailing)


def test_sweep_round_trip(tmp_path):
    # re-evaluating at each parsed x must reproduce every printed column
    # to one unit in the last printed digit
    out = tmp_path / "rt.csv"
    main(["sweep", "--channel", "sigma2", "--bloch", "0.6,0.5,0.6",
          "--steps", "17", "--out", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    sweep = sweep_reports(
        PauliAxis.SIGMA2, BlochVector(0.6, 0.5, 0.6), retention_grid(17)
    )
    reports = {format_value(r.x, 12): r for r in sweep}
    for line in lines[1:]:
        cells = line.split(",")
        rep = reports[cells[0]]
        recomputed = (
            rep.x, rep.noise_n, rep.coherent_c, rep.fidelity_numeric,
            rep.fidelity_paper, rep.h_out, rep.lambdas.hi, rep.thetas.hi,
            rep.bloch_out.a1, rep.bloch_out.a2, rep.bloch_out.a3,
        )
        for cell, value in zip(cells, recomputed):
            assert abs(float(cell) - value) <= 1.0000001 * _printed_unit(cell)


def test_sweep_error_is_not_relabelled_as_steps(capsys, monkeypatch, tmp_path):
    # the last row fails after the others were formatted: the error keeps
    # its own text and, as the file is opened only after the last row, no
    # file is left behind
    report = cli.full_report

    def fail_last(ch, a):
        if ch.x == 1.0:
            raise ValidationError("boom")
        return report(ch, a)

    monkeypatch.setattr(cli, "full_report", fail_last)
    out = tmp_path / "s.csv"
    rc = main(["sweep", "--channel", "sigma1", "--bloch", "0,0,0", "--steps", "5",
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: boom\n"
    assert not out.exists()


def test_verify_small_run_passes(capsys):
    rc = main(["verify", "--grid", "5", "--samples", "2", "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out
    assert "residual oracle_vs_w" in out
    assert "C>0 points" in out
    assert "fidelity gap" in out


def test_verify_rejects_degenerate_grid(capsys):
    rc = main(["verify", "--grid", "1", "--samples", "1", "--seed", "1"])
    assert rc == 1
    assert "grid must be >= 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--grid", "1", "--grid: grid must be >= 2, got 1"),
        ("--samples", "0", "--samples: samples must be >= 1, got 0"),
        ("--seed", "-1", "--seed: seed must be >= 0, got -1"),
    ],
    ids=["grid", "samples", "seed"],
)
def test_verify_names_the_bad_flag(capsys, flag, value, message):
    argv = {"--grid": "5", "--samples": "2", "--seed": "1", flag: value}
    rc = main(["verify", *(item for pair in argv.items() for item in pair)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_verify_two_point_grid_counts_endpoints(capsys):
    rc = main(["verify", "--grid", "2", "--samples", "1", "--seed", "7"])
    assert rc == 0
    for av in run_verification(2, 1, 7):
        assert av.c_positive >= 2
        assert av.endpoints_c_positive


def test_run_verification_structure():
    axes = run_verification(5, 2, 11)
    assert [av.axis for av in axes] == list(PauliAxis)
    assert all(av.passed for av in axes)
    for av in axes:
        assert av.points == 5 * 3  # grid x (samples + reference)
        assert av.reference_points == 5
        assert av.completeness_max <= 1e-13
    sigma2 = axes[PauliAxis.SIGMA2 - 1]
    assert sigma2.gap_max > 0
    assert sigma2.gap_predicted_at_max == pytest.approx(sigma2.gap_max, abs=1e-12)


def test_analyze_honours_precision_flag(capsys):
    rc = main(["analyze", "--channel", "sigma1", "--bloch", "0.5,0.6,0.6",
               "--x", "0.5", "--precision", "4"])
    assert rc == 0
    assert "noise_n = 0.8113" in _lines(capsys)


def test_analyze_rejects_nonpositive_precision(capsys):
    rc = main(["analyze", "--channel", "sigma1", "--bloch", "0,0,0",
               "--x", "0.5", "--precision", "0"])
    assert rc == 1
    assert "--precision" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "sweep"])
@pytest.mark.parametrize("precision", [2**31, 3000000000, 10**30])
def test_precision_beyond_a_format_spec_is_a_flag_error(capsys, command, precision):
    args = [command, "--channel", "sigma1", "--bloch", "0.5,0.6,0.6",
            "--precision", str(precision)]
    args += ["--x", "0.3"] if command == "analyze" else ["--out", "unused.csv"]
    assert main(args) == 1
    assert capsys.readouterr().err == (
        f"error: --precision: precision must be <= 2147483647, got {precision}\n"
    )


def test_largest_precision_formats():
    assert _check_precision(2**31 - 1) == 2**31 - 1
    assert format_value(0.5, _check_precision(2**31 - 1)) == "0.5"


@pytest.mark.parametrize(
    "precision", [2.5, True, pytest.param(np.True_, id="numpy-bool"), "x"]
)
def test_precision_must_be_an_integer(precision):
    with pytest.raises(
        ValidationError, match=r"^precision must be an integer, got "
    ):
        _check_precision(precision)


def test_format_value_never_prints_negative_zero():
    assert format_value(-0.0, 12) == "0"
    assert format_value(0.0, 12) == "0"


def test_format_value_precision():
    assert format_value(math.pi, 4) == "3.142"
    assert format_value(1e-15, 12) == "1e-15"


# Runs in a fresh interpreter: tests in this process import numpy.random.
_NO_NUMPY_RANDOM = """
import sys
from paulinoise.cli import main

for argv in (
    ["verify", "--grid", "5", "--samples", "2"],
    ["analyze", "--channel", "sigma2", "--bloch", "0.6,0.5,0.6", "--x", "0.3"],
    ["sweep", "--channel", "sigma1", "--bloch", "0.5,0.6,0.6", "--steps", "11",
     "--out", sys.argv[1]],
):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
    if "numpy.random" in sys.modules:
        sys.exit(f"{argv[0]} imported numpy.random")
"""


def test_no_command_imports_numpy_random(tmp_path):
    # importing numpy.random costs each process several MB (secrets, hashlib
    # and OpenSSL, the bit generators); verify draws its states in pure Python
    src = Path(cli.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_RANDOM, str(tmp_path / "s.csv")],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_python_dash_m_is_the_command_line(capsys):
    argv = ["analyze", "--channel", "sigma2", "--bloch=0.6,0.5,0.6", "--x=0.3"]
    assert main(argv) == 0
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-m", "paulinoise", *argv], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == capsys.readouterr().out
    failed = subprocess.run([sys.executable, "-m", "paulinoise", "verify", "--seed", "-1"],
                            env=env, capture_output=True, text=True, timeout=120)
    assert failed.returncode == 1
