"""Tests of the benchmark itself: tracing must not change what the program
prints or writes, and the output checks must catch wrong output.

    python3 -m pytest bench
"""

import itertools

import pytest

import reference
import run
import tracer
import workloads


@pytest.fixture
def runner(tmp_path):
    return run.Runner(tmp_path / "work")


def _first(stream, n=1):
    return list(itertools.islice(stream, n))


def _small_invocations():
    return (
        _first(workloads.analyze_cold(seed=7), 6)
        + _first(workloads.sweep_long(seed=7, steps=201))
        + _first(workloads.verify_grid(seed=7, grid=5, samples=3))
    )


@pytest.mark.parametrize("inv", _small_invocations(), ids=lambda inv: inv.argv[0])
def test_tracing_is_transparent(runner, inv):
    plain = runner(run.plain_command(inv.argv))
    traced = runner(run.traced_command(inv.argv))
    assert plain.returncode == traced.returncode == 0
    assert traced.stdout == plain.stdout
    assert traced.csv == plain.csv
    assert (plain.csv is not None) == (inv.argv[0] == "sweep")
    assert inv.check(plain.returncode, plain.stdout, plain.csv) == []
    calls, _, _ = tracer.summarize(traced.spans)
    assert calls["cli.main"] == 1


def test_calls_per_item_are_exact(runner):
    grid, samples = 5, 3
    (inv,) = _first(workloads.verify_grid(seed=3, grid=grid, samples=samples))
    calls, _, self_ns = tracer.summarize(runner(run.traced_command(inv.argv)).spans)
    assert inv.items == 3 * grid * (samples + 1)
    assert calls["measures.full_report"] == inv.items
    assert calls["measures.environment_entropy_oracle"] == inv.items
    assert calls["closedform.closed_point"] == inv.items
    assert calls["channels.make_one_pauli"] == 3 * grid
    assert calls["bloch.bloch_to_density"] == 3 * (samples + 1)
    assert set(self_ns) == set(tracer.LAYERS)


def test_self_time_subtracts_child_spans():
    doc = {
        "names": ["cli.main", "measures.full_report", "linalg.spectrum_entropy"],
        "spans": [[0, -1, 0, 100], [1, 0, 10, 40], [2, 1, 20, 25], [2, 0, 50, 60]],
    }
    calls, inclusive, self_ns = tracer.summarize(doc)
    assert calls["linalg.spectrum_entropy"] == 2
    assert inclusive["measures.full_report"] == 30
    assert self_ns == {"cli": 60, "measures": 25, "linalg": 15}


def _replace_cell(csv: bytes, row: int, column: int, value: str) -> bytes:
    lines = csv.decode().split("\n")
    cells = lines[row + 1].split(",")
    cells[column] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines).encode()


def test_checker_flags_corrupted_csv_row(runner):
    (inv,) = _first(workloads.sweep_long(seed=11, steps=201))
    out = runner(run.plain_command(inv.argv))
    assert inv.check(out.returncode, out.stdout, out.csv) == []
    middle = 100  # x = 1/2, always among the sampled rows
    n_column = reference.CSV_HEADER.split(",").index("N")
    n_value = float(out.csv.decode().split("\n")[middle + 1].split(",")[n_column])
    bad_n = _replace_cell(out.csv, middle, n_column, repr(n_value + 1e-6))
    assert any("N" in p for p in inv.check(0, out.stdout, bad_n))
    bad_x = _replace_cell(out.csv, 37, 0, "0.2")
    assert any("row 37 x" in p for p in inv.check(0, out.stdout, bad_x))
    dropped = out.csv.rsplit(b"\n", 2)[0] + b"\n"
    assert inv.check(0, out.stdout, dropped) != []


def test_checker_flags_corrupted_verify_line(runner):
    (inv,) = _first(workloads.verify_grid(seed=5, grid=5, samples=3))
    out = runner(run.plain_command(inv.argv))
    assert inv.check(out.returncode, out.stdout, out.csv) == []
    text = out.stdout.decode()
    line = next(l for l in text.splitlines() if "residual lambda" in l)
    big = line.rpartition("= ")[0] + "= 3.700e-09"
    assert any("residual lambda" in p
               for p in inv.check(0, text.replace(line, big).encode(), None))
    failed = text.replace("result: PASS", "result: FAIL").encode()
    assert inv.check(0, failed, None) != []
    assert inv.check(2, out.stdout, None) != []


def test_checker_flags_corrupted_analyze_field(runner):
    (inv,) = _first(workloads.analyze_cold(seed=5))
    out = runner(run.plain_command(inv.argv))
    assert inv.check(out.returncode, out.stdout, out.csv) == []
    lines = out.stdout.decode().splitlines()
    i = reference.ANALYZE_FIELDS.index("mutual_info")
    lines[i] = "mutual_info = 7"
    bad = ("\n".join(lines) + "\n").encode()
    assert any("mutual_info" in p for p in inv.check(0, bad, None))
