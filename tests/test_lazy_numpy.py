"""numpy is loaded on first array use, never by the import or the float
routes; dataclasses never, and the verify engine by the verify command
only. Each check runs in a fresh interpreter, since this process has
imported all three long before any test runs."""

import os
import subprocess
import sys
from pathlib import Path

import paulinoise
from paulinoise import closed_point

SRC = Path(paulinoise.__file__).resolve().parents[1]
ANALYZE = ["analyze", "--channel", "sigma2", "--bloch", "0.6,0.5,0.6", "--x", "0.3"]


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )


# Each step, then a check that numpy is still not loaded. The command-line
# steps take their exit codes: --help 0, a usage or validation error 1.
_FLOAT_ROUTES = """
import contextlib, io, runpy, sys

def numpy_stays_out(step):
    if "numpy" in sys.modules:
        sys.exit(f"{step} imported numpy")

import paulinoise
numpy_stays_out("import paulinoise")
paulinoise.closed_point(2, 0.3, (0.6, 0.5, 0.6))
numpy_stays_out("closed_point")
paulinoise.completeness_residual(paulinoise.KrausChannel(1, 0.3))
numpy_stays_out("KrausChannel and completeness_residual")
paulinoise.parse_bloch("0.5,0.6,0.6")
numpy_stays_out("parse_bloch")
assert paulinoise.spectrum_entropy([0.5, 0.5]) == 1.0
numpy_stays_out("spectrum_entropy")

from paulinoise.cli import main
for argv, code in (
    (["--help"], 0),
    (["analyze", "--channel", "sigma1"], 1),
    (["analyze", "--channel", "sigma1", "--bloch", "2,0,0", "--x", "0.3"], 1),
    (["sweep", "--channel", "sigma1", "--bloch", "0,0,0", "--out", "-", "--steps", "1"], 1),
    (["verify", "--seed", "-1"], 1),
):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        if main(argv) != code:
            sys.exit(f"{argv} did not exit {code}")
    numpy_stays_out(" ".join(argv))

sys.argv = ["paulinoise", "--help"]  # python -m paulinoise --help
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("paulinoise", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        if exc.code != 0:
            sys.exit(f"python -m paulinoise --help exited {exc.code}")
numpy_stays_out("python -m paulinoise --help")
"""


def test_import_and_float_routes_do_not_load_numpy():
    result = _python(_FLOAT_ROUTES)
    assert result.returncode == 0, result.stderr


_ANALYZE = """
import sys
if sys.argv[1] == "numpy first":
    import numpy  # the benchmark tracer's order
from paulinoise.cli import main
sys.exit(main(sys.argv[2:]))
"""


def test_analyze_output_does_not_depend_on_when_numpy_is_imported():
    first = _python(_ANALYZE, "numpy first", *ANALYZE)
    lazy = _python(_ANALYZE, "numpy on use", *ANALYZE)
    assert first.returncode == lazy.returncode == 0, first.stderr + lazy.stderr
    assert first.stdout == lazy.stdout
    assert lazy.stdout.startswith("x = 0.3\n")


# A finder ahead of every other that refuses numpy, as if it were not installed.
_NO_NUMPY = """
import sys
import traceback
from pathlib import Path

class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

sys.meta_path.insert(0, NoNumpy())
import paulinoise
print(repr(paulinoise.closed_point(2, 0.3, (0.6, 0.5, 0.6))))
try:
    paulinoise.full_report(paulinoise.KrausChannel(1, 0.3), (0, 0, 0))
except ModuleNotFoundError as exc:
    print(exc.name)
    ours = [f for f in traceback.extract_tb(exc.__traceback__)
            if Path(f.filename).parent.name == "paulinoise"]
    print(f"{Path(ours[-1].filename).stem}.{ours[-1].name}")
"""


def test_closed_point_runs_without_numpy_and_full_report_names_it():
    # the one numpy use left on full_report's float route is the Hermiticity
    # guard of the eigenvalue kernel (its np.hypot)
    result = _python(_NO_NUMPY)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        repr(closed_point(2, 0.3, (0.6, 0.5, 0.6))),
        "numpy",
        "linalg._eigenvalues",
    ]


# Each step, then a check that neither the dataclass machinery (dataclasses
# pulls in inspect, ast, dis and tokenize) nor the verify engine is loaded:
# no record type is a dataclass, and only the verify command imports verify.py.
_COLD_START = """
import contextlib, io, sys

def loaded():
    return [name for name in ("dataclasses", "paulinoise.verify") if name in sys.modules]

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        if main(argv) != 0:
            sys.exit(f"{argv} failed")

import paulinoise
assert not loaded(), ("import paulinoise", loaded())
from paulinoise.cli import main
assert not loaded(), ("from paulinoise.cli import main", loaded())
for argv in (["--help"], ANALYZE,
             ["sweep", "--channel", "sigma1", "--bloch", "0.5,0.6,0.6", "--steps", "11",
              "--out", sys.argv[1]]):
    run(argv)
    assert not loaded(), (argv, loaded())
run(["verify", "--grid", "3", "--samples", "1"])
assert loaded() == ["paulinoise.verify"], ("verify", loaded())
"""


def test_only_verify_loads_the_verify_engine_and_nothing_loads_dataclasses(tmp_path):
    result = _python(f"ANALYZE = {ANALYZE!r}\n" + _COLD_START, str(tmp_path / "s.csv"))
    assert result.returncode == 0, result.stderr
