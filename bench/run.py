"""Benchmark of the paulinoise command line.

    python3 bench/run.py --workload verify-grid --seed 1 --seconds 30 --trace 0

runs one workload (see workloads.py) for about --seconds seconds as a closed
loop with one client: each invocation is a fresh `paulinoise` process,
started after the previous one exited. Every output is checked against the
benchmark's own mpmath reference after the timed region. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it print each metric with its unit, sample count,
median and quartiles, the error rate, and the run's machine metadata.

--trace 0 reports the end-to-end metrics, measured untraced; their times are
in units of a reference process (see REF_ENTRY), and the wall-clock figures
are printed beside them. --trace 1 alternates untraced and traced
invocations of the same inputs (tracer.py) and reports the per-layer
metrics, including the tracing overhead. Without --workload every workload
of BENCHMARK.json runs in turn, each in a fresh process.

The package is imported from src/ of the checkout that holds this file;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 15  # spread over the run, so they see the machine as the workload does
MIN_INVOCATIONS = 3
CHILD_TIMEOUT_S = 90.0
SPANS_FILE = "spans.json"
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# What the `paulinoise` console script runs.
CLI_ENTRY = "import sys; from paulinoise.cli import main; sys.exit(main())"
IMPORT_ENTRY = "import paulinoise"

# The reference process: a fresh interpreter running a fixed pure-Python
# loop that never touches the package. It runs before the first invocation
# and after each one; an invocation's time in "ref" units is its wall time
# over the mean of the reference runs on either side. On a shared host the
# speed of the same work drifts by up to 1.8x from minute to minute, and the
# ratio cancels that drift while every change to the program still shows.
REF_ENTRY = "s = 0\nfor i in range(400000):\n    s += i * i"

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_ref": "1/ref",
    "latency_ref_p50": "ref",
    "latency_ref_p90": "ref",
    "peak_rss_mb": "MB",
}
# Printed beside the end-to-end metrics, in seconds as measured, but not
# gated: their run-to-run spread on a shared host exceeds any usable bound.
WALL_UNITS = {
    "items_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "ref_ms": "ms",
}
# Functions called on every workload; the others run on one workload only,
# and a per-call time that reads 0 elsewhere carries no information, so
# their cost shows in layer self time and their counts in calls_per_item.
TIMED_PER_CALL = (
    "measures.full_report",
    "closedform.fidelity_paper_closed",
    "channels.make_one_pauli",
    "channels.completeness_residual",
    "bloch.bloch_to_density",
    "bloch.check_density",
    "linalg.hermitian_eigenvalues_2x2",
    "linalg.spectrum_entropy",
)
COUNTED = tuple(f"{m}.{f}" for m, f in tracer.TRACED if (m, f) != ("cli", "main"))


def per_layer_units() -> dict[str, str]:
    units = {f"layer.{layer}.self_s": "s" for layer in tracer.LAYERS}
    units.update({f"{name}.calls_per_item": "count" for name in COUNTED})
    units.update({f"{name}.us_per_call": "us" for name in TIMED_PER_CALL})
    units.update({
        "import.numpy_s": "s",
        "import.paulinoise_self_s": "s",
        "cli.csv_bytes": "bytes",
        "tracing_overhead_frac": "ratio",
    })
    return units


@dataclass(frozen=True)
class Outcome:
    wall_s: float  # spawn to exit
    returncode: int
    maxrss_kb: int
    stdout: bytes
    stderr: bytes
    csv: bytes | None
    spans: dict | None


def child_env() -> dict[str, str]:
    """The caller's environment, BLAS thread settings included, with src/
    first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(cmd: list[str], cwd: Path, env: dict[str, str]) -> Outcome:
    """Run cmd in a new directory cwd, wait for it, and collect its outputs
    and peak resident memory; cwd is removed afterwards."""
    cwd.mkdir(parents=True)
    try:
        with open(cwd / "stdout", "wb") as out, open(cwd / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        csv = cwd / workloads.SWEEP_CSV
        spans = cwd / SPANS_FILE
        return Outcome(
            wall_s=wall,
            returncode=proc.returncode,
            maxrss_kb=usage.ru_maxrss,
            stdout=(cwd / "stdout").read_bytes(),
            stderr=(cwd / "stderr").read_bytes(),
            csv=csv.read_bytes() if csv.exists() else None,
            spans=json.loads(spans.read_text()) if spans.exists() else None,
        )
    finally:
        shutil.rmtree(cwd, ignore_errors=True)


def plain_command(argv) -> list[str]:
    return [sys.executable, "-c", CLI_ENTRY, *argv]


def traced_command(argv) -> list[str]:
    return [sys.executable, str(BENCH / "tracer.py"), "--spans", SPANS_FILE,
            "--", *argv]


class Runner:
    """Spawns children in numbered directories under one work directory."""

    def __init__(self, work: Path):
        self.work = work
        self.env = child_env()
        self.count = 0

    def __call__(self, cmd: list[str]) -> Outcome:
        self.count += 1
        return spawn(cmd, self.work / str(self.count), self.env)

    def import_package(self) -> Outcome:
        outcome = self([sys.executable, "-c", IMPORT_ENTRY])
        if outcome.returncode != 0:
            raise RuntimeError("cannot import paulinoise: "
                               + outcome.stderr.decode(errors="replace"))
        return outcome


def check(inv: workloads.Invocation, outcome: Outcome) -> list[str]:
    problems = inv.check(outcome.returncode, outcome.stdout, outcome.csv)
    stderr = outcome.stderr.decode(errors="replace").strip()
    if problems and stderr:
        problems.append("stderr: " + stderr.splitlines()[-1])
    return problems


def invocations(workload: str, seed: int, seconds: float, run_one):
    """Run invocations until the next one would likely end past the
    deadline; at least MIN_INVOCATIONS. Yields (invocation, result)."""
    deadline = time.perf_counter() + seconds
    for n, inv in enumerate(workloads.WORKLOADS[workload](seed), start=1):
        started = time.perf_counter()
        yield inv, run_one(inv, n)
        now = time.perf_counter()
        if n >= MIN_INVOCATIONS and now + (now - started) > deadline:
            return


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def end_to_end(runner: Runner, workload: str, seed: int, seconds: float):
    start = time.perf_counter()
    setup: list[float] = []
    ref = [runner([sys.executable, "-c", REF_ENTRY]).wall_s]

    def run_one(inv, n):
        due = 1 + int(SETUP_REPEATS * (time.perf_counter() - start) / seconds)
        while len(setup) < min(due, SETUP_REPEATS):
            setup.append(runner.import_package().wall_s)
        outcome = runner(plain_command(inv.argv))
        ref.append(runner([sys.executable, "-c", REF_ENTRY]).wall_s)
        return outcome

    results = list(invocations(workload, seed, seconds, run_one))
    outcomes = [outcome for _, outcome in results]
    in_ref = [o.wall_s * 2 / (ref[i] + ref[i + 1]) for i, o in enumerate(outcomes)]
    walls_ms = [o.wall_s * 1e3 for o in outcomes]
    samples = {
        "setup_s": setup,
        "items_per_ref": [inv.items / r for (inv, _), r in zip(results, in_ref)],
        "latency_ref_p50": in_ref,
        "latency_ref_p90": in_ref,
        "peak_rss_mb": [o.maxrss_kb / 1024 for o in outcomes],
        "items_per_s": [inv.items / o.wall_s for inv, o in results],
        "latency_ms_p50": walls_ms,
        "latency_ms_p90": walls_ms,
        "ref_ms": [r * 1e3 for r in ref],
    }
    values = {name: statistics.median(s) for name, s in samples.items()}
    values["latency_ref_p90"] = _p90(in_ref)
    values["latency_ms_p90"] = _p90(walls_ms)
    problems = [check(inv, o) for inv, o in results]
    return values, samples, problems


def per_layer(runner: Runner, workload: str, seed: int, seconds: float):
    def pair(inv, n):
        # Alternate which side runs first, so drift does not favour one.
        if n % 2:
            plain = runner(plain_command(inv.argv))
            traced = runner(traced_command(inv.argv))
        else:
            traced = runner(traced_command(inv.argv))
            plain = runner(plain_command(inv.argv))
        return plain, traced

    results = list(invocations(workload, seed, seconds, pair))
    samples: dict[str, list[float]] = {name: [] for name in per_layer_units()}
    problems = []
    for inv, (plain, traced) in results:
        traced_problems = check(inv, traced)
        problems += [check(inv, plain), traced_problems]
        if (plain.stdout, plain.csv) != (traced.stdout, traced.csv):
            traced_problems.append("traced output differs from untraced output")
        if traced.spans is None:
            traced_problems.append("traced run wrote no spans")
            continue
        calls, inclusive, self_ns = tracer.summarize(traced.spans)
        for layer in tracer.LAYERS:
            samples[f"layer.{layer}.self_s"].append(self_ns[layer] / 1e9)
        for name in COUNTED:
            samples[f"{name}.calls_per_item"].append(calls[name] / inv.items)
        for name in TIMED_PER_CALL:
            us = inclusive[name] / calls[name] / 1e3 if calls[name] else 0.0
            samples[f"{name}.us_per_call"].append(us)
        samples["import.numpy_s"].append(traced.spans["import_numpy_s"])
        samples["import.paulinoise_self_s"].append(traced.spans["import_paulinoise_s"])
        samples["cli.csv_bytes"].append(len(traced.csv or b""))
        samples["tracing_overhead_frac"].append(traced.wall_s / plain.wall_s - 1.0)
    values = {name: statistics.median(s) if s else 0.0 for name, s in samples.items()}
    return values, samples, problems


def machine_metadata() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, check=False)
            sha = done.stdout.strip() or None
        except OSError:
            pass
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.partition(":")[2].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
    }


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def print_table(values, samples, units, attempted: int, failed: int) -> None:
    print(f"{'metric':<44} {'unit':<6} {'n':>5} {'value':>14} {'q1':>14} {'q3':>14}")
    for name, value in values.items():
        s = samples[name]
        q1, q3 = quartiles(s) if s else (0.0, 0.0)
        print(f"{name:<44} {units[name]:<6} {len(s):>5} {value:>14.6g} "
              f"{q1:>14.6g} {q3:>14.6g}")
    print(f"{'error_rate':<44} {'ratio':<6} {attempted:>5} "
          f"{failed / attempted:>14.6g}   ({failed} failed of {attempted})")


def declared_units(spec: dict, key: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in spec[key]}


def run_workload(args, spec: dict) -> int:
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    key = "per_layer" if args.trace else "end_to_end"
    if declared_units(spec, key) != units:
        print(f"error: BENCHMARK.json {key} does not match the metrics this "
              "benchmark measures", file=sys.stderr)
        return 2
    work = WORK / str(os.getpid())
    try:
        runner = Runner(work)
        runner.import_package()  # byte-compiles the package once, untimed
        measure = per_layer if args.trace else end_to_end
        values, samples, problems = measure(runner, args.workload, args.seed,
                                            args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = len(problems)
    failed = sum(1 for p in problems if p)
    for found in problems:
        for problem in found[:5]:
            print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print_table(values, samples, {**units, **WALL_UNITS}, attempted, failed)
    print("meta " + json.dumps(machine_metadata(), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def run_all(args, spec: dict) -> int:
    worst = 0
    for workload in spec["workloads"]:
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"),
             "--workload", workload["name"], "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False)
        worst = max(worst, done.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "paulinoise" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'paulinoise'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload is None:
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
