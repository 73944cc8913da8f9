"""Span tracing of the paulinoise layers, from outside the package.

Run as a script, this is a drop-in for the `paulinoise` console command
that records a span around every call of the functions in TRACED:

    PYTHONPATH=src python3 bench/tracer.py --spans spans.json -- analyze ...

It times `import numpy` and `import paulinoise.cli`, wraps each traced
function, and rebinds the wrapper under every name a `paulinoise` module
holds the original by (so `from .linalg import spectrum_entropy` inside
measures is caught as well), then runs the CLI. Spans stay in memory and
are written once, when the command has finished. Stdout and written files
are byte-identical to an untraced run.

`summarize` turns a spans file into call counts, inclusive time per
function and self time per layer (a span's duration minus the time its
child spans cover).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (module, function); the module is the layer a span is charged to.
# cli.main is the root span of each run, so time spent in argument
# parsing and printing lands in the cli layer. fidelity_paper_closed is the
# closedform call that full_report makes on every point.
TRACED = (
    ("cli", "main"),
    ("cli", "run_verification"),
    ("cli", "sweep_reports"),
    ("cli", "write_sweep_csv"),
    ("measures", "full_report"),
    ("measures", "environment_entropy_oracle"),
    ("closedform", "closed_point"),
    ("closedform", "fidelity_paper_closed"),
    ("channels", "make_one_pauli"),
    ("channels", "completeness_residual"),
    ("bloch", "bloch_to_density"),
    ("bloch", "check_density"),
    ("linalg", "hermitian_eigenvalues_2x2"),
    ("linalg", "spectrum_entropy"),
)
LAYERS = ("linalg", "bloch", "channels", "closedform", "measures", "cli")


class Tracer:
    """Keeps spans as (name index, parent span index or -1, start ns,
    end ns), indexed by start order."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, open_spans, clock = self.spans, self._open, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(spans)
            parent = open_spans[-1] if open_spans else -1
            spans.append(None)
            open_spans.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[span] = (index, parent, start, clock())
                open_spans.pop()

        return traced

    def install(self, modules: dict) -> dict:
        """Wrap every TRACED function and rebind it in all `modules`
        (name -> module); returns the wrappers by qualified name."""
        wrappers = {}
        for module, fn in TRACED:
            original = getattr(modules[f"paulinoise.{module}"], fn)
            wrapper = self.wrap(f"{module}.{fn}", original)
            wrappers[f"{module}.{fn}"] = wrapper
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        return wrappers


def summarize(doc: dict) -> tuple[Counter, Counter, Counter]:
    """(calls per function, inclusive ns per function, self ns per layer)."""
    names, spans = doc["names"], doc["spans"]
    child_ns = [0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls, inclusive, self_ns = Counter(), Counter(), Counter()
    for span, (index, _, start, end) in enumerate(spans):
        name = names[index]
        calls[name] += 1
        inclusive[name] += end - start
        self_ns[name.partition(".")[0]] += end - start - child_ns[span]
    return calls, inclusive, self_ns


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracer.py --spans FILE -- CLI-ARGS...", file=sys.stderr)
        return 1
    path, cli_args = argv[1], argv[3:]
    # Imported here, not at the top, so each import is timed on its own.
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    t1 = time.perf_counter()
    import paulinoise.cli
    t2 = time.perf_counter()
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "paulinoise" or name.startswith("paulinoise.")}
    tracer = Tracer()
    wrappers = tracer.install(modules)
    try:
        return wrappers["cli.main"](cli_args)
    finally:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"import_numpy_s": t1 - t0, "import_paulinoise_s": t2 - t1,
                       "names": tracer.names, "spans": tracer.spans}, fh,
                      separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
