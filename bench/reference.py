"""Output checks for the benchmark, against references of its own.

Every quantity is recomputed here in 50-digit mpmath arithmetic from the
mathematical definitions (output Bloch vector, spectra of the exchange
matrix W and of the output state, their binary entropies, the trace-form
fidelity and the printed closed-form fidelity). Nothing is imported from
the package, so an error in the package cannot hide in its own check.

Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import mpmath

mpmath.mp.dps = 50

RESIDUAL_LIMIT = 1e-10  # the verify gate, reused as the value tolerance
X_TOLERANCE = 1e-12  # x is printed with 12 significant digits and x <= 1

CSV_HEADER = "x,N,C,F_numeric,F_paper,H_out,lambda_hi,theta_hi,b1,b2,b3"
ANALYZE_FIELDS = (
    "x", "bloch_in", "bloch_out", "h_in", "h_out", "noise_n", "coherent_c",
    "fidelity_numeric", "fidelity_paper", "lambda_hi", "lambda_lo",
    "theta_hi", "theta_lo", "mutual_info",
)
VERIFY_RESIDUALS = (
    "bloch_out", "lambda", "theta", "noise", "coherent", "oracle_vs_w",
    "fidelity_identity", "fidelity_closed",
)


def _binary_entropy(hi):
    """Entropy in bits of the spectrum (hi, 1 - hi), 0 log 0 = 0. Inputs a
    rounding step outside [0, 1] (pure states given as floats) clamp."""
    total = mpmath.mpf(0)
    for p in (hi, 1 - hi):
        if p > 0:
            total -= p * mpmath.log(p, 2)
    return total


def point(axis: int, x: float, a) -> dict:
    """Every reported quantity at (axis, x, a), keyed by analyze field name.

    W = [[x, c], [conj(c), 1 - x]] with |c|^2 = x (1 - x) a_k^2, so its
    eigenvalues are (1 +- sqrt((2x - 1)^2 + 4x(1 - x) a_k^2)) / 2. The
    output Bloch vector keeps a_k and scales the other components by
    2x - 1; its length r gives the output spectrum (1 +- r) / 2.
    """
    x = mpmath.mpf(x)
    a = [mpmath.mpf(c) for c in a]
    ak = a[axis - 1]
    b = [c if k == axis - 1 else (2 * x - 1) * c for k, c in enumerate(a)]
    r_in = mpmath.sqrt(sum(c * c for c in a))
    r_out = mpmath.sqrt(sum(c * c for c in b))
    r_w = mpmath.sqrt((2 * x - 1) ** 2 + 4 * x * (1 - x) * ak * ak)
    lambda_hi, theta_hi = (1 + r_w) / 2, (1 + r_out) / 2
    h_in = _binary_entropy((1 + r_in) / 2)
    h_out = _binary_entropy(theta_hi)
    noise = _binary_entropy(lambda_hi)
    # The published axis-2 closed form carries a minus sign; F_paper
    # reproduces it as printed.
    sign = -1 if axis == 2 else 1
    return {
        "x": x,
        "bloch_in": a,
        "bloch_out": b,
        "h_in": h_in,
        "h_out": h_out,
        "noise_n": noise,
        "coherent_c": h_out - noise,
        "fidelity_numeric": x + (1 - x) * ak * ak,
        "fidelity_paper": sign * ak * ak * (1 - x) + x,
        "lambda_hi": lambda_hi,
        "lambda_lo": 1 - lambda_hi,
        "theta_hi": theta_hi,
        "theta_lo": 1 - theta_hi,
        "mutual_info": h_in + h_out - noise,
    }


def _compare(label: str, printed: str, expected, tolerance: float) -> list[str]:
    try:
        value = float(printed)
    except ValueError:
        return [f"{label}: not a number: {printed!r}"]
    if not abs(value - expected) <= tolerance:
        return [f"{label}: printed {printed}, "
                f"reference {mpmath.nstr(mpmath.mpf(expected), 17)}"]
    return []


def _compare_field(label: str, printed: str, expected, tolerance: float) -> list[str]:
    if isinstance(expected, list):
        parts = printed.split(",")
        if len(parts) != len(expected):
            return [f"{label}: expected {len(expected)} components, got {printed!r}"]
        problems = []
        for part, ref in zip(parts, expected):
            problems += _compare(label, part, ref, tolerance)
        return problems
    return _compare(label, printed, expected, tolerance)


def check_analyze(axis: int, x: float, a, returncode: int, stdout: bytes,
                  csv: bytes | None) -> list[str]:
    """Every analyze field, in order, against the mpmath reference."""
    if returncode != 0:
        return [f"analyze exited with {returncode}"]
    ref = point(axis, x, a)
    lines = stdout.decode("ascii", "replace").splitlines()
    names = [line.partition(" = ")[0] for line in lines]
    if names != list(ANALYZE_FIELDS):
        return [f"analyze fields {names}, expected {list(ANALYZE_FIELDS)}"]
    problems = []
    for line, name in zip(lines, ANALYZE_FIELDS):
        tolerance = X_TOLERANCE if name == "x" else RESIDUAL_LIMIT
        problems += _compare_field(f"analyze {name}", line.partition(" = ")[2],
                                   ref[name], tolerance)
    return problems


# Sweep CSV columns and the reference field each one carries.
_SWEEP_COLUMNS = (
    ("x", None), ("N", "noise_n"), ("C", "coherent_c"),
    ("F_numeric", "fidelity_numeric"), ("F_paper", "fidelity_paper"),
    ("H_out", "h_out"), ("lambda_hi", "lambda_hi"), ("theta_hi", "theta_hi"),
    ("b1", 0), ("b2", 1), ("b3", 2),
)


def check_sweep(axis: int, a, steps: int, sampled_rows, returncode: int,
                stdout: bytes, csv: bytes | None) -> list[str]:
    """Exact header, row count and x column; the sampled rows against the
    mpmath reference."""
    if returncode != 0:
        return [f"sweep exited with {returncode}"]
    if csv is None:
        return ["sweep wrote no CSV"]
    text = csv.decode("ascii", "replace")
    if not text.endswith("\n"):
        return ["sweep CSV does not end with a newline"]
    lines = text[:-1].split("\n")
    if lines[0] != CSV_HEADER:
        return [f"sweep header {lines[0]!r}"]
    rows = lines[1:]
    if len(rows) != steps:
        return [f"sweep wrote {len(rows)} rows, expected {steps}"]
    problems = []
    for i, row in enumerate(rows):
        x = row.partition(",")[0]
        problems += _compare(f"sweep row {i} x", x, i / (steps - 1), X_TOLERANCE)
    for i in sampled_rows:
        cells = rows[i].split(",")
        if len(cells) != len(_SWEEP_COLUMNS):
            problems.append(f"sweep row {i} has {len(cells)} columns")
            continue
        ref = point(axis, i / (steps - 1), a)
        for cell, (column, key) in zip(cells[1:], _SWEEP_COLUMNS[1:]):
            expected = ref["bloch_out"][key] if isinstance(key, int) else ref[key]
            problems += _compare(f"sweep row {i} {column}", cell, expected,
                                 RESIDUAL_LIMIT)
    return problems


def check_verify(grid: int, samples: int, seed: int, returncode: int,
                 stdout: bytes, csv: bytes | None) -> list[str]:
    """Exit code 0, the echoed settings, every printed residual at or below
    the limit, full point counts per axis, and the PASS line."""
    if returncode != 0:
        return [f"verify exited with {returncode}"]
    lines = stdout.decode("ascii", "replace").splitlines()
    if not lines:
        return ["verify printed nothing"]
    problems = []
    header = f"grid = {grid}, samples = {samples}, seed = {seed}"
    if lines[0] != header:
        problems.append(f"verify header {lines[0]!r}, expected {header!r}")
    residuals = []
    counts = []
    gaps = {}
    for line in lines:
        name, _, value = line.strip().partition(" = ")
        name = name.rstrip()
        if name.startswith("residual ") or name.startswith("completeness residual"):
            residuals.append((name, value))
        elif name == "C>0 points":
            counts.append(value)
        elif name.startswith("fidelity gap"):
            gaps[name.split()[2]] = value
    expected = 3 * (len(VERIFY_RESIDUALS) + 1)
    if len(residuals) != expected:
        problems.append(f"verify printed {len(residuals)} residuals, expected {expected}")
    for name, value in residuals:
        problems += _compare(f"verify {name}", value, 0, RESIDUAL_LIMIT)
    points = grid * (samples + 1)
    if len(counts) != 3 or any(not c.endswith(f" of {points}") for c in counts):
        problems.append(f"verify C>0 counts {counts}, expected 3 of {points} points")
    if set(gaps) != {"max", "predicted"}:
        problems.append("verify did not print the axis-2 fidelity gap")
    else:
        problems += _compare("verify fidelity gap", gaps["max"],
                             mpmath.mpf(gaps["predicted"]), RESIDUAL_LIMIT)
    if not lines[-1].startswith("result: PASS "):
        problems.append(f"verify verdict {lines[-1]!r}")
    return problems
