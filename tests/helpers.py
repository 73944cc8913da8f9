"""Shared hypothesis strategies, the benchmark modules the tests read (the
50-digit reference and the tracer) and test-only matrix checks."""

import importlib.util
from functools import cache
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from paulinoise import BlochVector, PauliAxis
from paulinoise.linalg import _eigenvalues, _pairs, as_matrix

_component = st.floats(
    min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False
)


def bloch_vectors():
    """Bloch vectors inside the unit ball."""
    return (
        st.tuples(_component, _component, _component)
        .filter(lambda v: v[0] ** 2 + v[1] ** 2 + v[2] ** 2 <= 1.0)
        .map(lambda v: BlochVector(*v))
    )


def retentions():
    """Retention rates in [0, 1], endpoints included."""
    return st.floats(
        min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
    )


def axes():
    return st.sampled_from(list(PauliAxis))


BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def _load_bench(name: str):
    """bench/<name>.py loaded in place from its path, without the bench
    directory on sys.path."""
    spec = importlib.util.spec_from_file_location(
        f"paulinoise_bench_{name}", BENCH_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@cache
def reference():
    """The benchmark's 50-digit mpmath recomputation of every reported
    quantity (bench/reference.py)."""
    return _load_bench("reference")


@cache
def tracer():
    """The benchmark's span tracer (bench/tracer.py), whose TRACED names
    the package functions it hooks."""
    return _load_bench("tracer")


def hermiticity_residual(m) -> float:
    """Largest absolute entry of m - m^dagger; 0 for Hermitian input."""
    m = as_matrix(m)
    return float(np.abs(m - m.conj().T).max())


def hermitian_eigenvalues_batch(m) -> np.ndarray:
    """The eigenvalue kernel over a complex stack (..., 2, 2): spectra (..., 2)."""
    return _eigenvalues(_pairs(np.moveaxis(m, (-2, -1), (0, 1))))


def matrix_of(pairs) -> np.ndarray:
    """The complex 2x2 matrix of four row-major (re, im) pairs, the form in
    which the Kraus contraction returns the output state and W."""
    return np.array([complex(re, im) for re, im in pairs]).reshape(2, 2)


def reference_values(axis, x, a) -> dict:
    """The reference at one point as doubles, keyed by the route-array
    quantity names; the spectra are (hi, lo) pairs."""
    ref = reference().point(int(axis), x, a)
    values = {name: float(ref[name]) for name in (
        "noise_n", "coherent_c", "fidelity_numeric", "fidelity_paper")}
    values["bloch_out"] = tuple(float(c) for c in ref["bloch_out"])
    values["lambdas"] = (float(ref["lambda_hi"]), float(ref["lambda_lo"]))
    values["thetas"] = (float(ref["theta_hi"]), float(ref["theta_lo"]))
    return values
