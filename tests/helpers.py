"""Shared hypothesis strategies and the 50-digit reference for the test suite."""

import importlib.util
from functools import cache
from pathlib import Path

from hypothesis import strategies as st

from paulinoise import BlochVector, PauliAxis

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


REFERENCE_PATH = Path(__file__).resolve().parent.parent / "bench" / "reference.py"


@cache
def reference():
    """The benchmark's 50-digit mpmath recomputation of every reported
    quantity (bench/reference.py), loaded in place from its path."""
    spec = importlib.util.spec_from_file_location("paulinoise_reference", REFERENCE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
