"""The package's public names, and the functions the benchmark hooks.

bench/tracer.py wraps the functions named in its TRACED table by module and
name, so renaming or deleting one of them would break the benchmark
without failing any other test.
"""

import importlib

import pytest

import paulinoise
from helpers import tracer

PUBLIC_NAMES = [
    "BlochVector",
    "ChannelReport",
    "ClosedFormPoint",
    "KrausChannel",
    "NumericError",
    "PauliAxis",
    "SpectrumPair",
    "ValidationError",
    "bloch_to_density",
    "check_bloch",
    "check_density",
    "check_retention",
    "closed_point",
    "completeness_residual",
    "environment_entropy_oracle",
    "fidelity_paper_closed",
    "full_report",
    "hermitian_eigenvalues_2x2",
    "make_one_pauli",
    "parse_bloch",
    "spectrum_entropy",
]


def test_public_names_are_exactly_the_entry_points():
    assert paulinoise.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(paulinoise, name), name


@pytest.mark.parametrize("module, function", tracer().TRACED)
def test_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"paulinoise.{module}"), function))
