"""The package's public names, its read-only records, and the functions the
benchmark hooks.

bench/tracer.py wraps the functions named in its TRACED table by module and
name, so renaming or deleting one of them would break the benchmark
without failing any other test.
"""

import importlib

import pytest

import paulinoise
from helpers import tracer
from paulinoise import KrausChannel, closed_point, full_report
from paulinoise.verify import run_verification

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


def _records():
    """One of each record type the package returns, by name; BlochVector and
    SpectrumPair are plain named tuples."""
    ch = KrausChannel(2, 0.3)
    return {
        "KrausChannel": ch,
        "ChannelReport": full_report(ch, (0.6, 0.5, 0.6)),
        "ClosedFormPoint": closed_point(2, 0.3, (0.6, 0.5, 0.6)),
        "AxisVerification": run_verification(3, 1, 1)[1],
    }


@pytest.mark.parametrize(
    "name", ["KrausChannel", "ChannelReport", "ClosedFormPoint", "AxisVerification"])
def test_records_are_read_only(name):
    record = _records()[name]
    fields = getattr(record, "_fields", KrausChannel.__slots__)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.new_attribute = 0


@pytest.mark.parametrize("module, function", tracer().TRACED)
def test_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"paulinoise.{module}"), function))
