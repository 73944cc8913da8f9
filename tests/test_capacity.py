"""The paper's capacity bound on every route's coherent information.

Each one-Pauli channel is unitarily equivalent to dephasing, which is
degradable, so its quantum capacity is the single-letter maximum of the
coherent information C over input states: Q(x) = 1 - h2(x), reached by
the maximally mixed input a = 0. No route may exceed it, and at a = 0 each
must reach it. Q is computed here in 50-digit arithmetic from x alone.
"""

import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import axes, bloch_vectors, retentions
from paulinoise import (
    closed_point,
    environment_entropy_oracle,
    full_report,
    make_one_pauli,
)

TOL = 1e-13

# x at and near the endpoints and the resonance x = 1/2
EDGE_RATES = [0.0, 1e-300, 1e-12, 1e-9, 0.5 - 1e-9, 0.5, 0.5 + 1e-9,
              1.0 - 1e-9, 1.0 - 1e-12, 1.0]


def rates():
    return st.one_of(st.sampled_from(EDGE_RATES), retentions())


def capacity(x: float) -> float:
    """1 - h2(x), with 0 log 0 = 0."""
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        h2 = -sum(p * mpmath.log(p, 2) for p in (x, 1 - x) if p > 0)
        return float(1 - h2)


def route_coherent_information(axis, x, a) -> dict[str, float]:
    """C by the Kraus route, the closed forms and the dilation oracle."""
    ch = make_one_pauli(axis, x)
    report = full_report(ch, a)
    return {
        "kraus": report.coherent_c,
        "closed": closed_point(axis, x, a).coherent_c,
        "oracle": report.h_out - environment_entropy_oracle(ch, a),
    }


@settings(max_examples=300, deadline=None)
@given(axes(), rates(), bloch_vectors())
def test_coherent_information_never_exceeds_capacity(axis, x, a):
    q = capacity(x)
    for route, c in route_coherent_information(axis, x, a).items():
        assert c <= q + TOL, (route, c, q)


@settings(max_examples=100, deadline=None)
@given(axes(), rates())
def test_maximally_mixed_input_reaches_capacity(axis, x):
    q = capacity(x)
    for route, c in route_coherent_information(axis, x, (0.0, 0.0, 0.0)).items():
        assert abs(c - q) <= TOL, (route, c, q)
