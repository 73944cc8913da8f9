"""The batched verification engine against the scalar public API.

Grid 11 puts x = 0, 1/2 and 1 on the grid. Each route array must match the
per-point scalar functions, the report must be exactly the reduction of the
route arrays, and the gate must fail once one route drifts by 2e-10.
"""

import numpy as np
import pytest

from paulinoise import (
    BlochVector,
    bloch_to_density,
    closed_point,
    closedform,
    completeness_residual,
    environment_entropy_oracle,
    full_report,
    make_one_pauli,
    measures,
)
from paulinoise.channels import PauliAxis, retention_grid
from paulinoise.cli import main
from paulinoise.verify import (
    REFERENCE_STATES,
    RESIDUAL_LIMIT,
    RESIDUAL_ROUTES,
    axis_routes,
    random_bloch,
    run_verification,
)

GRID = 11
SAMPLES = 6
SEEDS = (1, 2)
ROUTE_TOL = 1e-13

# maximally mixed (degenerate spectrum), pure, and tiny components
EDGE_STATES = [
    BlochVector(0.0, 0.0, 0.0),
    BlochVector(0.0, 0.0, 1.0),
    BlochVector(-1.0, 0.0, 0.0),
    BlochVector(0.6, -0.8, 0.0),
    BlochVector(1e-12, -1e-8, 1e-4),
]


def _axis_states(seed):
    """The states run_verification draws, axis by axis."""
    rng = np.random.default_rng(seed)
    for axis in PauliAxis:
        states = [random_bloch(rng) for _ in range(SAMPLES)]
        yield axis, states + [REFERENCE_STATES[axis]]


def _scalar_point(axis, x, a):
    """Every route value at one point, from the scalar public API."""
    ch = make_one_pauli(axis, x)
    rho = bloch_to_density(a)
    rep = full_report(ch, rho)
    point = closed_point(axis, x, a)
    ak = a[axis - 1]
    predicted = 2.0 * (1.0 - x) * a.a2 * a.a2 if axis is PauliAxis.SIGMA2 else 0.0
    return {
        "kraus.bloch_out": tuple(rep.bloch_out),
        "kraus.lambdas": tuple(rep.lambdas),
        "kraus.thetas": tuple(rep.thetas),
        "kraus.noise_n": rep.noise_n,
        "kraus.coherent_c": rep.coherent_c,
        "kraus.fidelity_numeric": rep.fidelity_numeric,
        "closed.bloch_out": tuple(point.b),
        "closed.lambdas": tuple(point.lambdas),
        "closed.thetas": tuple(point.thetas),
        "closed.noise_n": point.noise_n,
        "closed.coherent_c": point.coherent_c,
        "closed.fidelity_paper": point.fidelity_paper,
        "oracle.noise_n": environment_entropy_oracle(ch, rho),
        "identity.fidelity": x + (1.0 - x) * ak * ak,
        "identity.fidelity_gap": predicted,
        "fidelity_gap": rep.fidelity_numeric - rep.fidelity_paper,
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_route_arrays_match_scalar_api(seed):
    grid = retention_grid(GRID)
    for axis, states in _axis_states(seed):
        states = states + EDGE_STATES
        routes = axis_routes(axis, grid, states)
        for g, x in enumerate(grid):
            assert routes["completeness"][g] == completeness_residual(
                make_one_pauli(axis, x)
            )
            for s, a in enumerate(states):
                for name, want in _scalar_point(axis, x, a).items():
                    have = routes[name][g, s]
                    assert np.max(np.abs(have - np.array(want))) <= ROUTE_TOL, (
                        axis, x, a, name, have, want,
                    )


def _loop_reduction(axis, grid, states):
    """The report fields recomputed by a per-point loop: maxima from the
    route arrays, sign counts and gap from the scalar API."""
    routes = axis_routes(axis, grid, states)
    maxima = {}
    for name, (route_a, route_b) in RESIDUAL_ROUTES.items():
        worst = 0.0
        for u, v in zip(routes[route_a].ravel(), routes[route_b].ravel()):
            worst = max(worst, abs(float(u) - float(v)))
        maxima[name] = worst
    counts = {"c_positive": 0, "c_zero": 0, "c_negative": 0, "points": 0,
              "c_positive_reference": 0, "reference_points": 0}
    gap_max, gap_predicted = 0.0, 0.0
    for g, x in enumerate(grid):
        for s, a in enumerate(states):
            point = _scalar_point(axis, x, a)
            c = point["kraus.coherent_c"]
            counts["points"] += 1
            counts["c_positive"] += c > RESIDUAL_LIMIT
            counts["c_zero"] += abs(c) <= RESIDUAL_LIMIT
            counts["c_negative"] += c < -RESIDUAL_LIMIT
            if s == len(states) - 1:
                counts["reference_points"] += 1
                counts["c_positive_reference"] += c > RESIDUAL_LIMIT
            if point["fidelity_gap"] > gap_max:
                gap_max = point["fidelity_gap"]
                gap_predicted = point["identity.fidelity_gap"]
    return maxima, counts, (gap_max, gap_predicted)


@pytest.mark.parametrize("seed", SEEDS)
def test_report_equals_per_point_reduction(seed):
    grid = retention_grid(GRID)
    report = run_verification(GRID, SAMPLES, seed)
    for axis, states in _axis_states(seed):
        av = report.axis(axis)
        maxima, counts, (gap_max, gap_predicted) = _loop_reduction(axis, grid, states)
        for name, value in maxima.items():
            assert getattr(av, name) == value, name
        for name, value in counts.items():
            assert getattr(av, name) == value, name
        assert av.gap_max == pytest.approx(gap_max, abs=1e-14)
        assert av.gap_predicted_at_max == pytest.approx(gap_predicted, abs=1e-14)
        # C vanishes on the x = 1/2 column only
        assert (av.c_positive, av.c_zero, av.c_negative) == (
            av.points - len(states), len(states), 0,
        )
        assert av.endpoints_c_positive
        assert av.completeness_max <= 1e-13
    assert report.passed


def test_verify_prints_sign_count_line(capsys):
    rc = main(["verify", "--grid", str(GRID), "--samples", str(SAMPLES), "--seed", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    states = SAMPLES + 1
    points = GRID * states
    expected = [
        f"  C>0 points = {points - states} of {points}",
        f"  |C|<=1e-10 points = {states}; C<-1e-10 points = 0",
        "  C>0 points (reference input) = 10 of 11; endpoints C>0: yes",
    ]
    for line in expected:
        assert lines.count(line) == 3


def _shifted(fn, key=None):
    def wrapper(*args):
        result = fn(*args)
        if key is None:
            return result + 2e-10
        return {**result, key: result[key] + 2e-10}

    return wrapper


@pytest.mark.parametrize(
    "module, name, key",
    [
        (closedform, "closed_batch", "lambdas"),
        (measures, "environment_entropy_oracle_batch", None),
    ],
    ids=["closed-lambda", "oracle"],
)
def test_gate_fails_on_route_drift(monkeypatch, capsys, module, name, key):
    monkeypatch.setattr(module, name, _shifted(getattr(module, name), key))
    rc = main(["verify", "--grid", str(GRID), "--samples", str(SAMPLES), "--seed", "1"])
    assert rc == 2
    assert "result: FAIL" in capsys.readouterr().out
