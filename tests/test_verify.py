"""The batched verification engine against the scalar public API and the
50-digit reference.

Grid 11 puts x = 0, 1/2 and 1 on the grid. The Kraus route arrays must
match full_report point by point, the closed-form and oracle arrays the
mpmath reference (closed_point is closed_batch on floats and the scalar
oracle the batch oracle on Python floats, so neither can serve as a
reference). The report must be exactly the reduction of the route arrays
that the CHECKS rows name, and the gate must fail, naming the row and its
limit, once any row's route drifts by twice its limit or a residual is NaN. At the domain edges every route, and full_report point by point, must
match the reference within 1e-13.
"""

import dataclasses
import itertools
from functools import cache
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import IDENTITY, SIGMA1, reference_values
from paulinoise import (
    BlochVector,
    ValidationError,
    closedform,
    completeness_residual,
    full_report,
    make_one_pauli,
    measures,
    verify,
)
from paulinoise.channels import PauliAxis, retention_grid
from paulinoise.cli import main
from paulinoise.linalg import _pairs
from paulinoise.verify import (
    CHECKS,
    REFERENCE_STATES,
    RESIDUAL_LIMIT,
    axis_routes,
    random_blochs,
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
    """The states run_verification draws, axis by axis, from one stream."""
    stream = random_blochs(seed)
    for axis in PauliAxis:
        states = list(itertools.islice(stream, SAMPLES))
        yield axis, states + [REFERENCE_STATES[axis]]


def test_random_blochs_first_states_are_pinned():
    # exact: every component is a multiple of 2^-52; tests/golden/verify.txt
    # starts from seed 1's states
    first = {seed: list(itertools.islice(random_blochs(seed), 3)) for seed in (0, 1)}
    assert first == {
        0: [(0.6383450267923287, 0.3420872134075783, 0.09940095580394037),
            (0.2766900535846577, -0.31582557318484317, -0.801198088392119),
            (-0.4466198928306846, 0.36834885363031367, -0.6023961767842381)],
        1: [(-0.12558699570788145, -0.4218448090926319, -0.6645310666962698),
            (0.06613813825376291, 0.2885912579452601, 0.8324737123234327),
            (-0.29551683495390835, -0.3693215286471614, -0.0681253318726267)],
    }


def test_random_blochs_every_seed_word_counts():
    # the high words of a seed move the start, so these do not alias
    seeds = (1, 2**64 + 1, 2**128 + 1, 2**300 + 11)
    firsts = {next(random_blochs(seed)) for seed in seeds}
    assert len(firsts) == len(seeds)


def _cell(v):
    """One of 32 cells: the octant times four equal-volume radial shells."""
    octant = (v.a1 >= 0.0) + 2 * (v.a2 >= 0.0) + 4 * (v.a3 >= 0.0)
    return 4 * octant + min(int(4.0 * v.norm**3), 3)


def test_random_blochs_reach_every_cell_within_200_states():
    # the sequence covers the ball evenly: at most 183 states over seeds
    # 0-999, where a pseudo-random stream (numpy's PCG64) needs up to 333
    for seed in range(300):
        cells = {_cell(v) for v in itertools.islice(random_blochs(seed), 200)}
        assert len(cells) == 32, seed


def _scalar_point(axis, x, a):
    """Every route value at one point: the Kraus route from full_report,
    the closed-form and oracle values from the 50-digit reference."""
    rep = full_report(make_one_pauli(axis, x), a)
    ref = reference_values(axis, x, a)
    ak = a[axis - 1]
    predicted = 2.0 * (1.0 - x) * a.a2 * a.a2 if axis is PauliAxis.SIGMA2 else 0.0
    return {
        "kraus.bloch_out": tuple(rep.bloch_out),
        "kraus.lambdas": tuple(rep.lambdas),
        "kraus.thetas": tuple(rep.thetas),
        "kraus.noise_n": rep.noise_n,
        "kraus.coherent_c": rep.coherent_c,
        "kraus.fidelity_numeric": rep.fidelity_numeric,
        "closed.b": ref["bloch_out"],
        "closed.lambdas": ref["lambdas"],
        "closed.thetas": ref["thetas"],
        "closed.noise_n": ref["noise_n"],
        "closed.coherent_c": ref["coherent_c"],
        "closed.fidelity_paper": ref["fidelity_paper"],
        "oracle.noise_n": ref["noise_n"],
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


EDGE_X = [0.0, 1e-9, *(k / 10 for k in range(1, 10)),
          0.5 - 1e-9, 0.5 + 1e-9, 1.0 - 1e-9, 1.0]
EDGE_MAGNITUDES = (0.0, 1e-12, 1e-8, 1e-4)
PURE_STATES = [
    BlochVector(1.0, 0.0, 0.0),
    BlochVector(0.0, -1.0, 0.0),
    BlochVector(0.0, 0.0, 1.0),
    BlochVector(0.6, -0.8, 0.0),
    BlochVector(0.48, 0.6, 0.64),
]
# route array -> reference quantity; of a spectrum the lo entry is compared
EDGE_ROUTES = {
    "kraus.lambdas": "lambdas",
    "closed.lambdas": "lambdas",
    "kraus.thetas": "thetas",
    "closed.thetas": "thetas",
    "kraus.noise_n": "noise_n",
    "closed.noise_n": "noise_n",
    "oracle.noise_n": "noise_n",
    "kraus.coherent_c": "coherent_c",
    "closed.coherent_c": "coherent_c",
    "kraus.fidelity_numeric": "fidelity_numeric",
    "closed.fidelity_paper": "fidelity_paper",
}


def _edge_states():
    """Every combination of the edge magnitudes, signed (+, -, +) and
    (-, +, -), followed by pure states."""
    states = [
        BlochVector(*(sign * m for sign, m in zip(signs, magnitudes)))
        for magnitudes in itertools.product(EDGE_MAGNITUDES, repeat=3)
        for signs in ((1.0, -1.0, 1.0), (-1.0, 1.0, -1.0))
    ]
    return states + PURE_STATES


@cache
def _edge_reference(axis):
    """The reference over EDGE_X x _edge_states(), one row per x."""
    return [[reference_values(axis, x, a) for a in _edge_states()] for x in EDGE_X]


@pytest.mark.parametrize("axis", list(PauliAxis), ids=lambda axis: axis.token)
def test_routes_match_reference_at_domain_edges(axis):
    states = _edge_states()
    routes = axis_routes(axis, EDGE_X, states)
    ref = _edge_reference(axis)
    for route, quantity in EDGE_ROUTES.items():
        have = routes[route]
        want = np.array([[point[quantity] for point in row] for row in ref])
        if have.ndim == 3:
            have, want = have[..., 1], want[..., 1]
        error = np.abs(have - want)
        g, s = np.unravel_index(np.argmax(error), error.shape)
        assert error[g, s] <= ROUTE_TOL, (
            route, EDGE_X[g], states[s], have[g, s], want[g, s],
        )


# ChannelReport fields, named as the reference quantities; of a spectrum the
# lo entry is compared, of bloch_out every component
EDGE_REPORT_FIELDS = ("lambdas", "thetas", "noise_n", "coherent_c",
                      "fidelity_numeric", "fidelity_paper", "bloch_out")


@pytest.mark.parametrize("axis", list(PauliAxis), ids=lambda axis: axis.token)
def test_full_report_matches_reference_at_domain_edges(axis):
    # the scalar Kraus route, which prints every number of analyze and sweep
    for x, row in zip(EDGE_X, _edge_reference(axis)):
        for a, want in zip(_edge_states(), row):
            report = full_report(make_one_pauli(axis, x), a)
            for field in EDGE_REPORT_FIELDS:
                have, ref = np.array(getattr(report, field)), np.array(want[field])
                if field in ("lambdas", "thetas"):
                    have, ref = have[1], ref[1]
                assert np.max(np.abs(have - ref)) <= ROUTE_TOL, (
                    field, x, a, have, ref,
                )


def _loop_reduction(axis, grid, states):
    """The report fields recomputed by a per-point loop: maxima from the
    route arrays, sign counts and gap from the scalar API."""
    routes = axis_routes(axis, grid, states)
    maxima = {}
    for label, (route_a, route_b, _) in CHECKS.items():
        values = [float(u) for u in routes[route_a].ravel()]
        if route_b is not None:
            values = [abs(u - float(v)) for u, v in zip(values, routes[route_b].ravel())]
        maxima[label] = max(values)
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
    axes = run_verification(GRID, SAMPLES, seed)
    assert [av.axis for av in axes] == list(PauliAxis)
    for av, (axis, states) in zip(axes, _axis_states(seed)):
        maxima, counts, (gap_max, gap_predicted) = _loop_reduction(axis, grid, states)
        assert av.residuals == maxima
        for name, value in counts.items():
            assert getattr(av, name) == value, name
        assert av.gap_max == pytest.approx(gap_max, abs=1e-14)
        assert av.gap_predicted_at_max == pytest.approx(gap_predicted, abs=1e-14)
        # C vanishes on the x = 1/2 column only
        assert (av.c_positive, av.c_zero, av.c_negative) == (
            av.points - len(states), len(states), 0,
        )
        assert av.endpoints_c_positive
        assert av.residuals["completeness residual"] <= 1e-13
        assert av.passed


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
        # each entry of a SpectrumPair or BlochVector
        return {**result, key: type(result[key])(*(v + 2e-10 for v in result[key]))}

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


def test_gate_fails_on_a_nan_residual(monkeypatch, capsys):
    # max over the residuals skips a NaN unless it comes first, and "noise"
    # is the fourth residual of every axis
    def with_nan(axis, grid, states):
        routes = axis_routes(axis, grid, states)
        routes["closed.noise_n"][0, 0] = np.nan
        return routes

    monkeypatch.setattr(verify, "axis_routes", with_nan)
    rc = main(["verify", "--grid", "5", "--samples", "3"])
    out = capsys.readouterr().out
    assert rc == 2
    assert out.count("  residual noise              = nan") == 3
    assert "result: FAIL (max cross-path residual nan, limit 1e-10)" in out


def test_incomplete_kraus_stack_fails_the_gate(monkeypatch, capsys):
    # make_one_pauli never builds an incomplete channel, so one is injected:
    # sum_i A_i^dagger A_i = 0.9 I
    ops = (np.sqrt(0.5) * IDENTITY, np.sqrt(0.4) * SIGMA1)
    incomplete = SimpleNamespace(ops=tuple(tuple(_pairs(op.tolist())) for op in ops))
    monkeypatch.setattr(verify, "make_one_pauli", lambda axis, x: incomplete)
    rc = main(["verify", "--grid", str(GRID), "--samples", str(SAMPLES), "--seed", "1"])
    assert rc == 2
    out = capsys.readouterr().out
    assert out.count("  completeness residual       = 1.000e-01") == 3
    assert "result: FAIL" in out


@pytest.mark.parametrize("label", list(CHECKS))
def test_every_check_gates(monkeypatch, capsys, label):
    # route a of one row drifts by twice the row's limit; only that row's
    # lines need the marker, since a shared route fails other rows too
    route_a, _, limit = CHECKS[label]

    def drifted(axis, grid, states):
        routes = axis_routes(axis, grid, states)
        routes[route_a] = routes[route_a] + 2.0 * limit
        return routes

    monkeypatch.setattr(verify, "axis_routes", drifted)
    rc = main(["verify", "--grid", "5", "--samples", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 2
    assert lines[-1].startswith("result: FAIL (max cross-path residual ")
    rows = [line for line in lines if line.startswith(f"  {label:<27} = ")]
    assert len(rows) == 3
    assert all(row.endswith(f"  > limit {limit:g}") for row in rows)


def test_a_completeness_failure_names_its_row_and_limit(monkeypatch, capsys):
    # every cross-path residual passes, so the result line's worst value
    # does too; only the marked row says what failed
    monkeypatch.setattr(verify, "completeness_residual", lambda ch: 2e-13)
    rc = main(["verify", "--grid", "5", "--samples", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 2
    assert [line for line in lines if "> limit" in line] == [
        "  completeness residual       = 2.000e-13  > limit 1e-13"] * 3
    assert lines[-1].startswith("result: FAIL (max cross-path residual ")
    assert lines[-1].endswith(", limit 1e-10)")


def test_completeness_alone_fails_an_axis():
    av = run_verification(3, 1, 1)[0]
    assert av.passed
    residuals = {**av.residuals, "completeness residual": 2e-13}
    assert not dataclasses.replace(av, residuals=residuals).passed


def test_axis_record_is_frozen():
    av = run_verification(3, 1, 1)[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        av.residuals = {}


def test_axis_record_residuals_are_read_only():
    # the gate reads the residuals, so they cannot change once the record is built
    av = run_verification(3, 1, 1)[0]
    with pytest.raises(TypeError):
        av.residuals["residual lambda"] = 5.0
    assert list(av.residuals) == list(CHECKS)
    assert av.passed


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: retention_grid(2.5), "grid must be an integer, got 2.5"),
        (lambda: retention_grid("5"), "grid must be an integer, got '5'"),
        (lambda: retention_grid(np.True_), f"grid must be an integer, got {np.True_!r}"),
        (lambda: run_verification(3.0, 2, 1), "grid must be an integer, got 3.0"),
        (lambda: run_verification(3, 2.0, 1), "samples must be an integer, got 2.0"),
        (lambda: run_verification(3, np.True_, 1),
         f"samples must be an integer, got {np.True_!r}"),
        (lambda: run_verification(3, 2, 1.5), "seed must be an integer, got 1.5"),
        (lambda: run_verification(3, 2, True), "seed must be an integer, got True"),
        (lambda: retention_grid(1), "grid must be >= 2, got 1"),
        (lambda: run_verification(3, 0, 1), "samples must be >= 1, got 0"),
        (lambda: run_verification(3, 2, -1), "seed must be >= 0, got -1"),
    ],
    ids=["grid-float", "grid-str", "grid-numpy-bool", "verify-grid", "samples",
         "samples-numpy-bool", "seed", "seed-bool",
         "grid-range", "samples-range", "seed-range"],
)
def test_integer_arguments_are_validated(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message


def test_integer_arguments_accept_numpy_integers():
    assert retention_grid(np.int64(3)) == [0.0, 0.5, 1.0]
    axes = run_verification(np.int64(2), np.int32(1), np.uint8(1))
    assert [(av.points, av.reference_points) for av in axes] == [(4, 2)] * 3
