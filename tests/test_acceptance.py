"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute. The heavyweight cross-validation (3 axes x 101 grid
points x 101 states) runs once as a module fixture and once through the
command-line entry point.
"""

import io
import itertools
import math
from contextlib import redirect_stdout

import numpy as np
import pytest

from helpers import hermiticity_residual, matrix_of
from paulinoise import bloch_to_density, make_one_pauli
from paulinoise.bloch import BlochVector
from paulinoise.channels import PauliAxis
from paulinoise.cli import (
    CSV_HEADER,
    REFERENCE_STATES,
    main,
    retention_grid,
    run_verification,
    sweep_reports,
    write_sweep_csv,
)
from paulinoise.linalg import _pairs, hermitian_eigenvalues_2x2
from paulinoise.measures import _kraus_contraction, full_report
from paulinoise.verify import random_blochs

GRID = 101
SAMPLES = 100
SEED = 1

# binary entropy of (1 + sqrt(0.97))/2, evaluated with 50-digit arithmetic;
# the input entropy of every reference state
H_REF = 0.06412343509793366


@pytest.fixture(scope="module")
def verification():
    return run_verification(GRID, SAMPLES, SEED)


@pytest.fixture(scope="module")
def cli_verify():
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        rc = main([
            "verify", "--grid", str(GRID), "--samples", str(SAMPLES),
            "--seed", str(SEED),
        ])
    return rc, buffer.getvalue()


def _record(number: int, ok: bool, detail: str) -> bool:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_cross_path_equivalence(verification, cli_verify):
    names = ("bloch_out", "lambda", "theta", "noise", "coherent")
    worst = max(
        av.residuals[f"residual {name}"] for av in verification for name in names
    )
    rc, _ = cli_verify
    ok = worst <= 1e-10 and rc == 0
    assert _record(
        1, ok,
        f"closed-form vs Kraus-path residuals (b, lambda, theta, N, C) max "
        f"{worst:.3e} <= 1e-10 over {GRID} grid x {SAMPLES} seeded states, "
        f"verify exit code {rc}",
    )


def test_criterion_2_dilation_oracle(verification):
    worst = max(av.residuals["residual oracle_vs_w"] for av in verification)
    ok = worst <= 1e-10
    assert _record(
        2, ok,
        f"entropy exchange vs environment-dilation oracle residual max "
        f"{worst:.3e} <= 1e-10 with no shared code path",
    )


def test_criterion_3_completeness_and_state_validity(verification):
    worst_completeness = max(av.residuals["completeness residual"] for av in verification)
    worst_herm = 0.0
    worst_trace = 0.0
    lowest_eigenvalue = 1.0
    for axis, bloch in REFERENCE_STATES.items():
        rho = bloch_to_density(bloch)
        for x in retention_grid(GRID):
            out = matrix_of(_kraus_contraction(make_one_pauli(axis, x).ops, _pairs(rho))[0])
            worst_herm = max(worst_herm, hermiticity_residual(out))
            worst_trace = max(worst_trace, abs(np.trace(out).real - 1.0))
            lowest_eigenvalue = min(
                lowest_eigenvalue, hermitian_eigenvalues_2x2(out).lo
            )
    ok = (
        worst_completeness <= 1e-13
        and worst_herm <= 1e-12
        and worst_trace <= 1e-12
        and lowest_eigenvalue >= -1e-12
    )
    assert _record(
        3, ok,
        f"completeness residual max {worst_completeness:.3e} <= 1e-13; "
        f"outputs Hermitian (max {worst_herm:.3e}), unit trace "
        f"(max dev {worst_trace:.3e}), PSD (min eig {lowest_eigenvalue:.3e})",
    )


def test_criterion_4_spot_values():
    bloch = BlochVector(0.5, 0.6, 0.6)
    zero, half, one = (full_report(make_one_pauli(1, x), bloch) for x in (0.0, 0.5, 1.0))
    n_half = half.noise_n
    c_half, c_zero, c_one = half.coherent_c, zero.coherent_c, one.coherent_c
    f_zero, f_half = zero.fidelity_numeric, half.fidelity_numeric
    ok = (
        abs(n_half - 0.811278) <= 1e-6
        and abs(c_half) <= 1e-9
        and abs(c_one - H_REF) <= 1e-6
        and abs(c_zero - H_REF) <= 1e-6
        and abs(c_one - c_zero) <= 1e-12
        and abs(f_zero - 0.25) <= 1e-12
        and abs(f_half - 0.625) <= 1e-12
    )
    assert _record(
        4, ok,
        f"sigma1 at a=(0.5,0.6,0.6): N(1/2)={n_half:.6f} (0.811278 +- 1e-6), "
        f"C(1/2)={c_half:.1e} (0 +- 1e-9), C(0)=C(1)={c_one:.7f} "
        f"({H_REF:.7f} +- 1e-6), F(0)={f_zero} (0.25 +- 1e-12), "
        f"F(1/2)={f_half:.3f} (0.625 +- 1e-12)",
    )


def test_criterion_5_symmetries():
    states = list(itertools.islice(random_blochs(5), 20))
    grid = retention_grid(41)

    worst_reflection = 0.0
    for axis in PauliAxis:
        for a in states + [REFERENCE_STATES[axis]]:
            for x in grid:
                direct = full_report(make_one_pauli(axis, x), a)
                mirrored = full_report(make_one_pauli(axis, 1.0 - x), a)
                worst_reflection = max(
                    worst_reflection,
                    abs(direct.noise_n - mirrored.noise_n),
                    abs(direct.h_out - mirrored.h_out),
                    abs(direct.coherent_c - mirrored.coherent_c),
                )

    worst_permutation = 0.0
    for k in PauliAxis:
        for kp in PauliAxis:
            if k == kp:
                continue
            for a in states:
                swapped = list(a)
                swapped[k - 1], swapped[kp - 1] = swapped[kp - 1], swapped[k - 1]
                for x in (0.0, 0.15, 0.5, 0.85, 1.0):
                    rep = full_report(make_one_pauli(k, x), a)
                    rep_image = full_report(make_one_pauli(kp, x), swapped)
                    worst_permutation = max(
                        worst_permutation,
                        abs(rep.noise_n - rep_image.noise_n),
                        abs(rep.coherent_c - rep_image.coherent_c),
                    )

    ok = worst_reflection <= 1e-12 and worst_permutation <= 1e-12
    assert _record(
        5, ok,
        f"N, H_out, C invariant under x -> 1-x (max dev "
        f"{worst_reflection:.3e} <= 1e-12); axis-permutation equivalence of "
        f"N and C (max dev {worst_permutation:.3e} <= 1e-12)",
    )


def test_criterion_6_sigma2_fidelity_discrepancy(verification, cli_verify, tmp_path):
    sigma2 = verification[PauliAxis.SIGMA2 - 1]
    identity_residual = sigma2.residuals["residual fidelity_closed"]

    path = tmp_path / "sigma2.csv"
    reports = sweep_reports(
        PauliAxis.SIGMA2, REFERENCE_STATES[PauliAxis.SIGMA2], retention_grid(11)
    )
    write_sweep_csv(reports, str(path), 12)
    lines = path.read_text().splitlines()
    columns = lines[0].split(",")
    has_columns = "F_numeric" in columns and "F_paper" in columns
    i_num, i_pap, i_x = (
        columns.index("F_numeric"), columns.index("F_paper"),
        columns.index("x"),
    )
    a2 = REFERENCE_STATES[PauliAxis.SIGMA2].a2
    worst_row = 0.0
    for line in lines[1:]:
        cells = line.split(",")
        x = float(cells[i_x])
        gap = float(cells[i_num]) - float(cells[i_pap])
        worst_row = max(worst_row, abs(gap - 2.0 * (1.0 - x) * a2 * a2))

    _, verify_text = cli_verify
    documented = (
        "fidelity gap max" in verify_text
        and "fidelity gap predicted" in verify_text
    )
    ok = (
        identity_residual <= 1e-12
        and has_columns
        and worst_row <= 2e-12  # one printing round-trip on each column
        and documented
    )
    assert _record(
        6, ok,
        f"F_numeric - F_paper == 2(1-x)a2^2 within 1e-12 across the grid "
        f"(max dev {identity_residual:.3e}); both CSV columns present; "
        f"divergence documented in the verify report",
    )


def test_criterion_7_coherent_information_sign_counts(verification):
    counts = {
        av.axis.token: (av.c_positive_reference, av.reference_points)
        for av in verification
    }
    ok = all(
        av.c_positive_reference > 0 and av.endpoints_c_positive
        for av in verification
    )
    assert _record(
        7, ok,
        f"C > 0 grid points reported per axis for the reference inputs, "
        f"endpoints included: {counts}",
    )


def test_criterion_8_sweep_curves(tmp_path):
    ok = True
    details = []
    for axis, bloch in REFERENCE_STATES.items():
        path = tmp_path / f"{axis.token}.csv"
        rc = main([
            "sweep", "--channel", axis.token,
            "--bloch", f"{bloch.a1},{bloch.a2},{bloch.a3}",
            "--steps", "201", "--out", str(path),
        ])
        lines = path.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        n_col = [float(r[1]) for r in rows]
        plottable = all(
            math.isfinite(float(cell)) for r in rows for cell in r[:6]
        )
        axis_ok = (
            rc == 0
            and lines[0] == CSV_HEADER
            and len(rows) == 201
            and abs(n_col[0]) <= 1e-12
            and abs(n_col[-1]) <= 1e-12
            and n_col.index(max(n_col)) == 100  # x = 1/2
            and plottable
        )
        details.append(f"{axis.token}: N(0)={n_col[0]}, N(1)={n_col[-1]}, "
                       f"argmax at x={rows[n_col.index(max(n_col))][0]}")
        ok = ok and axis_ok
    assert _record(
        8, ok,
        "201-step sweeps for the three reference inputs; endpoint rows have "
        "N = 0, N peaks at x = 1/2, all curve columns finite "
        f"({'; '.join(details)})",
    )
