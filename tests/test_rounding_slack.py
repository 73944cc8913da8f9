"""Every guard that allows rounding slack, pinned at its bound.

The Hermiticity residual, the density trace, the Bloch norm squared, the
density positivity, the spectrum floor and ceiling and the radicand floor
of the split (t +- sqrt(r))/2 each accept a value up to 1e-12 past its
exact bound and reject anything further. Each guard is probed 0.5e-12 past
its bound, which must pass, and 2e-12 past it, which must raise the
guard's error. The eigenvalue discriminant floor is that same split guard
under another name, so the closed_radicand probe pins it too; no Hermitian
input reaches it directly (test_linalg widens the slack to do so).
"""

import math

import numpy as np
import pytest

from helpers import hermitian_eigenvalues_batch
from paulinoise import (
    NumericError,
    ValidationError,
    check_bloch,
    check_density,
    hermitian_eigenvalues_2x2,
    spectrum_entropy,
)
from paulinoise.linalg import spectrum_entropy_batch, split_spectrum

INSIDE = 0.5e-12
OUTSIDE = 2e-12


def _skewed(d):
    # |m - m^dagger| has largest entry d; the spectrum stays (1/2, 1/2)
    return np.array([[0.5, 0.0], [d, 0.5]], dtype=complex)


def _batch_of(spectrum):
    return np.array([(0.5, 0.5), spectrum])


# guard -> (probe taking the distance d past the bound, error, message)
GUARDS = {
    "hermiticity": (
        lambda d: hermitian_eigenvalues_2x2(_skewed(d)),
        ValidationError, "not Hermitian",
    ),
    "hermiticity_batch": (
        lambda d: hermitian_eigenvalues_batch(np.array([np.eye(2) / 2, _skewed(d)])),
        ValidationError, "not Hermitian",
    ),
    "density_trace": (
        lambda d: check_density(np.diag([1.0 + d, 0.0])),
        ValidationError, "trace",
    ),
    "bloch_norm_sq": (
        lambda d: check_bloch((1.0, math.sqrt(d), 0.0)),
        ValidationError, "exceeds 1",
    ),
    "density_positivity": (
        lambda d: check_density(np.diag([1.0 + d, -d])),
        ValidationError, "negative eigenvalue",
    ),
    "spectrum_floor": (
        lambda d: spectrum_entropy((1.0, -d)),
        NumericError, "below",
    ),
    "spectrum_ceiling": (
        lambda d: spectrum_entropy((1.0 + d, 0.0)),
        NumericError, "exceeds 1",
    ),
    "spectrum_floor_batch": (
        lambda d: spectrum_entropy_batch(_batch_of((1.0, -d))),
        NumericError, "below",
    ),
    "spectrum_ceiling_batch": (
        lambda d: spectrum_entropy_batch(_batch_of((1.0 + d, 0.0))),
        NumericError, "exceeds 1",
    ),
    "closed_radicand": (
        lambda d: split_spectrum(1.0, np.array([0.25, -d]), "radicand"),
        NumericError, "negative radicand",
    ),
}


@pytest.mark.parametrize("guard", GUARDS)
def test_guard_accepts_rounding_inside_the_slack(guard):
    probe, _, _ = GUARDS[guard]
    probe(INSIDE)


@pytest.mark.parametrize("guard", GUARDS)
def test_guard_rejects_a_violation_past_the_slack(guard):
    probe, error, message = GUARDS[guard]
    with pytest.raises(error, match=message):
        probe(OUTSIDE)
