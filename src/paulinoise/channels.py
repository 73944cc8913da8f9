"""Kraus-operator construction and application of one-Pauli qubit channels.

A one-Pauli channel keeps the state with probability x (the retention
rate) and applies a single Pauli error with probability 1 - x:

    A1 = sqrt(x) I,    A2 = sqrt(1 - x) sigma_k      (k = 1 or 3)
    A1 = sqrt(x) I,    A2 = -i sqrt(1 - x) sigma_2   (k = 2)

The -i prefactor on the axis-2 operator is kept deliberately: it changes
neither the channel action nor any measure, but it makes the exchange
matrix reproducible entry by entry against its closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from math import isfinite, sqrt

import numpy as np

from .bloch import IDENTITY, SIGMAS, check_density
from .errors import ValidationError
from .linalg import as_matrix

COMPLETENESS_TOL = 1e-13


class PauliAxis(IntEnum):
    """Which Pauli error the channel applies with probability 1 - x."""

    SIGMA1 = 1  # bit flip
    SIGMA2 = 2  # bit and phase flip
    SIGMA3 = 3  # phase flip

    @classmethod
    def from_token(cls, token: str) -> "PauliAxis":
        try:
            return _AXIS_TOKENS[token.strip().lower()]
        except KeyError:
            raise ValidationError(
                f"unknown channel {token!r}, expected sigma1, sigma2 or sigma3"
            ) from None

    @property
    def token(self) -> str:
        return f"sigma{self.value}"


_AXIS_TOKENS = {axis.token: axis for axis in PauliAxis}


def as_axis(value) -> PauliAxis:
    """Coerce an axis given as PauliAxis, integer 1..3, or CLI token."""
    if isinstance(value, PauliAxis):
        return value
    if isinstance(value, str):
        return PauliAxis.from_token(value)
    try:
        return PauliAxis(value)
    except ValueError:
        raise ValidationError(f"axis must be 1, 2 or 3, got {value!r}") from None


def check_retention(x) -> float:
    """Validate the retention rate x in [0, 1]."""
    x = float(x)
    if not isfinite(x) or not 0.0 <= x <= 1.0:
        raise ValidationError(f"x must be in [0, 1], got {x}")
    return x


def retention_grid(steps: int) -> list[float]:
    """Evenly spaced retention rates i/(steps-1), both endpoints included."""
    if steps < 2:
        raise ValidationError(f"grid must be >= 2, got {steps}")
    return [i / (steps - 1) for i in range(steps)]


@dataclass(frozen=True)
class KrausChannel:
    """Ordered Kraus operators; the order matters because it indexes the
    exchange matrix. Construction metadata (axis, x) is optional and only
    consumed by reporting."""

    ops: tuple[np.ndarray, ...]
    axis: PauliAxis | None = None
    x: float | None = None

    def __post_init__(self):
        ops = tuple(as_matrix(op, f"ops[{i}]") for i, op in enumerate(self.ops))
        if not ops:
            raise ValidationError("channel needs at least one Kraus operator")
        if any(op.shape != (2, 2) for op in ops):
            raise ValidationError("Kraus operators must be 2x2")
        object.__setattr__(self, "ops", ops)
        if self.axis is not None:
            object.__setattr__(self, "axis", as_axis(self.axis))
        if self.x is not None:
            object.__setattr__(self, "x", check_retention(self.x))

    def __len__(self) -> int:
        return len(self.ops)


def make_one_pauli(axis, x) -> KrausChannel:
    """Build the one-Pauli channel [A1, A2] for the given axis and rate."""
    axis = as_axis(axis)
    x = check_retention(x)
    keep = sqrt(x) * IDENTITY
    prefactor = -1j if axis is PauliAxis.SIGMA2 else 1.0
    flip = prefactor * sqrt(1.0 - x) * SIGMAS[axis - 1]
    return KrausChannel(ops=(keep, flip), axis=axis, x=x)


def completeness_residual(ch: KrausChannel) -> float:
    """Largest absolute entry of sum_i A_i^dagger A_i - I."""
    acc = np.zeros((2, 2), dtype=complex)
    for op in ch.ops:
        acc += op.conj().T @ op
    return float(np.abs(acc - IDENTITY).max())


def apply_channel(ch: KrausChannel, rho) -> np.ndarray:
    """Channel action sum_i A_i rho A_i^dagger on a density matrix."""
    residual = completeness_residual(ch)
    if residual > COMPLETENESS_TOL:
        raise ValidationError(
            f"incomplete Kraus set: completeness residual {residual:.3e} "
            f"exceeds {COMPLETENESS_TOL}"
        )
    rho = check_density(rho)
    out = np.zeros((2, 2), dtype=complex)
    for op in ch.ops:
        out += op @ rho @ op.conj().T
    return check_density(out)
