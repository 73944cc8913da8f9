"""Kraus-operator construction of one-Pauli qubit channels.

A one-Pauli channel keeps the state with probability x (the retention
rate) and applies a single Pauli error with probability 1 - x:

    A1 = sqrt(x) I,    A2 = sqrt(1 - x) sigma_k      (k = 1 or 3)
    A1 = sqrt(x) I,    A2 = -i sqrt(1 - x) sigma_2   (k = 2)

The -i prefactor on the axis-2 operator is kept deliberately: it changes
neither the channel action nor any measure, but it makes the exchange
matrix reproducible entry by entry against its closed form.
"""

from __future__ import annotations

import operator
from enum import IntEnum
from math import hypot, sqrt
from numbers import Integral

from .errors import ValidationError
from .linalg import _vdot, as_real

COMPLETENESS_TOL = 1e-13


class PauliAxis(IntEnum):
    """Which Pauli error the channel applies with probability 1 - x."""

    SIGMA1 = 1  # bit flip
    SIGMA2 = 2  # bit and phase flip
    SIGMA3 = 3  # phase flip

    @property
    def token(self) -> str:
        return f"sigma{self.value}"


_AXIS_TOKENS = {axis.token: axis for axis in PauliAxis}

# The real row-major entries of I and, by axis, of sigma1, -i sigma2 and sigma3.
_KEEP = (1.0, 0.0, 0.0, 1.0)
_FLIPS = ((0.0, 1.0, 1.0, 0.0), (0.0, -1.0, 1.0, 0.0), (1.0, 0.0, 0.0, -1.0))


def as_axis(value) -> PauliAxis:
    """Coerce an axis given as PauliAxis, CLI token, or integer 1..3."""
    if isinstance(value, PauliAxis):
        return value
    if isinstance(value, str):
        try:
            return _AXIS_TOKENS[value.strip().lower()]
        except KeyError:
            raise ValidationError(
                f"unknown channel {value!r}, expected sigma1, sigma2 or sigma3"
            ) from None
    try:
        return PauliAxis(as_count(value, "axis", 1))
    except ValueError:  # as_count's ValidationError, or PauliAxis's above 3
        raise ValidationError(f"axis must be 1, 2 or 3, got {value!r}") from None


def check_retention(x) -> float:
    """Validate the retention rate x, a real number (as_real) in [0, 1], so not NaN."""
    x = as_real(x, "x must be a real number")
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"x must be in [0, 1], got {x}")
    return x


def as_count(value, name: str, minimum: int) -> int:
    """The one integer rule: numbers.Integral but not a bool (numpy's joins no numbers
    ABC), then operator.index, of at least minimum; else ValidationError."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    count = operator.index(value)
    if count < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {count}")
    return count


def retention_grid(steps) -> list[float]:
    """Evenly spaced retention rates i/(steps-1), both endpoints included."""
    steps = as_count(steps, "grid", 2)
    return [i / (steps - 1) for i in range(steps)]


class KrausChannel:
    """The one-Pauli channel of an axis and a retention rate x, read-only, compared and
    hashed by (axis, x). Its Kraus operators ops = (A1, A2), each four row-major (re, im)
    pairs, come once from (axis, x); their order indexes the exchange matrix. __init__
    validates, and builds every copy and unpickled channel too (__reduce__)."""

    __slots__ = ("axis", "x", "ops")

    def __init__(self, axis, x):
        axis, x = as_axis(axis), check_retention(x)
        scaled = ((sqrt(x), _KEEP), (sqrt(1.0 - x), _FLIPS[axis - 1]))
        ops = tuple(tuple((s * e, 0.0) for e in entries) for s, entries in scaled)
        for name, value in zip(self.__slots__, (axis, x, ops)):
            object.__setattr__(self, name, value)

    def _read_only(self, name, *_):
        raise AttributeError(f"cannot assign or delete KrausChannel.{name}")

    __setattr__ = __delattr__ = _read_only

    def __eq__(self, other):
        same = type(other) is KrausChannel
        return (self.axis, self.x) == (other.axis, other.x) if same else NotImplemented

    def __hash__(self):
        return hash((self.axis, self.x))

    def __repr__(self):
        return f"KrausChannel(axis={self.axis!r}, x={self.x!r})"

    def __reduce__(self):
        return KrausChannel, (self.axis, self.x)


def make_one_pauli(axis, x) -> KrausChannel:
    """Build the one-Pauli channel [A1, A2] for the given axis and rate."""
    return KrausChannel(axis, x)


def completeness_residual(ch: KrausChannel) -> float:
    """Largest absolute entry of sum_i A_i^dagger A_i - I, without BLAS."""
    columns = [[z for op in ch.ops for z in op[c::2]] for c in (0, 1)]
    sums = [_vdot(u, v) for u in columns for v in columns]
    return max(hypot(re - one, im) for (re, im), one in zip(sums, (1.0, 0.0, 0.0, 1.0)))
