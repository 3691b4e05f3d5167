"""Small validation helpers shared across packages."""

from __future__ import annotations

import math
from typing import Iterable

from repro.utils.errors import ConfigurationError


def check_positive(value: float, name: str) -> float:
    """Return ``value`` if strictly positive and finite.

    Raises :class:`ConfigurationError` (a ``ValueError``) otherwise. A bare
    ``<= 0`` test lets NaN and infinity through; this one does not.
    """
    if not math.isfinite(value) or value <= 0:
        raise ConfigurationError(
            f"{name} must be positive and finite, got {value!r}"
        )
    return value


def check_positive_int(value: int, name: str) -> int:
    """Return ``value`` if a strictly positive int, else raise ValueError.

    Booleans are rejected even though they subclass ``int`` — a ``True`` NPU
    count is always a caller bug.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_probability(value: float, name: str) -> float:
    """Return ``value`` if within [0, 1], else raise ValueError."""
    if not math.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value!r}")
    return value


def is_power_of_two(value: int) -> bool:
    """True when ``value`` is a positive power of two."""
    return isinstance(value, int) and value > 0 and (value & (value - 1)) == 0


def prod(values: Iterable[int]) -> int:
    """Integer product of an iterable (1 for an empty iterable)."""
    result = 1
    for value in values:
        result *= value
    return result
