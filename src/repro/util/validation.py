"""Argument-validation helpers used across the library.

All helpers raise :class:`repro.errors.ValidationError` with a message that
names the offending parameter, and return the (possibly coerced) value so
they can be used inline::

    self.capacity = check_positive_int("capacity", capacity)
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from repro.errors import ValidationError

__all__ = [
    "check_finite",
    "check_known",
    "check_non_negative",
    "check_positive",
    "check_positive_int",
]


def check_finite(name: str, value: float) -> float:
    """Return ``value`` as a float, requiring it to be finite."""
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a real number, got {value!r}") from exc
    if not math.isfinite(out):
        raise ValidationError(f"{name} must be finite, got {out!r}")
    return out


def check_positive(name: str, value: float) -> float:
    """Return ``value`` as a float, requiring ``value > 0``."""
    out = check_finite(name, value)
    if out <= 0:
        raise ValidationError(f"{name} must be > 0, got {out!r}")
    return out


def check_non_negative(name: str, value: float) -> float:
    """Return ``value`` as a float, requiring ``value >= 0``."""
    out = check_finite(name, value)
    if out < 0:
        raise ValidationError(f"{name} must be >= 0, got {out!r}")
    return out


def check_positive_int(name: str, value: int) -> int:
    """Return ``value`` as an int, requiring an integral value ``>= 1``."""
    if isinstance(value, bool) or not isinstance(value, (int,)):
        # Accept integral floats such as 4.0 for convenience.
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        else:
            raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValidationError(f"{name} must be >= 1, got {value!r}")
    return int(value)


def check_known(
    what: str,
    value: object,
    known: Iterable[str],
    error: type[Exception] = ValidationError,
) -> None:
    """Require ``value`` to be one of ``known``; the message lists them."""
    if value not in known:
        raise error(f"unknown {what} {value!r}; known: {', '.join(known)}")
