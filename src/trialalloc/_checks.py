"""Input checks shared by the constructors and the solver settings: finite
numbers, positive numbers and whole numbers, none of them booleans.

Each check raises :class:`ValidationError` naming the offending field, which
the CLI reports with exit status 2, so that no NaN, infinity or fractional
count reaches a factorization or a solver.
"""
from __future__ import annotations

import operator
import reprlib

import numpy as np

from .errors import ValidationError


def _holds_bool(value) -> bool:
    if isinstance(value, (list, tuple)):
        return any(map(_holds_bool, value))
    return isinstance(value, (bool, np.bool_, np.ndarray)) and np.asarray(value).dtype == bool


def finite(value, name: str) -> np.ndarray:
    """``value`` as a float array, rejecting non-numbers (JSON ``true`` and
    ``false`` too), NaN and infinities."""
    if _holds_bool(value):
        raise ValidationError(f"{name} must be numeric, got {reprlib.repr(value)}")
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be numeric, got {reprlib.repr(value)}") from None
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must be finite, got {reprlib.repr(value)}")
    return arr


def number(value, name: str) -> float:
    """``value`` as one finite float."""
    arr = finite(value, name)
    if arr.shape != ():
        raise ValidationError(f"{name} must be a single number, got {reprlib.repr(value)}")
    return float(arr)


def integers(value, name: str, size: int | None = None) -> np.ndarray:
    """``value`` as ints: a scalar, or broadcast to a vector of length ``size``."""
    arr = finite(value, name)
    if np.any(arr != np.round(arr)):
        raise ValidationError(f"{name} must be integral, got {reprlib.repr(value)}")
    if arr.shape not in ((), (size,)):
        count = "" if size is None else f" or {size} of them"
        raise ValidationError(f"{name} must be a whole number{count}, "
                              f"got {reprlib.repr(value)}")
    return np.broadcast_to(arr.astype(int), () if size is None else size).copy()


def positive(value, name: str) -> float:
    """``value`` as one finite float above zero."""
    x = number(value, name)
    if not x > 0:
        raise ValidationError(f"{name} must be > 0, got {reprlib.repr(value)}")
    return x


def count(value, name: str, minimum: int = 0) -> int:
    """``value`` as one int no smaller than ``minimum``."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        n = operator.index(value)           # exact for ints beyond float range
    else:
        n = int(integers(value, name))
    if n < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {reprlib.repr(value)}")
    return n
