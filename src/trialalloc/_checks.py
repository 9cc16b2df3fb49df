"""Input checks shared by the constructors and the solver settings: finite
numbers, positive numbers, whole numbers and symmetric matrices, none of them
booleans or text, and choices among an enum's values.

Each check raises :class:`ValidationError` naming the offending field, which
the CLI reports with exit status 2, so that no NaN, infinity or fractional
count reaches a factorization or a solver.
"""
from __future__ import annotations

import operator
import reprlib

import numpy as np

from ._linalg import sym
from .errors import ValidationError

# relative asymmetry, of the largest entry or of 1, that a matrix may carry
_SYM_RTOL = 1e-10


def _holds_non_number(value) -> bool:
    """Whether ``value`` holds a boolean or text, which numpy would read as a
    number."""
    if isinstance(value, (list, tuple)):
        return any(map(_holds_non_number, value))
    return (isinstance(value, (str, bytes, bool, np.bool_, np.ndarray))
            and np.asarray(value).dtype.kind in "bSU")


def finite(value, name: str) -> np.ndarray:
    """``value`` as a float array, rejecting non-numbers (JSON ``true``,
    ``false`` and strings too), NaN and infinities."""
    if _holds_non_number(value):
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


def choice(enum, value, name: str, allowed=None):
    """``value`` as a member of ``enum``, one of ``allowed`` (default: all)."""
    allowed = tuple(enum) if allowed is None else allowed
    try:
        member = enum(value)
    except (TypeError, ValueError):
        member = None
    if member not in allowed:
        raise ValidationError(f"{name} must be {' or '.join(repr(m.value) for m in allowed)}, "
                              f"got {reprlib.repr(value)}")
    return member


def symmetric_matrix(value, name: str) -> np.ndarray:
    """``value`` as a finite square matrix, at least 2×2 and symmetric within
    1e-10 relative, symmetrized."""
    mat = finite(value, name)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {mat.shape}")
    if mat.shape[0] < 2:
        raise ValidationError(f"{name} must be at least 2x2, got shape {mat.shape}")
    if np.abs(mat - mat.T).max() > _SYM_RTOL * max(np.abs(mat).max(), 1.0):
        raise ValidationError(f"{name} is not symmetric within 1e-10 relative")
    return sym(mat)


def count(value, name: str, minimum: int = 0) -> int:
    """``value`` as one int no smaller than ``minimum``."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        n = operator.index(value)           # exact for ints beyond float range
    else:
        n = int(integers(value, name))
    if n < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {reprlib.repr(value)}")
    return n
