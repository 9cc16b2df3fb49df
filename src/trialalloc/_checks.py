"""Input checks shared by the constructors and the solver settings: finite
numbers, positive numbers, whole numbers of at most 2**53, bounded scales and
symmetric matrices, none of them booleans or text, and choices among an
enum's values.

Each check raises :class:`ValidationError` naming the offending field, which
the CLI reports with exit status 2, so that no NaN, infinity, fractional
count or count beyond 2**53 reaches a factorization or a solver.
"""
from __future__ import annotations

import reprlib

import numpy as np

from ._linalg import sym
from .errors import ValidationError

# relative asymmetry, of the largest entry or of 1, that a matrix may carry
_SYM_RTOL = 1e-10
# every whole number up to 2**53 is a float, so counts stay exact as weights
_MAX_INTEGER = 2 ** 53
# the criteria multiply model scales pairwise (Ṽ², the gradient's squared
# roots), so no scale may exceed √(float max)
_MAX_SCALE = float(np.sqrt(np.finfo(float).max))


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
    except OverflowError:                   # an int beyond float range
        raise ValidationError(f"{name} must be finite, got {reprlib.repr(value)}") from None
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must be finite, got {reprlib.repr(value)}")
    return arr


def number(value, name: str) -> float:
    """``value`` as one finite float."""
    arr = finite(value, name)
    if arr.shape != ():
        raise ValidationError(f"{name} must be a single number, got {reprlib.repr(value)}")
    return float(arr)


def _largest_int(value) -> int:
    """The largest magnitude among the exact integers in ``value``: Python
    and numpy ints, integer arrays and lists of them; 0 if it holds none."""
    if isinstance(value, (list, tuple)):
        return max(map(_largest_int, value), default=0)
    if isinstance(value, np.ndarray) and value.dtype.kind in "iu":
        return max(int(value.max(initial=0)), -int(value.min(initial=0)))
    if isinstance(value, (int, np.integer)) and not isinstance(value, (bool, np.bool_)):
        return abs(int(value))
    return 0


def integers(value, name: str, size: int | None = None) -> np.ndarray:
    """``value`` as int64s of at most 2**53 in magnitude, the range in which
    floats hold every whole number: a scalar, or broadcast to a vector of
    length ``size``.  Python and numpy ints are compared with the limit as
    they are, never rounded through float64 first."""
    if type(value) is int and abs(value) <= _MAX_INTEGER:
        arr = np.array(value)
    else:
        if isinstance(value, np.ndarray) and value.dtype.kind in "iu":
            arr = value
        else:
            arr = finite(value, name)
            if np.any(arr != np.round(arr)):
                raise ValidationError(f"{name} must be integral, got {reprlib.repr(value)}")
        if _largest_int(value) > _MAX_INTEGER or np.any(np.abs(arr) > _MAX_INTEGER):
            raise ValidationError(f"{name} must be at most 2**53 in magnitude, "
                                  f"got {reprlib.repr(value)}")
    if arr.shape not in ((), (size,)):
        count = "" if size is None else f" or {size} of them"
        raise ValidationError(f"{name} must be a whole number{count}, "
                              f"got {reprlib.repr(value)}")
    return np.broadcast_to(arr.astype(int), () if size is None else size).copy()


def bounded(value, name: str):
    """``value``, a finite number or array, if no entry exceeds
    :data:`_MAX_SCALE` in magnitude."""
    largest = np.abs(value).max(initial=0.0)
    if largest > _MAX_SCALE:
        raise ValidationError(f"{name} must be at most {_MAX_SCALE:.3g} in magnitude, "
                              f"got {largest:.3g}")
    return value


def positive(value, name: str) -> float:
    """``value`` as one finite float above zero."""
    x = number(value, name)
    if not x > 0:
        raise ValidationError(f"{name} must be > 0, got {reprlib.repr(value)}")
    return x


def choice(enum, value, name: str):
    """``value`` as a member of ``enum``."""
    try:
        return enum(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be {' or '.join(repr(m.value) for m in enum)}, "
                              f"got {reprlib.repr(value)}") from None


def symmetric_matrix(value, name: str) -> np.ndarray:
    """``value`` as a finite, :func:`bounded` square matrix, at least 2×2 and
    symmetric within 1e-10 relative, symmetrized."""
    mat = bounded(finite(value, name), name)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {mat.shape}")
    if mat.shape[0] < 2:
        raise ValidationError(f"{name} must be at least 2x2, got shape {mat.shape}")
    if np.abs(mat - mat.T).max() > _SYM_RTOL * max(np.abs(mat).max(), 1.0):
        raise ValidationError(f"{name} is not symmetric within 1e-10 relative")
    return sym(mat)
