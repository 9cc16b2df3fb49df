"""Shared dense linear-algebra helpers.

All solves go through a Cholesky factorization of the explicitly symmetrized
operand; explicit inverses are formed only where a stored inverse is part of
the evaluation structure.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .errors import NumericalError

# order up to which a stacked LU solve beats a loop of triangular solves
_SMALL_ORDER = 24


def sym(a: np.ndarray) -> np.ndarray:
    """Symmetrize ``a`` as (a + aᵀ)/2."""
    return 0.5 * (a + a.T)


def spd_factor(a: np.ndarray, what: str = "matrix"):
    """Cholesky-factor the symmetrized ``a``, raising :class:`NumericalError`."""
    try:
        return sla.cho_factor(sym(a), lower=True, check_finite=False)
    except sla.LinAlgError as exc:
        raise NumericalError(f"{what} is not positive definite: {exc}") from None


def spd_cholesky(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Lower Cholesky factor of ``a`` or of each matrix in a stack ``a``.

    Reads the lower triangle only, so ``a`` must already be symmetric.
    """
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{what} is not positive definite: {exc}") from None


def solve_lower(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``chol y = b`` for lower-triangular ``chol`` (or a stack of them)."""
    if chol.shape[-1] > _SMALL_ORDER:
        return sla.solve_triangular(chol, b, lower=True, check_finite=False)
    # numpy's stacked LU has no per-matrix Python overhead, which wins on small orders
    return np.linalg.solve(chol, b)


def spd_solve(a: np.ndarray, b: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Solve ``a x = b`` for symmetric positive-definite ``a``."""
    return sla.cho_solve(spd_factor(a, what), b, check_finite=False)


def spd_inverse(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Explicit inverse of a symmetric positive-definite matrix."""
    out = spd_solve(a, np.eye(a.shape[0]), what)
    return sym(out)


def frozen_array(values, dtype=float) -> np.ndarray:
    """Copy ``values`` into a read-only ndarray (safe to share across threads)."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr
