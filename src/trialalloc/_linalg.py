"""Shared dense linear-algebra helpers, numpy only.

Every factorization is :func:`spd_factor`, a batched numpy Cholesky of one
symmetric positive-definite matrix or of a stack of them, which raises
:class:`NumericalError` naming the system.  The other helpers look it up in
this module's namespace at call time, so replacing ``_linalg.spd_factor``
sees every factorization.  Explicit inverses are formed only where a stored
inverse is part of the evaluation structure.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericalError


def sym(a: np.ndarray) -> np.ndarray:
    """Symmetrize ``a`` as (a + aᵀ)/2."""
    return 0.5 * (a + a.T)


def spd_factor(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Lower Cholesky factor of ``a`` or of each matrix in a stack ``a``.

    Reads the lower triangle only, so ``a`` must already be symmetric.
    """
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{what} is not positive definite: {exc}") from None


def inverse_factor(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    """L^-1 for the Cholesky factor LLᵀ = ``a``, of one matrix or of each in a
    stack."""
    return np.linalg.inv(spd_factor(a, what))


def spd_inverse(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    """a^-1 = L^-ᵀ L^-1 of one symmetric positive-definite matrix or of each
    in a stack."""
    l_inv = inverse_factor(a, what)
    return np.swapaxes(l_inv, -1, -2) @ l_inv


def frozen_array(values, dtype=float) -> np.ndarray:
    """Copy ``values`` into a read-only ndarray (safe to share across threads)."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr
