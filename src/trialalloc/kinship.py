"""Genotype relationship (kinship) matrices.

Builds and validates the K×K covariance structure N of the genotype effects:
identity, compound symmetry (CS), block-diagonal with CS blocks, or a dense
matrix read from CSV.  Also provides the average-semivariance normalization
``asv(N) = 1`` used to calibrate the genetic variance scale.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from ._checks import integers, number, symmetric_matrix
from ._linalg import frozen_array, sym
from .errors import ValidationError

__all__ = [
    "Identity",
    "CompoundSymmetry",
    "BlockCompoundSymmetry",
    "DenseKinship",
    "KinshipSpec",
    "PdDiagnostic",
    "materialize",
    "asv",
    "sigma2_alpha_for_unit_asv",
    "validate_pd",
    "load_kinship_csv",
]


def _check_numbers(spec, integral=(), real=()) -> None:
    """Store the named fields of ``spec`` as checked ints and finite floats,
    and reject a negative jitter."""
    for name in integral:
        object.__setattr__(spec, name, int(integers(getattr(spec, name), name)))
    for name in real + ("jitter",):
        object.__setattr__(spec, name, number(getattr(spec, name), name))
    if spec.jitter < 0:
        raise ValidationError(f"jitter must be non-negative, got {spec.jitter}")


@dataclass(frozen=True)
class Identity:
    """Uncorrelated genotypes: N = I_K."""

    K: int
    jitter: float = 0.0

    def __post_init__(self):
        _check_numbers(self, integral=("K",))
        if self.K < 2:
            raise ValidationError(f"kinship needs at least 2 genotypes, got K={self.K}")


@dataclass(frozen=True)
class CompoundSymmetry:
    """Exchangeable genotypes: N = a₁·I_K + a·11ᵀ.

    Parameters
    ----------
    K : int
        Number of genotypes.
    sigma2_alpha : float
        Genetic variance scale; the diagonal of N equals ``sigma2_alpha``.
    r : float
        Common correlation, in [0, 1).  ``a = sigma2_alpha * r`` and
        ``a1 = sigma2_alpha * (1 - r)``.
    """

    K: int
    sigma2_alpha: float
    r: float
    jitter: float = 0.0

    def __post_init__(self):
        _check_numbers(self, integral=("K",), real=("sigma2_alpha", "r"))
        if self.K < 2:
            raise ValidationError(f"kinship needs at least 2 genotypes, got K={self.K}")
        if not self.sigma2_alpha > 0:
            raise ValidationError(f"sigma2_alpha must be positive, got {self.sigma2_alpha}")
        if not 0.0 <= self.r < 1.0:
            raise ValidationError(f"correlation r must lie in [0, 1), got {self.r}")

    @property
    def a(self) -> float:
        return self.sigma2_alpha * self.r

    @property
    def a1(self) -> float:
        return self.sigma2_alpha * (1.0 - self.r)


@dataclass(frozen=True)
class BlockCompoundSymmetry:
    """f families of m genotypes each: N = I_f ⊗ (b₁·I_m + b·11ᵀ).

    Genotypes are exchangeable within a family and independent across
    families; ``K = f * m``.
    """

    f: int
    m: int
    sigma2_alpha: float
    r: float
    jitter: float = 0.0

    def __post_init__(self):
        _check_numbers(self, integral=("f", "m"), real=("sigma2_alpha", "r"))
        if self.f < 1 or self.m < 1:
            raise ValidationError(f"family layout needs f, m >= 1, got f={self.f}, m={self.m}")
        if self.f * self.m < 2:
            raise ValidationError("kinship needs at least 2 genotypes (f*m >= 2)")
        if not self.sigma2_alpha > 0:
            raise ValidationError(f"sigma2_alpha must be positive, got {self.sigma2_alpha}")
        if not 0.0 <= self.r < 1.0:
            raise ValidationError(f"correlation r must lie in [0, 1), got {self.r}")

    @property
    def K(self) -> int:
        return self.f * self.m

    @property
    def b(self) -> float:
        return self.sigma2_alpha * self.r

    @property
    def b1(self) -> float:
        return self.sigma2_alpha * (1.0 - self.r)


@dataclass(frozen=True, eq=False)
class DenseKinship:
    """An explicit K×K relationship matrix, e.g. a genomic one read from file."""

    matrix: np.ndarray
    jitter: float = 0.0

    def __post_init__(self):
        _check_numbers(self)
        object.__setattr__(self, "matrix",
                           frozen_array(symmetric_matrix(self.matrix, "matrix")))

    @property
    def K(self) -> int:
        return self.matrix.shape[0]


KinshipSpec = Union[Identity, CompoundSymmetry, BlockCompoundSymmetry, DenseKinship]


def materialize(spec: KinshipSpec) -> np.ndarray:
    """Return the dense K×K matrix N described by ``spec`` (jitter included)."""
    if isinstance(spec, Identity):
        n = np.eye(spec.K)
    elif isinstance(spec, CompoundSymmetry):
        n = spec.a1 * np.eye(spec.K) + spec.a * np.ones((spec.K, spec.K))
    elif isinstance(spec, BlockCompoundSymmetry):
        block = spec.b1 * np.eye(spec.m) + spec.b * np.ones((spec.m, spec.m))
        n = np.kron(np.eye(spec.f), block)
    elif isinstance(spec, DenseKinship):
        n = spec.matrix.copy()
    else:
        raise ValidationError(f"unknown kinship spec: {type(spec).__name__}")
    if spec.jitter:
        n = n + spec.jitter * np.eye(n.shape[0])
    return n


def asv(n: np.ndarray) -> float:
    """Average semivariance of a relationship matrix.

    asv(N) = tr[N (I_K − 11ᵀ/K)] / (K−1).  Invariant to adding any multiple
    of 11ᵀ, equal to 1 for the identity.
    """
    n = np.asarray(n, dtype=float)
    k = n.shape[0]
    if n.ndim != 2 or n.shape[1] != k or k < 2:
        raise ValidationError(f"asv needs a square matrix with K >= 2, got shape {n.shape}")
    return float((np.trace(n) - n.sum() / k) / (k - 1))


def sigma2_alpha_for_unit_asv(K: int, m: int, r: float) -> float:
    """Genetic variance scale giving asv(N) = 1 for a family-block structure.

    For f families of m genotypes with within-family correlation r the
    calibration is sigma2_alpha = (K−1) / (K−1 − (m−1)·r).  With m = 1 (no
    family structure) this is exactly 1, and for fixed (m, r) it decreases
    toward 1 as K grows.
    """
    if K < 2:
        raise ValidationError(f"need K >= 2, got {K}")
    if not 1 <= m <= K:
        raise ValidationError(f"family size m must lie in [1, K], got m={m}, K={K}")
    if not 0.0 <= r < 1.0:
        raise ValidationError(f"correlation r must lie in [0, 1), got {r}")
    denom = (K - 1) - (m - 1) * r
    if denom <= 0:
        raise ValidationError(f"degenerate calibration: K-1-(m-1)r = {denom} <= 0")
    return (K - 1) / denom


@dataclass(frozen=True)
class PdDiagnostic:
    """Outcome of a positive-definiteness check."""

    is_pd: bool
    min_eigenvalue: float
    condition_number: float
    suggested_jitter: float

    def __bool__(self) -> bool:  # allows `if validate_pd(n): ...`
        return self.is_pd


def validate_pd(n: np.ndarray) -> PdDiagnostic:
    """Diagnose whether ``n`` is safely positive definite.

    Reports the extreme eigenvalues and, when the matrix is indefinite or
    numerically singular, a diagonal jitter large enough to restore a small
    positive margin.
    """
    n = sym(np.asarray(n, dtype=float))
    eigs = np.linalg.eigvalsh(n)
    lo, hi = float(eigs[0]), float(eigs[-1])
    margin = 1e-12 * max(hi, 1.0)
    is_pd = lo > margin
    cond = np.inf if lo <= 0 else hi / lo
    suggested = 0.0 if is_pd else (margin - lo) + 1e-8 * max(np.mean(np.diag(n)), 1.0)
    return PdDiagnostic(is_pd=is_pd, min_eigenvalue=lo,
                        condition_number=cond, suggested_jitter=suggested)


def load_kinship_csv(path: str | Path, jitter: float = 0.0) -> DenseKinship:
    """Read a dense kinship matrix from a square numeric CSV.

    Comma-separated with '.' decimal marks; an optional first header row of
    genotype identifiers is detected and skipped.  The matrix must come out
    square and symmetric.
    """
    text = Path(path).read_text()
    rows = [row for row in csv.reader(io.StringIO(text)) if any(cell.strip() for cell in row)]
    if not rows:
        raise ValidationError(f"kinship file {path} is empty")

    def _numeric(row):
        try:
            return [float(cell) for cell in row]
        except ValueError:
            return None

    first = _numeric(rows[0])
    body = rows if first is not None else rows[1:]
    parsed = []
    for i, row in enumerate(body):
        values = _numeric(row)
        if values is None:
            raise ValidationError(f"kinship file {path}: non-numeric entry in row {i + 1}")
        parsed.append(values)
    widths = {len(row) for row in parsed}
    if len(widths) != 1:
        raise ValidationError(f"kinship file {path}: ragged rows (widths {sorted(widths)})")
    mat = np.array(parsed, dtype=float)
    if mat.shape[0] != mat.shape[1]:
        raise ValidationError(
            f"kinship file {path}: matrix is {mat.shape[0]}x{mat.shape[1]}, expected square"
        )
    return DenseKinship(matrix=mat, jitter=jitter)
