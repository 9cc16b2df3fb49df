"""Mixed-model building blocks for trial allocation.

The yield of a genotype in a location is modeled with random genotype,
year, location and interaction effects; everything a design criterion needs
from that model condenses into a handful of small matrices built here: the
moment matrix of a design, the centering operator, the scaled year-to-year
covariance R̃ and the scaled genetic covariances (Ũ, Ṽ).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import kinship as _kinship
from ._checks import choice, finite, integers, number, symmetric_matrix
from ._linalg import frozen_array
from .errors import ValidationError

__all__ = [
    "ModelVariant",
    "VarianceComponents",
    "SubRegionProfile",
    "Design",
    "ScaledGenetic",
    "DENSE_KP_LIMIT",
    "effective_error_constant",
    "moment_matrix",
    "centering_matrix",
    "scaled_year_matrix",
    "scaled_genetic_covariances",
]

# Largest K*P for which dense KP×KP work is permitted.
DENSE_KP_LIMIT = 10_000


class ModelVariant(str, Enum):
    """How location effects enter the model.

    CROSS_CLASSIFIED
        Locations and years are crossed; the genotype-by-location variance
        contributes to the effective error constant.
    NESTED
        Locations are nested within years (a fresh set each year); the
        genotype-by-location term drops out of the constant.
    """

    CROSS_CLASSIFIED = "cross_classified"
    NESTED = "nested"


@dataclass(frozen=True)
class VarianceComponents:
    """Variance parameters of the yield model that reach the design criteria.

    Parameters
    ----------
    sigma2_omega : float
        Genotype-by-year interaction variance.
    sigma2_tau : float
        Genotype-by-sub-region-by-year interaction variance (must be
        positive; it keeps the year covariance R̃ non-degenerate).
    sigma2_gamma : float
        Genotype-by-location interaction variance (enters the effective
        error constant only in the cross-classified variant).
    sigma2_phi_plus_err_over_L : float
        The residual composite σ²_φ + σ²/L: location-by-year interaction
        plus plot error averaged over the L blocks of a trial.  Reported by
        variance-component software as a single number, so it is the
        canonical stored field; see :meth:`from_separate`.
    H : int
        Number of years the network runs.
    L : int, optional
        Number of blocks per trial.  Informational only when the composite
        is supplied directly; never inferred.
    model_variant : ModelVariant
        Cross-classified or nested locations.
    """

    sigma2_omega: float
    sigma2_tau: float
    sigma2_gamma: float
    sigma2_phi_plus_err_over_L: float
    H: int
    L: int | None = None
    model_variant: ModelVariant = ModelVariant.CROSS_CLASSIFIED

    def __post_init__(self):
        object.__setattr__(self, "model_variant",
                           choice(ModelVariant, self.model_variant, "model_variant"))
        for name in ("sigma2_omega", "sigma2_tau", "sigma2_gamma",
                     "sigma2_phi_plus_err_over_L"):
            value = number(getattr(self, name), name)
            if value < 0:
                raise ValidationError(f"{name} must be a finite non-negative number, got {value}")
            object.__setattr__(self, name, value)
        if self.sigma2_tau <= 0:
            raise ValidationError("sigma2_tau must be strictly positive")
        h = int(integers(self.H, "H"))
        if h < 1:
            raise ValidationError(f"H must be an integer >= 1, got {self.H}")
        object.__setattr__(self, "H", h)
        if self.L is not None:
            blocks = int(integers(self.L, "L"))
            if blocks < 1:
                raise ValidationError(f"L must be an integer >= 1 when given, got {self.L}")
            object.__setattr__(self, "L", blocks)
        effective_error_constant(self)          # rejects a degenerate model

    @classmethod
    def from_separate(cls, *, sigma2_omega: float, sigma2_tau: float,
                      sigma2_gamma: float, sigma2_phi: float, sigma2_err: float,
                      L: int,
                      H: int,
                      model_variant: ModelVariant = ModelVariant.CROSS_CLASSIFIED,
                      ) -> "VarianceComponents":
        """Build from separate σ²_φ, σ² and block count L."""
        L = int(integers(L, "L"))
        if L < 1:
            raise ValidationError(f"L must be >= 1, got {L}")
        sigma2_phi, sigma2_err = number(sigma2_phi, "sigma2_phi"), number(sigma2_err, "sigma2_err")
        if sigma2_phi < 0 or sigma2_err < 0:
            raise ValidationError("sigma2_phi and sigma2_err must be non-negative")
        return cls(
            sigma2_omega=sigma2_omega,
            sigma2_tau=sigma2_tau,
            sigma2_gamma=sigma2_gamma,
            sigma2_phi_plus_err_over_L=sigma2_phi + sigma2_err / L,
            H=H,
            L=L,
            model_variant=model_variant,
        )


def effective_error_constant(vc: VarianceComponents) -> float:
    """Per-trial effective error variance c entering every criterion.

    c = σ²_γ + (σ²_φ + σ²/L)/H for cross-classified locations; the nested
    variant drops the σ²_γ term (each year sees new locations, so the
    genotype-by-location interaction averages into the year terms).
    """
    c = vc.sigma2_phi_plus_err_over_L / vc.H
    if vc.model_variant is ModelVariant.CROSS_CLASSIFIED:
        c += vc.sigma2_gamma
    if c <= 0:
        terms = ("sigma2_phi_plus_err_over_L" if vc.model_variant is ModelVariant.NESTED
                 else "sigma2_gamma or sigma2_phi_plus_err_over_L")
        raise ValidationError(
            "effective error constant is not positive; the model is degenerate: "
            f"{terms} must be positive in the {vc.model_variant.value} model"
        )
    return c


@dataclass(frozen=True, eq=False)
class SubRegionProfile:
    """Sub-region structure of the target region.

    Parameters
    ----------
    V : (P, P) array_like
        Symmetric positive-definite genetic covariance between sub-regions.
    ell : sequence of float, optional
        Strictly positive sub-regional coefficients (e.g. arable area or
        population) for the weighted criteria.  Absent means the standard
        criterion (all coefficients one).
    """

    V: np.ndarray
    ell: np.ndarray | None = None

    def __post_init__(self):
        v = symmetric_matrix(self.V, "V")
        if np.linalg.eigvalsh(v)[0] <= 0:
            raise ValidationError("V must be positive definite")
        object.__setattr__(self, "V", frozen_array(v))
        if self.ell is not None:
            ell = finite(self.ell, "ell").ravel()
            if ell.shape != (v.shape[0],):
                raise ValidationError(
                    f"ell must have one coefficient per sub-region ({v.shape[0]}), got {ell.shape}"
                )
            if not np.all(ell > 0):
                raise ValidationError("sub-regional coefficients must be strictly positive")
            object.__setattr__(self, "ell", frozen_array(ell))

    @property
    def P(self) -> int:
        return self.V.shape[0]


@dataclass(frozen=True, eq=False)
class Design:
    """An allocation of trials to sub-regions.

    Exact designs carry integer location counts per sub-region; approximate
    designs carry weights on the simplex.  Both carry the total number of
    trials J, which sets the scale of R̃ and Ũ and therefore matters even
    for approximate designs.
    """

    weights: np.ndarray
    J: int
    counts: np.ndarray | None = None

    def __post_init__(self):
        w = finite(self.weights, "weights").ravel()
        if w.size < 2:
            raise ValidationError("a design needs at least 2 sub-regions")
        if np.any(w < -1e-12):
            raise ValidationError(f"weights must be non-negative, got {w}")
        total = w.sum()
        if abs(total - 1.0) > 1e-8:
            raise ValidationError(f"weights must sum to 1, got sum {total!r}")
        j = int(integers(self.J, "J"))
        if j < 1:
            raise ValidationError(f"J must be an integer >= 1, got {self.J}")
        object.__setattr__(self, "J", j)
        object.__setattr__(self, "weights", frozen_array(np.clip(w, 0.0, None) / total))
        if self.counts is not None:
            counts = np.asarray(self.counts)
            if not np.issubdtype(counts.dtype, np.integer):
                raise ValidationError("exact counts must be integers")
            if np.any(counts < 0):
                raise ValidationError(f"counts must be non-negative, got {counts}")
            if int(counts.sum()) != self.J:
                raise ValidationError(
                    f"counts sum to {int(counts.sum())} but J={self.J}"
                )
            object.__setattr__(self, "counts", frozen_array(counts, dtype=int))

    @classmethod
    def exact(cls, counts) -> "Design":
        """Integer allocation; weights are induced as counts / J."""
        counts = integers(counts, "counts", np.size(counts))
        total = int(counts.sum())
        if total < 1:
            raise ValidationError("an exact design needs at least one trial")
        return cls(weights=counts / total, J=total, counts=counts)

    @classmethod
    def approximate(cls, weights, J: int) -> "Design":
        """Simplex weights at total size J."""
        return cls(weights=np.asarray(weights, dtype=float), J=J)

    @property
    def kind(self) -> str:
        return "exact" if self.counts is not None else "approximate"

    @property
    def P(self) -> int:
        return self.weights.size


def moment_matrix(d: Design) -> np.ndarray:
    """Diagonal moment matrix M(ξ) = diag(w₁, …, w_P) of a design."""
    return np.diag(d.weights)


def centering_matrix(K: int) -> np.ndarray:
    """The K×K centering projector T = I − 11ᵀ/K (symmetric, idempotent)."""
    if K < 2:
        raise ValidationError(f"centering needs K >= 2, got {K}")
    return np.eye(K) - np.full((K, K), 1.0 / K)


def scaled_year_matrix(vc: VarianceComponents, J: int, P: int) -> np.ndarray:
    """Scaled year-to-year covariance contribution R̃.

    R̃ = (J/(cH)) (σ²_τ I_P + σ²_ω 11ᵀ) with c the effective error
    constant.  Two distinct eigenvalues: (J/(cH))σ²_τ with multiplicity
    P−1 and (J/(cH))(σ²_τ + Pσ²_ω) with multiplicity 1.
    """
    if P < 2:
        raise ValidationError(f"need P >= 2 sub-regions, got {P}")
    if J < 1:
        raise ValidationError(f"J must be >= 1, got {J}")
    c = effective_error_constant(vc)
    factor = J / (c * vc.H)
    return factor * (vc.sigma2_tau * np.eye(P) + vc.sigma2_omega * np.ones((P, P)))


@dataclass(frozen=True, eq=False)
class ScaledGenetic:
    """The scaled genetic covariances (Ũ, Ṽ) of a problem instance.

    Ṽ = (J/c)·V is always dense (P×P).  Ũ = N ⊗ Ṽ is held structurally as
    the pair (N, Ṽ) and materialized to a KP×KP matrix only on demand.
    """

    N: np.ndarray
    Vt: np.ndarray

    @property
    def K(self) -> int:
        return self.N.shape[0]

    @property
    def P(self) -> int:
        return self.Vt.shape[0]

    def dense(self) -> np.ndarray:
        """Materialize Ũ = N ⊗ Ṽ (guarded: K·P ≤ DENSE_KP_LIMIT)."""
        kp = self.K * self.P
        if kp > DENSE_KP_LIMIT:
            raise ValidationError(
                f"dense genetic covariance would be {kp}x{kp} (limit {DENSE_KP_LIMIT}); "
                "use a structured kinship path instead"
            )
        return np.kron(self.N, self.Vt)


def scaled_genetic_covariances(vc: VarianceComponents, J: int,
                               profile: SubRegionProfile,
                               kinship: _kinship.KinshipSpec) -> ScaledGenetic:
    """Scaled genetic covariances Ṽ = (J/c)V and Ũ = N ⊗ Ṽ (structural).

    The kinship must be positive definite; for dense matrices that are
    numerically singular, enable ``jitter`` on the spec.
    """
    if J < 1:
        raise ValidationError(f"J must be >= 1, got {J}")
    c = effective_error_constant(vc)
    n = _kinship.materialize(kinship)
    diag = _kinship.validate_pd(n)
    if not diag.is_pd:
        raise ValidationError(
            "kinship matrix is not positive definite "
            f"(min eigenvalue {diag.min_eigenvalue:.3e}); "
            f"a diagonal jitter of about {diag.suggested_jitter:.3e} would fix it"
        )
    return ScaledGenetic(N=frozen_array(n), Vt=frozen_array((J / c) * profile.V))
