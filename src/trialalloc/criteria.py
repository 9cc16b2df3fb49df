"""A-type design criteria for genotype-effect and contrast prediction.

The criteria measure the summed prediction-error variance of genotype-effect
BLUPs (or of all pairwise contrasts between them) as a function of how the
trials of a multi-environment network are allocated to sub-regions.  All of
them share one backbone,

    phi(w) = tr[ (I ⊗ diag(w) + B)^-1 H ],

with ``B`` and ``H`` design-independent positive (semi)definite matrices, so
every path is well defined even when some sub-regions receive weight zero.

Which path evaluates ``phi`` depends on the genetic covariance structure.
Exchangeable (compound-symmetry) kinship collapses the K·P-dimensional trace
to a single P-dimensional one; two-level family-block kinship collapses it to
two such traces (the ``cbrc`` path) or, equivalently, a block-diagonal
2P-dimensional one (the ``kbayes`` path).  A general dense kinship has to go
through the full K·P assembly.  ``Path.AUTO`` picks the cheapest valid path.

Every path is a sum of terms tr[(I_m ⊗ diag(w) + C)^-1 H] (m = 1 twice for
``cbrc``, m = 2 for ``kbayes``, m = K for ``full``), so all of them share the
solver's two bulk primitives: ``line`` turns the criterion along a segment
into a rational function of the step, and ``phi_many`` scores a stack of
designs with one batched factorization per term.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import combinations

import numpy as np

from ._linalg import solve_lower, spd_cholesky, spd_inverse, spd_solve, sym
from .errors import ValidationError
from .kinship import (BlockCompoundSymmetry, CompoundSymmetry, Identity,
                      KinshipSpec)
from .model import (DENSE_KP_LIMIT, Design, SubRegionProfile,
                    VarianceComponents, effective_error_constant,
                    centering_matrix, scaled_genetic_covariances,
                    scaled_year_matrix)

__all__ = [
    "Target",
    "Weighting",
    "Path",
    "CriterionSpec",
    "CriterionValue",
    "DesignProblem",
    "mse_effects_full",
    "mse_contrasts_full",
    "phi_effects",
    "phi_contrasts",
    "phi_bayes_cs",
    "phi_cbrc_blockcs",
    "phi_kbayes_blockcs",
    "mse_trace_report",
]

_CONTRAST_K_LIMIT = 12
# matrix entries per batched factorization in phi_many (2 MB of float64)
_BATCH_ENTRIES = 1 << 18


class Target(str, Enum):
    """What the criterion averages over: effects themselves, or pairwise contrasts."""

    EFFECTS = "effects"
    CONTRASTS = "contrasts"


class Weighting(str, Enum):
    """Plain trace, or trace weighted by sub-regional genotype counts."""

    STANDARD = "standard"
    WEIGHTED = "weighted"


class Path(str, Enum):
    AUTO = "auto"
    FULL = "full"
    BAYES_CS = "bayes_cs"
    KBAYES = "kbayes"
    CBRC = "cbrc"


@dataclass(frozen=True)
class CriterionSpec:
    """Choice of criterion: target, weighting and evaluation path."""

    target: Target = Target.EFFECTS
    weighting: Weighting = Weighting.STANDARD
    path: Path = Path.AUTO

    def __post_init__(self):
        object.__setattr__(self, "target", Target(self.target))
        object.__setattr__(self, "weighting", Weighting(self.weighting))
        object.__setattr__(self, "path", Path(self.path))


@dataclass(frozen=True)
class CriterionValue:
    """Criterion value at one design, with its gradient and the MSE trace.

    ``phi`` is the value of the evaluation path actually used (reduced paths
    report the reduced criterion).  ``mse_trace`` is always the plain summed
    prediction-error variance of the target quantities for the given design
    and network size, independent of the criterion's weighting, so values
    are comparable across paths and match what evaluation reports print.
    """

    phi: float
    mse_trace: float
    path_used: Path
    gradient: np.ndarray


def _pairwise_contrasts(k: int) -> np.ndarray:
    """All K(K-1)/2 pairwise difference rows, (1,2), (1,3), ..., (K-1,K)."""
    rows = np.zeros((k * (k - 1) // 2, k))
    for idx, (i, j) in enumerate(combinations(range(k), 2)):
        rows[idx, i], rows[idx, j] = 1.0, -1.0
    return rows


def _weight_matrix(profile: SubRegionProfile, weighting: Weighting) -> np.ndarray:
    if weighting is Weighting.STANDARD:
        return np.eye(profile.P)
    if profile.ell is None:
        raise ValidationError(
            "weighted criteria need sub-regional genotype counts (profile.ell)"
        )
    return np.diag(profile.ell)


def _cs_params(spec: KinshipSpec):
    """Exchangeable-structure parameters (K, a1, a), or None if not exchangeable.

    Degenerate family-block structures collapse to this case: a single family
    is plain compound symmetry, singleton families are uncorrelated.
    """
    if isinstance(spec, Identity):
        return spec.K, 1.0 + spec.jitter, 0.0
    if isinstance(spec, CompoundSymmetry):
        return spec.K, spec.a1 + spec.jitter, spec.a
    if isinstance(spec, BlockCompoundSymmetry):
        if spec.f == 1:
            return spec.m, spec.b1 + spec.jitter, spec.b
        if spec.m == 1:
            return spec.f, spec.b + spec.b1 + spec.jitter, 0.0
    return None


def _block_params(spec: KinshipSpec):
    if isinstance(spec, BlockCompoundSymmetry) and spec.f >= 2 and spec.m >= 2:
        return spec.f, spec.m, spec.b1 + spec.jitter, spec.b
    return None


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = len(a)
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n], out[n:, n:] = a, b
    return out


class _Term:
    """One trace term tr[(I_m ⊗ diag(w) + C)^-1 H] over P sub-regions.

    ``C`` is symmetric positive definite and ``H`` symmetric positive
    semidefinite, both of order m·P.
    """

    def __init__(self, c: np.ndarray, h: np.ndarray, P: int):
        self.c, self.h = c, h
        self.m = c.shape[0] // P
        self._region = np.arange(c.shape[0]) % P    # sub-region of each row

    def system(self, w: np.ndarray) -> np.ndarray:
        a = self.c.copy()
        a.reshape(-1)[::len(a) + 1] += np.asarray(w)[self._region]
        return a

    def phi(self, w: np.ndarray) -> float:
        return float(np.trace(spd_solve(self.system(w), self.h, "criterion system")))

    def gradient(self, w: np.ndarray) -> np.ndarray:
        a_inv = spd_inverse(self.system(w), "criterion system")
        diag = np.einsum("ij,jk,ki->i", a_inv, self.h, a_inv)
        return diag.reshape(self.m, -1).sum(axis=0)

    @cached_property
    def root(self) -> np.ndarray:
        """R with R Rᵀ = H, from the positive part of the spectrum of H.

        Kept in Fortran order, which spares LAPACK a copy per triangular solve.
        """
        s, u = np.linalg.eigh(self.h)
        keep = s > 0
        return np.asfortranarray(u[:, keep] * np.sqrt(s[keep]))

    def line(self, x: np.ndarray, d: np.ndarray):
        """(h, λ) with tr[(A(x) + t·A(d))^-1 H] = Σ h_i / (1 + t λ_i)."""
        chol = spd_cholesky(self.system(x), "criterion system")
        l_inv = solve_lower(chol, np.eye(len(chol)))
        lam, q = np.linalg.eigh((l_inv * d[self._region]) @ l_inv.T)
        y = q.T @ (l_inv @ self.root)
        return np.einsum("ij,ij->i", y, y), lam

    def phi_many(self, weights: np.ndarray) -> np.ndarray:
        n, dim = len(weights), self.c.shape[0]
        out = np.empty(n)
        step = max(1, _BATCH_ENTRIES // dim ** 2)
        for lo in range(0, n, step):
            w = weights[lo:lo + step]
            a = np.repeat(self.c[None], len(w), axis=0)
            a.reshape(len(w), -1)[:, ::dim + 1] += w[:, self._region]
            y = solve_lower(spd_cholesky(a, "criterion system"), self.root)
            out[lo:lo + step] = np.einsum("nij,nij->n", y, y)
        return out


class _TraceEvaluator:
    """A criterion as a sum of trace terms, with its MSE traces as affine images.

    phi(w) = Σ_terms tr[(I_m ⊗ diag(w) + C)^-1 H].  The reported MSE trace of
    each target is ``factor * (Σ_std-terms trace + const)`` over terms of the
    same shape that carry the unweighted H.
    """

    def __init__(self, path: Path, terms: list, mse: dict):
        self.path = path
        self.terms = terms
        self._mse = mse

    def phi(self, w) -> float:
        return sum(t.phi(w) for t in self.terms)

    def gradient(self, w) -> np.ndarray:
        return -sum(t.gradient(w) for t in self.terms)

    def line(self, x, d):
        """(h, λ) with phi(x + t·d) = Σ h_i / (1 + t λ_i) while x + t·d >= 0.

        Per term, A(x) = LLᵀ and L^-1 (I_m ⊗ diag(d)) L^-ᵀ = QΛQᵀ, so h is
        the diagonal of Qᵀ L^-1 H L^-ᵀ Q.  Every h_i >= 0.
        """
        parts = [t.line(np.asarray(x, dtype=float), np.asarray(d, dtype=float))
                 for t in self.terms]
        return (np.concatenate([h for h, _ in parts]),
                np.concatenate([lam for _, lam in parts]))

    def phi_many(self, weights) -> np.ndarray:
        """phi of each row of an (n, P) stack, one batched Cholesky per term.

        Each row's value depends on that row alone, not on the rest of the
        stack, but may differ from :meth:`phi` in the last digits.
        """
        weights = np.atleast_2d(np.asarray(weights, dtype=float))
        return sum(t.phi_many(weights) for t in self.terms)

    def mse_trace(self, w, target: Target) -> float:
        factor, terms, const = self._mse[target]
        return factor * (sum(t.phi(w) for t in terms) + const)


def _bayes_cs_evaluator(vc, profile, params, J, spec: CriterionSpec):
    """Exchangeable-kinship path: a single P-dimensional trace.

    The exchangeable structure makes the effects and contrasts criteria
    proportional with the same constant, so one term serves both targets;
    only the reported MSE traces differ.
    """
    k, a1, a = params
    p = profile.P
    c = effective_error_constant(vc)
    mse_scale = c / J
    vt = (J / c) * np.asarray(profile.V)
    s_inv = spd_inverse(scaled_year_matrix(vc, J, p) + a1 * vt,
                        "exchangeable inner matrix")
    lmat = _weight_matrix(profile, spec.weighting)
    g = sym(s_inv @ vt @ lmat @ vt @ s_inv)
    if spec.weighting is not Weighting.STANDARD:
        g_std = sym(s_inv @ vt @ vt @ s_inv)
    else:
        g_std = g
    std = [_Term(s_inv, a1 ** 2 * (k - 1) * g_std, p)]
    # design-independent parts of the plain MSE traces
    contrast_const = a1 * (k - 1) * np.trace(vt - a1 * (vt @ s_inv @ vt))
    return _TraceEvaluator(Path.BAYES_CS, [_Term(s_inv, g, p)], {
        Target.EFFECTS: (mse_scale, std, contrast_const + (a * k + a1) * np.trace(vt)),
        Target.CONTRASTS: (mse_scale * k, std, contrast_const),
    })


def _family_block_evaluator(vc, profile, params, J, spec: CriterionSpec, path: Path):
    """Family-block paths: two P-dimensional traces (``cbrc``) or, with the
    same value, one block-diagonal 2P-dimensional trace (``kbayes``)."""
    f, m, b1, b = params
    p = profile.P
    c = effective_error_constant(vc)
    mse_scale = c / J
    vt = (J / c) * np.asarray(profile.V)
    rt = scaled_year_matrix(vc, J, p)
    lmat = _weight_matrix(profile, spec.weighting)
    # within-family contrasts see b1*V, between-family ones (m*b + b1)*V
    v = (b1 * vt, (m * b + b1) * vt)
    s_inv = [spd_inverse(rt + vi, "family-block inner matrix") for vi in v]
    mult = (f * (m - 1), f - 1)
    h = [q * sym(si @ vi @ lmat @ vi @ si) for q, si, vi in zip(mult, s_inv, v)]
    pair = [_Term(si, hi, p) for si, hi in zip(s_inv, h)]
    if spec.weighting is Weighting.STANDARD:
        std = pair
    else:
        std = [_Term(si, q * sym(si @ vi @ vi @ si), p)
               for q, si, vi in zip(mult, s_inv, v)]
    terms = pair if path is Path.CBRC else [_Term(_block_diag(*s_inv), _block_diag(*h), p)]
    resid = [np.trace(vi - vi @ si @ vi) for vi, si in zip(v, s_inv)]
    const_contrasts = mult[0] * resid[0] + mult[1] * resid[1]
    return _TraceEvaluator(path, terms, {
        Target.EFFECTS: (mse_scale, std, const_contrasts + np.trace(v[1])),
        Target.CONTRASTS: (mse_scale * f * m, std, const_contrasts),
    })


def _full_evaluator(vc, profile, kinship, J, spec: CriterionSpec):
    """General-kinship path: literal K·P-dimensional assembly.

    Valid for every structure; required for dense kinship, where the
    all-genotypes mean need not be an eigenvector and effects- and
    contrasts-optimal allocations can genuinely differ.
    """
    sg = scaled_genetic_covariances(vc, J, profile, kinship)
    n, vt = sg.N, sg.Vt
    k, p = sg.K, profile.P
    c = effective_error_constant(vc)
    mse_scale = c / J
    rt = scaled_year_matrix(vc, J, p)
    t = centering_matrix(k)
    tnt = sym(t @ n @ t)
    base = spd_inverse(np.kron(np.eye(k), rt) + np.kron(tnt, vt),
                       "criterion base matrix")
    lmat = _weight_matrix(profile, spec.weighting)
    vv = vt @ vt
    mid = {Target.EFFECTS: sym(t @ n @ n @ t),
           Target.CONTRASTS: sym(t @ n @ t @ n @ t)}

    def h(target, inner):
        return sym(base @ np.kron(mid[target], inner) @ base)

    term = _Term(base, h(spec.target, sym(vt @ lmat @ vt)), p)
    std = {target: [term] if target is spec.target and spec.weighting is Weighting.STANDARD
           else [_Term(base, h(target, vv), p)] for target in Target}
    # design-independent parts of the plain MSE traces
    const = {Target.EFFECTS: np.trace(n) * np.trace(vt),
             Target.CONTRASTS: np.trace(n @ t) * np.trace(vt)}
    return _TraceEvaluator(Path.FULL, [term], {
        target: (mse_scale * (k if target is Target.CONTRASTS else 1), std[target],
                 const[target] - np.trace(base @ np.kron(mid[target], vv)))
        for target in Target
    })


def _route(kinship: KinshipSpec, path: Path) -> Path:
    cs = _cs_params(kinship)
    block = _block_params(kinship)
    if path is Path.AUTO:
        if cs is not None:
            return Path.BAYES_CS
        if block is not None:
            return Path.KBAYES
        return Path.FULL
    if path is Path.BAYES_CS and cs is None:
        raise ValidationError(
            "the exchangeable path needs identity, compound-symmetry or "
            "single-level family-block kinship; use the kbayes/cbrc paths for "
            "two-level family blocks or the full path for dense kinship"
        )
    if path in (Path.KBAYES, Path.CBRC) and block is None:
        if cs is not None:
            raise ValidationError(
                f"the {path.value} path needs family-block kinship with at least "
                "two families of at least two genotypes; this structure is "
                "exchangeable — use the bayes_cs path"
            )
        raise ValidationError(
            f"the {path.value} path needs family-block kinship; use the full "
            "path for dense kinship"
        )
    return path


@dataclass(frozen=True, eq=False)
class DesignProblem:
    """A criterion bound to a trial network, reusable across designs.

    Evaluation-path precomputations depend on the design only through the
    network size J, so they are cached per J; repeated evaluations during
    optimization cost one small linear solve each.
    """

    vc: VarianceComponents
    profile: SubRegionProfile
    kinship: KinshipSpec
    criterion: CriterionSpec = field(default_factory=CriterionSpec)

    def __post_init__(self):
        if not isinstance(self.criterion, CriterionSpec):
            raise ValidationError("criterion must be a CriterionSpec")
        if self.criterion.weighting is Weighting.WEIGHTED and self.profile.ell is None:
            raise ValidationError(
                "weighted criteria need sub-regional genotype counts (profile.ell)"
            )
        # resolve (and validate) the path once, design-independently
        object.__setattr__(self, "path_used", _route(self.kinship, self.criterion.path))
        object.__setattr__(self, "_evaluators", {})
        object.__setattr__(self, "_lock", threading.Lock())

    @property
    def P(self) -> int:
        return self.profile.P

    def evaluator(self, J: int):
        with self._lock:
            ev = self._evaluators.get(J)
            if ev is None:
                ev = self._build(J)
                self._evaluators[J] = ev
            return ev

    def _build(self, J: int):
        path = self.path_used
        if path is Path.BAYES_CS:
            return _bayes_cs_evaluator(self.vc, self.profile, _cs_params(self.kinship),
                                       J, self.criterion)
        if path in (Path.CBRC, Path.KBAYES):
            return _family_block_evaluator(self.vc, self.profile,
                                           _block_params(self.kinship), J,
                                           self.criterion, path)
        return _full_evaluator(self.vc, self.profile, self.kinship, J, self.criterion)

    def phi(self, design: Design) -> float:
        return self.evaluator(design.J).phi(design.weights)

    def gradient(self, design: Design) -> np.ndarray:
        return self.evaluator(design.J).gradient(design.weights)

    def mse_trace(self, design: Design) -> float:
        return self.evaluator(design.J).mse_trace(design.weights,
                                                  self.criterion.target)

    def value(self, design: Design) -> CriterionValue:
        ev = self.evaluator(design.J)
        w = design.weights
        return CriterionValue(
            phi=ev.phi(w),
            mse_trace=ev.mse_trace(w, self.criterion.target),
            path_used=ev.path,
            gradient=ev.gradient(w),
        )


# ---------------------------------------------------------------------------
# Functional interface


def mse_effects_full(design: Design, vc: VarianceComponents,
                     profile: SubRegionProfile, kinship: KinshipSpec) -> np.ndarray:
    """Full KP×KP prediction-error covariance of the genotype-effect BLUPs.

    Requires strictly positive allocation everywhere — the matrix itself (as
    opposed to the criteria) is not defined for empty sub-regions.  For an
    exact design this is the per-observation error covariance; trace slices
    of it are what :func:`mse_trace_report` reports.
    """
    if np.any(design.weights <= 0):
        raise ValidationError(
            "the full MSE matrix needs positive weight in every sub-region; "
            "empty sub-regions are only supported by the criterion paths"
        )
    sg = scaled_genetic_covariances(vc, design.J, profile, kinship)
    if sg.K * profile.P > DENSE_KP_LIMIT:
        raise ValidationError(
            f"dense prediction-error covariance is guarded to K*P <= "
            f"{DENSE_KP_LIMIT} (got {sg.K * profile.P}); use the trace criteria"
        )
    c = effective_error_constant(vc)
    rt = scaled_year_matrix(vc, design.J, profile.P)
    inner = spd_inverse(np.diag(1.0 / design.weights) + rt, "per-region information")
    u_inv = np.kron(spd_inverse(sg.N, "kinship"), spd_inverse(sg.Vt, "genetic covariance"))
    t = centering_matrix(sg.K)
    mse = spd_inverse(np.kron(t, inner) + u_inv, "prediction-error system")
    return (c / design.J) * mse


def mse_contrasts_full(design: Design, vc: VarianceComponents,
                       profile: SubRegionProfile, kinship: KinshipSpec) -> np.ndarray:
    """Prediction-error covariance of all pairwise genotype contrasts.

    The row count grows quadratically in K, so this is guarded to K <= 12;
    use the trace criteria for anything larger.
    """
    sg = scaled_genetic_covariances(vc, design.J, profile, kinship)
    if sg.K > _CONTRAST_K_LIMIT:
        raise ValidationError(
            f"pairwise-contrast covariance is guarded to K <= {_CONTRAST_K_LIMIT} "
            f"(got K={sg.K}); use the contrast trace criteria instead"
        )
    lift = np.kron(_pairwise_contrasts(sg.K), np.eye(profile.P))
    return lift @ mse_effects_full(design, vc, profile, kinship) @ lift.T


def _one_shot(design, vc, profile, kinship, target, weighting, path) -> CriterionValue:
    problem = DesignProblem(vc, profile, kinship,
                            CriterionSpec(target=target, weighting=weighting, path=path))
    return problem.value(design)


def phi_effects(design: Design, vc: VarianceComponents, profile: SubRegionProfile,
                kinship: KinshipSpec, weighting="standard") -> CriterionValue:
    """Effects criterion on the full path, any kinship, zero weights allowed."""
    return _one_shot(design, vc, profile, kinship, Target.EFFECTS, weighting, Path.FULL)


def phi_contrasts(design: Design, vc: VarianceComponents, profile: SubRegionProfile,
                  kinship: KinshipSpec, weighting="standard") -> CriterionValue:
    """Pairwise-contrast criterion on the full path."""
    return _one_shot(design, vc, profile, kinship, Target.CONTRASTS, weighting, Path.FULL)


def phi_bayes_cs(design: Design, vc: VarianceComponents, profile: SubRegionProfile,
                 kinship: KinshipSpec, weighting="standard") -> CriterionValue:
    """Reduced criterion for exchangeable kinship (P-dimensional).

    Effects- and contrast-optimal allocations coincide under exchangeability,
    so there is a single criterion here; the reported ``mse_trace`` is the
    effects trace.
    """
    return _one_shot(design, vc, profile, kinship, Target.EFFECTS, weighting,
                     Path.BAYES_CS)


def phi_cbrc_blockcs(design: Design, vc: VarianceComponents, profile: SubRegionProfile,
                     kinship: KinshipSpec, weighting="standard") -> CriterionValue:
    """Reduced family-block criterion as two P-dimensional traces."""
    return _one_shot(design, vc, profile, kinship, Target.EFFECTS, weighting, Path.CBRC)


def phi_kbayes_blockcs(design: Design, vc: VarianceComponents, profile: SubRegionProfile,
                       kinship: KinshipSpec, weighting="standard") -> CriterionValue:
    """Reduced family-block criterion as one block-diagonal 2P-dimensional trace."""
    return _one_shot(design, vc, profile, kinship, Target.EFFECTS, weighting, Path.KBAYES)


def mse_trace_report(design: Design, vc: VarianceComponents, profile: SubRegionProfile,
                     kinship: KinshipSpec, target="effects") -> float:
    """Summed prediction-error variance of the target quantities.

    This is the plain (unweighted) trace at the scale of the actual network —
    the number evaluation tables report — computed on the cheapest valid path.
    """
    problem = DesignProblem(vc, profile, kinship, CriterionSpec(target=Target(target)))
    return problem.mse_trace(design)
