"""A-type design criteria for genotype-effect and contrast prediction.

The criteria measure the summed prediction-error variance of genotype-effect
BLUPs (or of all pairwise contrasts between them) as a function of how the
trials of a multi-environment network are allocated to sub-regions.  All of
them share one backbone,

    phi(w) = tr[ (I_K ⊗ diag(w) + B)^-1 H ],   B = (I_K ⊗ R̃ + TNT ⊗ Ṽ)^-1,

with ``B`` and ``H`` design-independent positive (semi)definite matrices, so
every path is well defined even when some sub-regions receive weight zero.

Eigendecomposing the centred kinship TNT = QΛQᵀ makes the system
block-diagonal in the basis Q ⊗ I_P: with B_g = (R̃ + λ_g Ṽ)^-1,

    phi(w) = Σ_g tr[ (diag(w) + B_g)^-1 H_g ],   H_g = s_g B_g Ṽ L Ṽ B_g,

a stack of G traces of order P, where s_g is the g-th diagonal entry of
QᵀMQ (M = TN²T for effects, (TNT)² for contrasts) and L holds the
sub-regional weights.  The kinship decides where the spectrum comes from,
and ``path_used`` names it: exchangeable kinship has one eigen-group in
closed form (``bayes_cs``, reported per unit of its group weight), two-level
family blocks have two (``kbayes``), and any other kinship takes one K×K
``eigh`` per problem (``full``, one group per eigenvalue).  The dense eigen
reference of a structured kinship ``kin`` is ``DenseKinship(materialize(kin))``.

The network size J enters only as a scale: C_g(J) = C_g(1)/J while the roots
R_g of H_g = R_g R_gᵀ do not depend on J.  A problem therefore builds its
stack once, at J = 1, and derives the evaluator of any J from it by one
division, without a factorization.  Every number an evaluation gives
comes from one factor: the inverse Cholesky factor L^-1 of the G systems
diag(w) + C_g, one batched factorization costing O(G·P³), and a whole J
grid is one batched factorization of the (n_J, G, P, P) stack.  The value,
gradient and MSE trace follow from L^-1 times the roots, and the solvers'
one primitive reads the same factor: ``newton_terms`` gives the criterion
with its gradient and Hessian.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from ._checks import choice
from ._linalg import inverse_factor, spd_inverse, sym
from .errors import NumericalError, ValidationError
from .kinship import (BlockCompoundSymmetry, CompoundSymmetry, Identity,
                      KinshipSpec, materialize, validate_pd)
from .model import (Design, SubRegionProfile, VarianceComponents,
                    effective_error_constant, scaled_year_matrix)

__all__ = [
    "Target",
    "Weighting",
    "Path",
    "CriterionSpec",
    "CriterionValue",
    "DesignProblem",
]

# matrix entries per batched factorization of the criterion systems (2 MB of float64)
_BATCH_ENTRIES = 1 << 18
# the least positive normal float: a phi below it has underflowed
_TINY = float(np.finfo(float).tiny)


class Target(str, Enum):
    """What the criterion averages over: effects themselves, or pairwise contrasts."""

    EFFECTS = "effects"
    CONTRASTS = "contrasts"


class Weighting(str, Enum):
    """Plain trace, or trace weighted by sub-regional genotype counts."""

    STANDARD = "standard"
    WEIGHTED = "weighted"


class Path(str, Enum):
    """Evaluation path a problem takes, by its kinship: ``BAYES_CS``
    (exchangeable, one group), ``KBAYES`` (two-level family blocks, two
    groups) or ``FULL`` (any other kinship, one group per eigenvalue)."""

    FULL = "full"
    BAYES_CS = "bayes_cs"
    KBAYES = "kbayes"


@dataclass(frozen=True)
class CriterionSpec:
    """Choice of criterion: target and weighting."""

    target: Target = Target.EFFECTS
    weighting: Weighting = Weighting.STANDARD

    def __post_init__(self):
        object.__setattr__(self, "target", choice(Target, self.target, "target"))
        object.__setattr__(self, "weighting", choice(Weighting, self.weighting, "weighting"))


@dataclass(frozen=True)
class CriterionValue:
    """Criterion value at one design, with its gradient and the MSE trace.

    ``phi`` is the value of the evaluation path actually used (the
    ``bayes_cs`` path reports it per unit of its group weight).
    ``mse_trace`` is always the plain summed prediction-error variance of the
    target quantities for the given design and network size, independent of
    the criterion's weighting, so values are comparable across paths and
    match what evaluation reports print.
    """

    phi: float
    mse_trace: float
    path_used: Path
    gradient: np.ndarray


@dataclass(frozen=True, eq=False)
class _Spectrum:
    """The centred kinship TNT in eigen-groups, as far as one target sees it.

    ``lam`` holds one eigenvalue per group; ``weight`` the group weights s_g
    (diagonal of QᵀMQ summed over the group); ``prior`` the prior variance
    scale the MSE trace starts from (tr N for effects, tr TNT for contrasts).
    """

    lam: np.ndarray
    weight: np.ndarray
    prior: float


def _closed_form_spectrum(spec: KinshipSpec, target: Target):
    """Spectrum of exchangeable (one group) or two-level family-block (two
    groups) kinship, or None for any other structure.

    Degenerate family-block structures collapse to the exchangeable case: a
    single family is plain compound symmetry, singleton families are
    uncorrelated.
    """
    if isinstance(spec, (Identity, CompoundSymmetry)):
        a1, a = (1.0, 0.0) if isinstance(spec, Identity) else (spec.a1, spec.a)
        lam, mult, trace_n = [a1], [spec.K - 1], spec.K * (a1 + a)
    elif isinstance(spec, BlockCompoundSymmetry):
        f, m, b1, b = spec.f, spec.m, spec.b1, spec.b
        # within-family contrasts see b1, between-family ones b1 + m*b
        lam, mult, trace_n = [b1, b1 + m * b], [f * (m - 1), f - 1], f * m * (b1 + b)
    else:
        return None
    lam, mult = np.array(lam), np.array(mult, dtype=float)
    keep = mult > 0
    lam, mult = lam[keep], mult[keep]
    # TN²T and (TNT)² agree on these structures
    return _Spectrum(lam, mult * lam ** 2,
                     trace_n if target is Target.EFFECTS else float(mult @ lam))


def _eigen_spectrum(n: np.ndarray, target: Target) -> _Spectrum:
    """Spectrum of TNT for any kinship N: one group per eigenvalue, from one
    ``eigh`` and no K×K product.

    With n̄ the column means of N, TNT = N − n̄1ᵀ − 1n̄ᵀ + mean(N)·11ᵀ.  Each
    eigenvector q has N T q = λq + 1·(n̄ᵀTq), and q ⊥ 1 when λ ≠ 0, so its
    effect weight qᵀTN²Tq is λ² + K·(n̄ᵀTq)².
    """
    means = n.mean(axis=0)
    tnt = sym(n - means[:, None] - means[None, :] + means.mean())
    lam, q = np.linalg.eigh(tnt)
    # TNT is semidefinite, but eigh returns its null eigenvalue as ±1e-16·‖N‖,
    # and a negative one times Ṽ can outweigh R̃ in the inner matrix
    lam = np.maximum(lam, 0.0)
    if target is Target.CONTRASTS:
        return _Spectrum(lam, lam ** 2, float(np.trace(tnt)))
    shift = means @ (q - q.mean(axis=0))                # n̄ᵀTq per eigenvector
    return _Spectrum(lam, lam ** 2 + len(n) * shift ** 2, float(np.trace(n)))


class _TraceEvaluator:
    """phi(w) = Σ_g tr[(diag(w) + C_g)^-1 R_g R_gᵀ] over a stack of G groups.

    ``c`` and ``root`` are (G, P, P) arrays: C_g is positive definite and
    R_g R_gᵀ = H_g, the root being known in closed form from the build.  The
    reported MSE trace is ``factor * (trace + const)`` from the ``mse`` tuple
    (factor, root, const), the trace taken with the target's unweighted
    root.  :meth:`scaled` gives the evaluator of a larger network and
    :meth:`over_sizes` evaluates one design over many network sizes at once.

    Every number comes from one kernel, :meth:`_inverse_factor`, the only
    factorization of the criterion systems: :meth:`over_sizes` (and its views
    :meth:`phi`, :meth:`gradient` and :meth:`mse_trace`) and
    :meth:`newton_terms` both read its L^-1.
    """

    def __init__(self, c: np.ndarray, root: np.ndarray, mse: tuple):
        self.c = c
        self.root = root
        self._mse = mse

    def scaled(self, s: float) -> "_TraceEvaluator":
        """The evaluator of a network ``s`` times as large: C_g/s with the same
        roots, the MSE factor divided and the MSE constant multiplied by s."""
        factor, root, const = self._mse
        return _TraceEvaluator(self.c / s, self.root,
                               (factor / s, root, const * s))

    def _inverse_factor(self, w, sizes=1.0) -> np.ndarray:
        """L^-1 of the Cholesky factors LLᵀ = diag(w) + C_g/s, per group, for
        one design (P,) at one size or a stack ``sizes`` (n,)."""
        a = self.c / np.asarray(sizes, dtype=float)[..., None, None, None]
        p = a.shape[-1]
        a.reshape(-1, p * p)[:, ::p + 1] += w                 # its diagonal, in place
        return inverse_factor(a, "criterion system")

    def _batches(self, n: int):
        """Row slices of an n-long batch, each within _BATCH_ENTRIES entries."""
        step = max(1, _BATCH_ENTRIES // self.root.size)
        return [slice(lo, lo + step) for lo in range(0, n, step)]

    def over_sizes(self, w, sizes):
        """phi (n,), MSE trace (n,) and gradient (n, P) of one design ``w`` in
        the networks ``sizes`` (n,) times as large as this one.

        With Y = L^-1 R, phi is ‖Y‖², the MSE trace the same of the MSE
        root, and the gradient -diag Σ_g X_g X_gᵀ with X = L^-ᵀY = A^-1 R.
        A long ``sizes`` is taken in batches of bounded memory.

        phi is positive in exact arithmetic, so one below the least normal
        float has underflowed and raises :class:`NumericalError`.
        """
        s = np.asarray(sizes, dtype=float)
        factor, mse_root, const = self._mse
        phi, mse, grad = np.empty(s.size), np.empty(s.size), np.empty((s.size, len(w)))
        for rows in self._batches(s.size):
            l_inv = self._inverse_factor(w, s[rows])
            y, y_mse = l_inv @ self.root, l_inv @ mse_root
            x = np.swapaxes(l_inv, -1, -2) @ y
            phi[rows] = np.einsum("ngij,ngij->n", y, y)
            mse[rows] = factor / s[rows] * (np.einsum("ngij,ngij->n", y_mse, y_mse)
                                            + const * s[rows])
            grad[rows] = -np.einsum("ngij,ngij->ni", x, x)
        if np.any(phi < _TINY):
            raise NumericalError(f"the criterion underflows (phi = {phi.min():.3g}, below "
                                 f"{_TINY:.3g}): the model's scales are too small")
        return phi, mse, grad

    def phi(self, w) -> float:
        return float(self.over_sizes(w, [1])[0][0])

    def gradient(self, w) -> np.ndarray:
        return self.over_sizes(w, [1])[2][0]

    def mse_trace(self, w) -> float:
        return float(self.over_sizes(w, [1])[1][0])

    def newton_terms(self, w):
        """phi, gradient and Hessian at one design.

        With M = A^-1 and N = A^-1 H A^-1 per group, the gradient is
        -diag Σ_g N_g and the Hessian 2 Σ_g M_g ∘ N_g.
        """
        l_inv = self._inverse_factor(w)
        l_inv_t = l_inv.transpose(0, 2, 1)
        y = l_inv @ self.root
        x = l_inv_t @ y                                       # A^-1 R
        m, nn = l_inv_t @ l_inv, x @ x.transpose(0, 2, 1)
        return (float(np.vdot(y, y)), -nn.sum(axis=0).diagonal(),
                2.0 * (m * nn).sum(axis=0))


@dataclass(frozen=True, eq=False)
class DesignProblem:
    """A criterion bound to a trial network, reusable across designs.

    The group stack is built once per problem, at J = 1; the evaluator of any
    network size J is derived from it by one division (C_g/J), so every
    evaluation costs one batched Cholesky of the group systems, and
    :meth:`values` evaluates a whole J grid with one.
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
        closed = _closed_form_spectrum(self.kinship, self.criterion.target)
        object.__setattr__(self, "path_used", Path.FULL if closed is None
                           else (Path.BAYES_CS, Path.KBAYES)[len(closed.lam) - 1])
        if closed is not None:
            self.__dict__["_spectrum"] = closed      # the cached_property's value

    @property
    def P(self) -> int:
        return self.profile.P

    def evaluator(self, J: int) -> _TraceEvaluator:
        """The evaluator at network size J, derived from the J = 1 stack."""
        if not J >= 1:
            raise ValidationError(f"J must be >= 1, got {J!r}")
        return self._core.scaled(J)

    @cached_property
    def _spectrum(self) -> _Spectrum:
        """The full path's spectrum; a closed form is set at construction."""
        n = materialize(self.kinship)
        diag = validate_pd(n)
        if not diag.is_pd:
            raise ValidationError(
                "kinship matrix is not positive definite "
                f"(min eigenvalue {diag.min_eigenvalue:.3e}); "
                f"a diagonal jitter of about {diag.suggested_jitter:.3e} would fix it"
            )
        return _eigen_spectrum(n, self.criterion.target)

    @cached_property
    def _core(self) -> _TraceEvaluator:
        """The stack at J = 1: systems C_g = B_g = (R̃ + λ_g Ṽ)^-1 and roots
        R_g = √s_g B_g Ṽ L^½.

        R̃ and Ṽ grow as J, so at size J the systems are C_g/J and the roots
        stay; the MSE factor falls as 1/J and the MSE constant grows as J.
        """
        spectrum = self._spectrum
        scale = 1.0 / effective_error_constant(self.vc)
        vt = scale * self.profile.V
        inner = scaled_year_matrix(self.vc, 1, self.P) + spectrum.lam[:, None, None] * vt
        try:
            b = spd_inverse(inner, "criterion inner matrix")
        except NumericalError:
            # positive definite in exact arithmetic (τ > 0, λ_g >= 0), so τ
            # was lost to rounding beside ω or λ_g·Ṽ
            raise ValidationError(
                f"sigma2_tau = {self.vc.sigma2_tau!r} is too small beside "
                f"sigma2_omega = {self.vc.sigma2_omega!r} (and the kinship and V "
                "scales): the criterion's inner matrix is not positive definite "
                "at working precision"
            ) from None
        bv = b @ vt

        def root(weight):
            return np.sqrt(weight)[:, None, None] * bv

        # the exchangeable path reports phi per unit of its one group's weight
        weight = np.ones(1) if self.path_used is Path.BAYES_CS else spectrum.weight
        ell = (np.sqrt(self.profile.ell) if self.criterion.weighting is Weighting.WEIGHTED
               else 1.0)
        trace_bv2 = np.einsum("gij,ji->g", bv, vt)           # tr(B_g Ṽ²)
        mse = ((1 if self.criterion.target is Target.EFFECTS else self.kinship.K) / scale,
               root(spectrum.weight),
               spectrum.prior * np.trace(vt) - spectrum.weight @ trace_bv2)
        return _TraceEvaluator(b, root(weight) * ell, mse)

    def phi(self, design: Design) -> float:
        return self.value(design).phi

    def gradient(self, design: Design) -> np.ndarray:
        return self.value(design).gradient

    def mse_trace(self, design: Design) -> float:
        return self.value(design).mse_trace

    def values(self, design: Design, Js=None) -> list:
        """The design's weights evaluated at every network size in ``Js``
        (default: the design's own J), one :class:`CriterionValue` per size,
        from one batched Cholesky."""
        js = np.array([design.J] if Js is None else Js)
        if js.ndim != 1 or not np.issubdtype(js.dtype, np.integer) or np.any(js < 1):
            raise ValidationError(f"Js must be a list of integers >= 1, got {Js!r}")
        phi, mse, grad = self._core.over_sizes(design.weights, js)
        return [CriterionValue(phi=float(phi[k]), mse_trace=float(mse[k]),
                               path_used=self.path_used, gradient=grad[k])
                for k in range(len(js))]

    def value(self, design: Design) -> CriterionValue:
        return self.values(design)[0]
