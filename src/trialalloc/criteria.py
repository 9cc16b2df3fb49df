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
sub-regional weights.  The evaluation path says where the spectrum comes
from.  A criterion asks for ``auto``, the closed form where the kinship has
one, or ``full``, the dense eigen reference; ``path_used`` names what was
used: exchangeable kinship has one eigen-group in closed form (``bayes_cs``,
reported per unit of its group weight), two-level family blocks have two
(``kbayes``), and any other kinship, or a criterion that asks for ``full``,
takes one K×K ``eigh`` per problem (``full``, one group per eigenvalue).

The network size J enters only as a scale: C_g(J) = C_g(1)/J while the roots
R_g of H_g = R_g R_gᵀ do not depend on J.  A problem therefore builds its
stack once, at J = 1, and derives the evaluator of any J from it by one
division, without a factorization.  Every number an evaluation gives
comes from one factor: the inverse Cholesky factor L^-1 of the G systems
diag(w) + C_g, one batched factorization costing O(G·P³), and a whole J
grid is one batched factorization of the (n_J, G, P, P) stack.  The value,
gradient and MSE trace follow from L^-1 times the roots, and the solvers'
primitives read the same factor: ``newton_terms`` gives the criterion with
its gradient and Hessian, ``line`` turns the criterion along a segment into
a rational function of the step, and ``transfer_scores`` prices every
single-location transfer of a stack of designs, each move being a rank-2
update of the group systems that Woodbury's identity resolves as a 2×2
system.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import combinations

import numpy as np

from ._checks import choice
from ._linalg import inverse_factor, spd_inverse, sym
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
]

_CONTRAST_K_LIMIT = 12
# matrix entries per batched factorization of the criterion systems (2 MB of float64)
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
    """Evaluation path.  A criterion asks for ``AUTO`` or ``FULL``; a problem's
    ``path_used`` is ``BAYES_CS`` (exchangeable, one group), ``KBAYES``
    (two-level family blocks, two groups) or ``FULL``."""

    AUTO = "auto"
    FULL = "full"
    BAYES_CS = "bayes_cs"
    KBAYES = "kbayes"


@dataclass(frozen=True)
class CriterionSpec:
    """Choice of criterion: target, weighting and evaluation path (``auto``
    or ``full``)."""

    target: Target = Target.EFFECTS
    weighting: Weighting = Weighting.STANDARD
    path: Path = Path.AUTO

    def __post_init__(self):
        object.__setattr__(self, "target", choice(Target, self.target, "target"))
        object.__setattr__(self, "weighting", choice(Weighting, self.weighting, "weighting"))
        object.__setattr__(self, "path", choice(Path, self.path, "path",
                                                (Path.AUTO, Path.FULL)))


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


def _pairwise_contrasts(k: int) -> np.ndarray:
    """All K(K-1)/2 pairwise difference rows, (1,2), (1,3), ..., (K-1,K)."""
    rows = np.zeros((k * (k - 1) // 2, k))
    for idx, (i, j) in enumerate(combinations(range(k), 2)):
        rows[idx, i], rows[idx, j] = 1.0, -1.0
    return rows


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
        a1 += spec.jitter
        lam, mult, trace_n = [a1], [spec.K - 1], spec.K * (a1 + a)
    elif isinstance(spec, BlockCompoundSymmetry):
        f, m, b1, b = spec.f, spec.m, spec.b1 + spec.jitter, spec.b
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
    """Spectrum of TNT for any kinship N: one group per eigenvalue."""
    t = centering_matrix(len(n))
    tnt = sym(t @ n @ t)
    lam, q = np.linalg.eigh(tnt)
    if target is Target.CONTRASTS:
        return _Spectrum(lam, lam ** 2, float(np.trace(tnt)))
    ntq = n @ (q - q.mean(axis=0))      # N T Q, so diag(QᵀTN²TQ) is its column norms
    return _Spectrum(lam, np.einsum("ij,ij->j", ntq, ntq), float(np.trace(n)))


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
    :meth:`phi`, :meth:`gradient` and :meth:`mse_trace`),
    :meth:`newton_terms` and :meth:`transfer_scores` all read its L^-1.
    """

    def __init__(self, path: Path, c: np.ndarray, root: np.ndarray, mse: tuple):
        self.path = path
        self.c = c
        self.root = root
        self._mse = mse

    def scaled(self, s: float) -> "_TraceEvaluator":
        """The evaluator of a network ``s`` times as large: C_g/s with the same
        roots, the MSE factor divided and the MSE constant multiplied by s."""
        factor, root, const = self._mse
        return _TraceEvaluator(self.path, self.c / s, self.root,
                               (factor / s, root, const * s))

    def _inverse_factor(self, w, sizes=1.0) -> np.ndarray:
        """L^-1 of the Cholesky factors LLᵀ = diag(w) + C_g/s, per group, for
        one design (P,) or a stack (n, P), at one size or a stack ``sizes``
        (n,)."""
        w = np.asarray(w, dtype=float)
        s = np.asarray(sizes, dtype=float)[..., None, None, None]
        a = self.c / s + w[..., None, :, None] * np.eye(self.c.shape[-1])
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
        return phi, mse, grad

    def phi(self, w) -> float:
        return float(self.over_sizes(w, [1])[0][0])

    def gradient(self, w) -> np.ndarray:
        return self.over_sizes(w, [1])[2][0]

    def mse_trace(self, w) -> float:
        return float(self.over_sizes(w, [1])[1][0])

    def line(self, l_inv, d):
        """(h, λ) with phi(x + t·d) = Σ h_i / (1 + t λ_i) while x + t·d >= 0.

        ``l_inv`` is L^-1 per group for A(x) = LLᵀ, as :meth:`newton_terms`
        returns it at x.  With L^-1 diag(d) L^-ᵀ = QΛQᵀ, h is the diagonal of
        Qᵀ L^-1 H L^-ᵀ Q.  Every h_i >= 0.
        """
        l_inv_t = np.swapaxes(l_inv, 1, 2)
        lam, q = np.linalg.eigh((l_inv * np.asarray(d, dtype=float)) @ l_inv_t)
        y = np.swapaxes(q, 1, 2) @ (l_inv @ self.root)
        return np.einsum("gij,gij->gi", y, y).ravel(), lam.ravel()

    def _inverse_terms(self, w):
        """phi, M = A^-1, N = A^-1 H A^-1 and L^-1 per group, for one design
        (P,) or a stack (n, P)."""
        l_inv = self._inverse_factor(w)
        l_inv_t = np.swapaxes(l_inv, -1, -2)
        y = l_inv @ self.root
        x = l_inv_t @ y                                       # A^-1 R
        return (np.einsum("...gij,...gij->...", y, y), l_inv_t @ l_inv,
                x @ np.swapaxes(x, -1, -2), l_inv)

    def newton_terms(self, w):
        """phi, gradient, Hessian and the factor L^-1 at one design.

        The gradient is -diag Σ_g N_g and the Hessian 2 Σ_g M_g ∘ N_g, with
        M = A^-1 and N = A^-1 H A^-1; :meth:`line` takes the L^-1 at the
        same design.
        """
        phi, m, nn, l_inv = self._inverse_terms(w)
        return (float(phi), -np.einsum("gii->i", nn),
                2.0 * np.einsum("gij,gij->ij", m, nn), l_inv)

    def transfer_scores(self, weights, step: float):
        """phi of each row of an (n, P) stack, and the exact change of phi
        when ``step`` weight moves from region i to region k.

        Returns (phi (n,), delta (n, P, P)).  Per group a transfer is the
        rank-2 update A + U D Uᵀ with U = [e_i, e_k] and D = diag(-step,
        step); with M = A^-1 and N = A^-1 H A^-1, Woodbury gives the change as
        -tr(S^-1 Uᵀ N U), S = D^-1 + Uᵀ M U, a 2×2 system solved in closed
        form.  The diagonal i = k is zero up to rounding.  Each row's values
        depend on that row alone, not on the rest of the stack; its phi may
        differ from :meth:`phi` in the last digits.
        """
        weights = np.atleast_2d(np.asarray(weights, dtype=float))
        n, p = weights.shape
        phi, delta = np.empty(n), np.empty((n, p, p))
        inv_step = 1.0 / step
        for rows in self._batches(n):
            phi[rows], m, nn, _ = self._inverse_terms(weights[rows])
            m_d = np.diagonal(m, axis1=-2, axis2=-1)
            n_d = np.diagonal(nn, axis1=-2, axis2=-1)
            s_ii = m_d[..., :, None] - inv_step
            s_kk = m_d[..., None, :] + inv_step
            num = s_kk * n_d[..., :, None] - 2.0 * m * nn + s_ii * n_d[..., None, :]
            delta[rows] = -(num / (s_ii * s_kk - m * m)).sum(axis=1)
        return phi, delta


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
        closed = (_closed_form_spectrum(self.kinship, self.criterion.target)
                  if self.criterion.path is Path.AUTO else None)
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
        # N itself does not depend on J; this validates it positive definite
        return _eigen_spectrum(scaled_genetic_covariances(self.vc, 1, self.profile,
                                                          self.kinship).N,
                               self.criterion.target)

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
        b = spd_inverse(inner, "criterion inner matrix")
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
        return _TraceEvaluator(self.path_used, b, root(weight) * ell, mse)

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


# ---------------------------------------------------------------------------
# Functional interface


def mse_effects_full(design: Design, vc: VarianceComponents,
                     profile: SubRegionProfile, kinship: KinshipSpec) -> np.ndarray:
    """Full KP×KP prediction-error covariance of the genotype-effect BLUPs.

    Requires strictly positive allocation everywhere — the matrix itself (as
    opposed to the criteria) is not defined for empty sub-regions.  For an
    exact design this is the per-observation error covariance; trace slices
    of it are what :meth:`DesignProblem.mse_trace` reports.
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
