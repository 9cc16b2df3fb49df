"""Brute-force reference implementations for testing the main paths.

Everything here is a deliberately literal transcription of the defining
expressions — explicit block design matrices, explicit Kronecker products,
explicit inverses — with guards that keep instances small.  The criterion
paths in :mod:`trialalloc.criteria` never share matrix-assembly code with
this module; that independence is the point.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ValidationError
from .kinship import (BlockCompoundSymmetry, CompoundSymmetry, DenseKinship,
                      Identity, KinshipSpec)
from .model import ModelVariant, SubRegionProfile, VarianceComponents

__all__ = [
    "OracleInstance",
    "mse_direct",
    "contrasts_matrix",
    "mse_direct_contrasts",
    "reduction_constants",
    "finite_difference_gradient",
    "enumerate_exact_optimum",
]

_MAX_K, _MAX_P, _MAX_J = 12, 6, 12
_MAX_ENUMERATION = 100_000


@dataclass(frozen=True, eq=False)
class OracleInstance:
    """A small exact-design problem instance for brute-force evaluation."""

    vc: VarianceComponents
    profile: SubRegionProfile
    kinship: KinshipSpec
    counts: tuple

    def __post_init__(self):
        counts = tuple(int(j) for j in self.counts)
        object.__setattr__(self, "counts", counts)
        if len(counts) != self.profile.P:
            raise ValidationError(
                f"counts has {len(counts)} entries for P={self.profile.P} sub-regions"
            )
        if any(j < 1 for j in counts):
            raise ValidationError("oracle instances need at least one trial per sub-region")
        if self.K > _MAX_K or self.profile.P > _MAX_P or self.J > _MAX_J:
            raise ValidationError(
                f"oracle guard: K <= {_MAX_K}, P <= {_MAX_P}, J <= {_MAX_J} "
                f"(got K={self.K}, P={self.profile.P}, J={self.J})"
            )

    @property
    def K(self) -> int:
        return self.kinship.K

    @property
    def J(self) -> int:
        return sum(self.counts)


def _kinship_dense(spec: KinshipSpec) -> np.ndarray:
    # Local transcription, independent of kinship.materialize.
    if isinstance(spec, Identity):
        n = np.eye(spec.K)
    elif isinstance(spec, CompoundSymmetry):
        k = spec.K
        n = spec.a1 * np.eye(k) + spec.a * np.ones((k, k))
    elif isinstance(spec, BlockCompoundSymmetry):
        block = spec.b1 * np.eye(spec.m) + spec.b * np.ones((spec.m, spec.m))
        n = np.kron(np.eye(spec.f), block)
    elif isinstance(spec, DenseKinship):
        n = np.array(spec.matrix, dtype=float)
        if spec.jitter:
            n = n + spec.jitter * np.eye(n.shape[0])
    else:
        raise ValidationError(f"unknown kinship spec: {type(spec).__name__}")
    return n


def _error_constant(vc: VarianceComponents) -> float:
    c = vc.sigma2_phi_plus_err_over_L / vc.H
    if vc.model_variant is ModelVariant.CROSS_CLASSIFIED:
        c = vc.sigma2_gamma + c
    return c


def _design_matrix(counts) -> np.ndarray:
    # F = block-diag(1_{J_1}, ..., 1_{J_P}), one column of ones per sub-region.
    total = sum(counts)
    f = np.zeros((total, len(counts)))
    row = 0
    for i, j in enumerate(counts):
        f[row:row + j, i] = 1.0
        row += j
    return f


def mse_direct(inst: OracleInstance) -> np.ndarray:
    """Prediction-error covariance of the genotype-effect BLUPs, assembled directly.

    Returns the KP×KP matrix

        { (1/c) T ⊗ [(FᵀF)⁻¹ + R]⁻¹ + U⁻¹ }⁻¹

    with F the explicit location-incidence design matrix,
    R = (σ²_τ I_P + σ²_ω 11ᵀ)/(cH), U = N ⊗ V, and T the centering
    projector.  The optimized evaluation path reproduces this matrix up to
    the overall constant c/J.
    """
    vc, profile = inst.vc, inst.profile
    p, k = profile.P, inst.K
    c = _error_constant(vc)
    f = _design_matrix(inst.counts)
    ftf = f.T @ f
    r = (vc.sigma2_tau / (c * vc.H)) * np.eye(p) \
        + (vc.sigma2_omega / (c * vc.H)) * np.ones((p, p))
    t = np.eye(k) - np.ones((k, k)) / k
    u = np.kron(_kinship_dense(inst.kinship), np.asarray(profile.V))
    inner = np.linalg.inv(np.linalg.inv(ftf) + r)
    return np.linalg.inv((1.0 / c) * np.kron(t, inner) + np.linalg.inv(u))


def contrasts_matrix(K: int) -> np.ndarray:
    """Pairwise-contrast coefficient matrix, n = K(K−1)/2 rows.

    Rows are ordered (1,2), (1,3), …, (1,K), (2,3), …, (K−1,K); row (k,k')
    is e_k − e_k'.
    """
    if K < 2:
        raise ValidationError(f"contrasts need K >= 2, got {K}")
    rows = []
    for k, k2 in combinations(range(K), 2):
        row = np.zeros(K)
        row[k], row[k2] = 1.0, -1.0
        rows.append(row)
    return np.array(rows)


def mse_direct_contrasts(inst: OracleInstance) -> np.ndarray:
    """Prediction-error covariance of all pairwise-contrast BLUPs (nP×nP)."""
    cmat = contrasts_matrix(inst.K)
    lift = np.kron(cmat, np.eye(inst.profile.P))
    return lift @ mse_direct(inst) @ lift.T


def _weight_coefficients(profile: SubRegionProfile, weighting: str) -> np.ndarray:
    if weighting == "standard":
        return np.eye(profile.P)
    if weighting == "weighted":
        if profile.ell is None:
            raise ValidationError("weighted constants need sub-regional coefficients")
        return np.diag(profile.ell)
    raise ValidationError(f"unknown weighting {weighting!r}")


def reduction_constants(inst: OracleInstance, which: str,
                        weighting: str = "standard") -> float:
    """Additive constants linking the full criteria to their reduced forms.

    For compound-symmetry kinship the full effects criterion equals
    a₁²(K−1) times the reduced criterion plus ``cs_effects``; the contrasts
    criterion analogously with ``cs_contrasts``.  For family-block kinship
    the scale is 1 and the constants are ``block_effects`` /
    ``block_contrasts``.  ``contrast_trace`` is the design-independent trace
    term that separates the centered weighted trace of the full MSE from the
    contrasts criterion.

    Everything is computed from scratch at full dimension here.
    """
    vc, profile = inst.vc, inst.profile
    p, k = profile.P, inst.K
    c = _error_constant(vc)
    j = inst.J
    lw = _weight_coefficients(profile, weighting)
    vt = (j / c) * np.asarray(profile.V)
    rt = (j / (c * vc.H)) * (vc.sigma2_tau * np.eye(p)
                             + vc.sigma2_omega * np.ones((p, p)))

    def full_trace_constants():
        n = _kinship_dense(inst.kinship)
        t = np.eye(k) - np.ones((k, k)) / k
        ut = np.kron(n, vt)
        ti = np.kron(t, np.eye(p))
        w = np.kron(np.eye(k), rt) + ti @ ut @ ti
        b = np.linalg.inv(w)
        c1_mat = ut - ut @ ti @ b @ ti @ ut
        c1 = np.trace(c1_mat @ np.kron(np.eye(k), lw))
        c2 = np.trace(c1_mat @ np.kron(t, lw))
        return c1, c2

    if which == "contrast_trace":
        return float(full_trace_constants()[1])

    if which in ("cs_effects", "cs_contrasts"):
        spec = inst.kinship
        if isinstance(spec, Identity):
            a1, a = 1.0, 0.0
        elif isinstance(spec, CompoundSymmetry):
            a1, a = spec.a1, spec.a
        else:
            raise ValidationError(f"{which} needs compound-symmetry kinship")
        s = rt + a1 * vt
        vsv = vt @ np.linalg.inv(s) @ vt
        base = a1 * (k - 1) * np.trace((vt - a1 * vsv) @ lw)
        c1, c2 = full_trace_constants()
        if which == "cs_effects":
            const = base + (a * k + a1) * np.trace(vt @ lw)
            return float(const - c1)
        return float(base - c2)

    if which in ("block_effects", "block_contrasts"):
        spec = inst.kinship
        if not isinstance(spec, BlockCompoundSymmetry) or spec.f < 2 or spec.m < 2:
            raise ValidationError(f"{which} needs family-block kinship with f, m >= 2")
        f_, m = spec.f, spec.m
        v1 = spec.b1 * vt
        v2 = (m * spec.b + spec.b1) * vt
        s1, s2 = rt + v1, rt + v2
        term1 = f_ * (m - 1) * np.trace((v1 - v1 @ np.linalg.inv(s1) @ v1) @ lw)
        term2 = (f_ - 1) * np.trace((v2 - v2 @ np.linalg.inv(s2) @ v2) @ lw)
        c1, c2 = full_trace_constants()
        if which == "block_effects":
            return float(term1 + term2 + np.trace(v2 @ lw) - c1)
        return float(term1 + term2 - c2)

    raise ValidationError(
        f"unknown constant {which!r}; expected cs_effects, cs_contrasts, "
        "block_effects, block_contrasts or contrast_trace"
    )


def finite_difference_gradient(fun, w, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of ``fun`` at ``w`` (coordinate-wise)."""
    w = np.asarray(w, dtype=float)
    grad = np.zeros_like(w)
    for i in range(w.size):
        up, down = w.copy(), w.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (fun(up) - fun(down)) / (2 * step)
    return grad


def _feasible_counts(constraints):
    """Yield every integer allocation satisfying ``constraints`` (lex order)."""
    lo, hi = constraints.min_per_region, constraints.max_per_region
    p, total = lo.size, constraints.J

    def rec(prefix, remaining, slot):
        if slot == p - 1:
            if lo[slot] <= remaining <= hi[slot]:
                yield prefix + (remaining,)
            return
        tail_lo = int(lo[slot + 1:].sum())
        tail_hi = int(hi[slot + 1:].sum())
        start = max(lo[slot], remaining - tail_hi)
        stop = min(hi[slot], remaining - tail_lo)
        for j in range(start, stop + 1):
            yield from rec(prefix + (j,), remaining - j, slot + 1)

    for counts in rec((), total, 0):
        if constraints.within_budget(counts):
            yield counts


def enumerate_exact_optimum(problem, constraints):
    """Globally optimal exact design by exhaustive enumeration.

    ``problem`` must expose ``phi(design) -> float`` for exact designs at
    ``constraints.J`` (a :class:`trialalloc.criteria.DesignProblem` does).
    Guarded to at most 100,000 feasible allocations; ties in the criterion
    are broken toward the lexicographically smallest counts.
    """
    from .model import Design

    n_seen = 0
    for _ in _feasible_counts(constraints):
        n_seen += 1
        if n_seen > _MAX_ENUMERATION:
            raise ValidationError(
                f"enumeration guard: more than {_MAX_ENUMERATION} feasible designs"
            )
    if n_seen == 0:
        raise ValidationError("constraint set admits no feasible design")

    def design(counts):
        return Design.exact(np.array(counts, dtype=int))

    return design(min(_feasible_counts(constraints),
                      key=lambda counts: (problem.phi(design(counts)), counts)))
