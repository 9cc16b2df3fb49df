"""Tests of the brute-force reference paths themselves.

The oracle is what the rest of the suite trusts, so it gets its own checks:
literal hand assemblies at tiny sizes, structural identities, and the
enumeration counts.
"""
from __future__ import annotations

import numpy as np
import pytest

import helpers
from trialalloc import (CompoundSymmetry, CriterionSpec, Design,
                        DesignProblem, Identity, SubRegionProfile,
                        ValidationError, VarianceComponents)
from trialalloc.oracle import (OracleInstance, contrasts_matrix,
                               enumerate_exact_optimum,
                               finite_difference_gradient, mse_direct,
                               mse_direct_contrasts, reduction_constants,
                               _feasible_counts)
from trialalloc.optimizer import ConstraintSet


def _instance(rng, kind="cs", P=3, K=6, J=9, variant="cross_classified"):
    vc = helpers.random_vc(rng, variant)
    profile = helpers.random_profile(rng, P)
    kin = helpers.random_kinship(rng, kind, K=K)
    counts = tuple(int(x) for x in helpers.random_counts(rng, P, J))
    return OracleInstance(vc=vc, profile=profile, kinship=kin, counts=counts)


class TestInstanceGuards:
    def test_size_guard(self):
        vc = helpers.maize_vc()
        profile = SubRegionProfile(V=np.eye(2) + 0.1)
        with pytest.raises(ValidationError, match="oracle guard"):
            OracleInstance(vc=vc, profile=profile, kinship=Identity(K=13),
                           counts=(1, 1))

    def test_total_size_guard(self):
        vc = helpers.maize_vc()
        profile = SubRegionProfile(V=np.eye(2) + 0.1)
        with pytest.raises(ValidationError, match="oracle guard"):
            OracleInstance(vc=vc, profile=profile, kinship=Identity(K=4),
                           counts=(7, 7))

    def test_empty_region_rejected(self):
        vc = helpers.maize_vc()
        profile = SubRegionProfile(V=np.eye(2) + 0.1)
        with pytest.raises(ValidationError, match="at least one"):
            OracleInstance(vc=vc, profile=profile, kinship=Identity(K=4),
                           counts=(5, 0))

    def test_counts_dimension(self):
        vc = helpers.maize_vc()
        profile = SubRegionProfile(V=np.eye(2) + 0.1)
        with pytest.raises(ValidationError, match="entries"):
            OracleInstance(vc=vc, profile=profile, kinship=Identity(K=4),
                           counts=(2, 2, 2))

    def test_family_block_size(self):
        rng = np.random.default_rng(0)
        inst = _instance(rng, kind="block", K=6)
        assert inst.K == inst.kinship.f * inst.kinship.m


class TestDirectAssembly:
    def test_two_by_two_hand_assembly(self):
        # K=2, P=2, one trial per sub-region: every factor is a 2x2 matrix
        # that can be written down by hand.
        vc = VarianceComponents(sigma2_omega=3.0, sigma2_tau=2.0,
                                sigma2_gamma=10.0,
                                sigma2_phi_plus_err_over_L=30.0, H=2)
        v = np.array([[4.0, 1.0], [1.0, 3.0]])
        profile = SubRegionProfile(V=v)
        kin = CompoundSymmetry(K=2, sigma2_alpha=1.5, r=0.4)
        inst = OracleInstance(vc=vc, profile=profile, kinship=kin, counts=(1, 1))

        c = 10.0 + 30.0 / 2.0                      # 25
        # F = I_2, so (FtF)^-1 = I_2
        r = (2.0 * np.eye(2) + 3.0 * np.ones((2, 2))) / (c * 2.0)
        inner = np.linalg.inv(np.eye(2) + r)
        t = np.array([[0.5, -0.5], [-0.5, 0.5]])
        n = np.array([[1.5, 0.6], [0.6, 1.5]])     # a1 + a = 0.9 + 0.6
        u = np.kron(n, v)
        expected = np.linalg.inv(np.kron(t, inner) / c + np.linalg.inv(u))

        np.testing.assert_allclose(mse_direct(inst), expected, rtol=1e-12)

    def test_symmetric_positive_definite(self):
        rng = np.random.default_rng(1)
        for kind in ("identity", "cs", "block", "dense"):
            mse = mse_direct(_instance(rng, kind=kind))
            np.testing.assert_allclose(mse, mse.T, atol=1e-10)
            assert np.linalg.eigvalsh(mse)[0] > 0

    def test_year_terms_decouple_in_the_zero_limit(self):
        # With independent genotypes and vanishing year-interaction variance
        # the inner matrix collapses to F'F and the system separates into
        # the centering and kinship parts only.
        vc = VarianceComponents(sigma2_omega=0.0, sigma2_tau=1e-12,
                                sigma2_gamma=10.0,
                                sigma2_phi_plus_err_over_L=30.0, H=2)
        rng = np.random.default_rng(2)
        profile = helpers.random_profile(rng, 3)
        counts = (2, 1, 3)
        inst = OracleInstance(vc=vc, profile=profile, kinship=Identity(K=4),
                              counts=counts)
        c = 25.0
        k, t = 4, np.eye(4) - np.ones((4, 4)) / 4
        d = np.diag(np.array(counts, dtype=float))
        expected = np.linalg.inv(np.kron(t, d) / c
                                 + np.kron(np.eye(k), np.linalg.inv(profile.V)))
        np.testing.assert_allclose(mse_direct(inst), expected, rtol=1e-6)


class TestContrasts:
    def test_row_count_and_order(self):
        cmat = contrasts_matrix(5)
        assert cmat.shape == (10, 5)
        np.testing.assert_allclose(cmat[0], [1, -1, 0, 0, 0])
        np.testing.assert_allclose(cmat[-1], [0, 0, 0, 1, -1])
        np.testing.assert_allclose(cmat.sum(axis=1), np.zeros(10))

    def test_gram_matrix_is_scaled_centering(self):
        k = 6
        cmat = contrasts_matrix(k)
        t = np.eye(k) - np.ones((k, k)) / k
        np.testing.assert_allclose(cmat.T @ cmat, k * t, atol=1e-12)

    def test_pairwise_trace_identity(self):
        rng = np.random.default_rng(3)
        inst = _instance(rng, kind="dense", K=5)
        k, p = inst.K, inst.profile.P
        mse = mse_direct(inst)
        t = np.eye(k) - np.ones((k, k)) / k
        lhs = np.trace(mse_direct_contrasts(inst))
        rhs = k * np.trace(np.kron(t, np.eye(p)) @ mse)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestReductionConstants:
    """The additive constants linking full and reduced criteria.

    For exactly exchangeable or family-block kinship the link has no offset
    at all (the constants vanish); the oracle computes them by literal
    full-dimension subtraction, so these tests pin both the vanishing and
    the closed-form trace identities behind it.
    """

    def test_cs_constants_via_subtraction(self):
        rng = np.random.default_rng(4)
        for weighting in ("standard", "weighted"):
            inst = _instance(rng, kind="cs", K=5, J=8)
            kin = inst.kinship
            design = Design.exact(np.array(inst.counts))
            scale = kin.a1 ** 2 * (kin.K - 1)
            reduced = DesignProblem(inst.vc, inst.profile, kin,
                                    CriterionSpec(weighting=weighting)).phi(design)
            for target, which in (("effects", "cs_effects"),
                                  ("contrasts", "cs_contrasts")):
                full = DesignProblem(
                    inst.vc, inst.profile, helpers.dense(kin),
                    CriterionSpec(target=target, weighting=weighting),
                ).phi(design)
                const = reduction_constants(inst, which, weighting=weighting)
                assert full == pytest.approx(scale * reduced + const,
                                             rel=1e-9, abs=1e-9 * abs(full))
                # exchangeability makes the offset itself vanish
                assert abs(const) < 1e-7 * abs(full)

    def test_block_constants_via_subtraction(self):
        rng = np.random.default_rng(5)
        inst = _instance(rng, kind="block", K=6, J=9)
        design = Design.exact(np.array(inst.counts))
        reduced = DesignProblem(inst.vc, inst.profile, inst.kinship).phi(design)
        for target, which in (("effects", "block_effects"),
                              ("contrasts", "block_contrasts")):
            full = DesignProblem(
                inst.vc, inst.profile, helpers.dense(inst.kinship),
                CriterionSpec(target=target),
            ).phi(design)
            const = reduction_constants(inst, which)
            assert full == pytest.approx(reduced + const,
                                         rel=1e-9, abs=1e-9 * abs(full))

    def test_uncorrelated_cs_matches_identity(self):
        rng = np.random.default_rng(6)
        vc = helpers.random_vc(rng)
        profile = helpers.random_profile(rng, 3)
        counts = (2, 3, 2)
        as_cs = OracleInstance(vc=vc, profile=profile,
                               kinship=CompoundSymmetry(K=5, sigma2_alpha=1.0, r=0.0),
                               counts=counts)
        as_id = OracleInstance(vc=vc, profile=profile, kinship=Identity(K=5),
                               counts=counts)
        for which in ("cs_effects", "cs_contrasts"):
            assert reduction_constants(as_cs, which) == pytest.approx(
                reduction_constants(as_id, which), abs=1e-9)

    def test_contrast_trace_equals_phi_difference(self):
        rng = np.random.default_rng(7)
        inst = _instance(rng, kind="dense", K=5, J=8)
        design = Design.exact(np.array(inst.counts))
        k, p = inst.K, inst.profile.P
        c2 = reduction_constants(inst, "contrast_trace")
        phi_con = DesignProblem(
            inst.vc, inst.profile, inst.kinship,
            CriterionSpec(target="contrasts"),
        ).phi(design)
        # weighted centered trace of the direct MSE, rescaled off the raw form
        from trialalloc import effective_error_constant
        scale = design.J / effective_error_constant(inst.vc)
        t = np.eye(k) - np.ones((k, k)) / k
        total = scale * np.trace(np.kron(t, np.eye(p)) @ mse_direct(inst))
        assert total == pytest.approx(c2 + phi_con, rel=1e-9)

    def test_grand_mean_trace_gap_closed_form(self):
        # The gap between the plain and the centered weighted traces is
        # design-independent: (a1 / (1-u)) tr(V~ L) with u = aK/(aK+a1).
        rng = np.random.default_rng(8)
        from trialalloc import effective_error_constant
        for _ in range(5):
            inst = _instance(rng, kind="cs", K=6, J=9)
            kin = inst.kinship
            k, p = inst.K, inst.profile.P
            scale = inst.J / effective_error_constant(inst.vc)
            vt = scale * np.asarray(inst.profile.V)
            mse = scale * mse_direct(inst)
            t = np.eye(k) - np.ones((k, k)) / k
            gap = np.trace(mse) - np.trace(np.kron(t, np.eye(p)) @ mse)
            u = kin.a * k / (kin.a * k + kin.a1)
            assert gap == pytest.approx(kin.a1 / (1.0 - u) * np.trace(vt),
                                        rel=1e-9)

    def test_structure_mismatch_rejected(self):
        rng = np.random.default_rng(9)
        inst = _instance(rng, kind="dense", K=4, J=6)
        with pytest.raises(ValidationError, match="compound-symmetry"):
            reduction_constants(inst, "cs_effects")
        with pytest.raises(ValidationError, match="family-block"):
            reduction_constants(inst, "block_contrasts")
        with pytest.raises(ValidationError, match="unknown constant"):
            reduction_constants(inst, "nonsense")


def test_finite_difference_gradient_on_a_quadratic():
    rng = np.random.default_rng(10)
    a = rng.normal(size=(4, 4))
    b = rng.normal(size=4)

    def fun(w):
        return float(w @ a @ w + b @ w)

    w0 = rng.uniform(0.5, 1.5, size=4)
    grad = finite_difference_gradient(fun, w0)
    np.testing.assert_allclose(grad, (a + a.T) @ w0 + b, rtol=1e-6)


class TestEnumeration:
    def test_composition_counts(self):
        assert sum(1 for _ in _feasible_counts(
            ConstraintSet(J=6, P=3, min_per_region=1))) == 10
        assert sum(1 for _ in _feasible_counts(
            ConstraintSet(J=10, P=5, min_per_region=1))) == 126

    def test_upper_bounds_prune(self):
        cons = ConstraintSet(J=6, P=3, min_per_region=1, max_per_region=3)
        counts = list(_feasible_counts(cons))
        assert len(counts) == 7
        assert all(max(c) <= 3 for c in counts)

    def test_budget_prunes(self):
        base = ConstraintSet(J=6, P=3, min_per_region=1)
        capped = ConstraintSet(J=6, P=3, min_per_region=1,
                               costs=[1.0, 2.0, 3.0], budget=10.0)
        everything = list(_feasible_counts(base))
        kept = list(_feasible_counts(capped))
        expected = [c for c in everything
                    if np.dot([1.0, 2.0, 3.0], c) <= 10.0 + 1e-9]
        assert kept == expected
        assert 0 < len(kept) < len(everything)

    def test_optimum_matches_hand_scan(self):
        rng = np.random.default_rng(11)
        vc = helpers.random_vc(rng)
        profile = helpers.random_profile(rng, 3)
        problem = DesignProblem(vc, profile, helpers.random_kinship(rng, "cs", K=5))
        cons = ConstraintSet(J=8, P=3, min_per_region=1)
        best = enumerate_exact_optimum(problem, cons)
        values = {c: problem.phi(Design.exact(np.array(c)))
                  for c in _feasible_counts(cons)}
        assert tuple(best.counts) == min(values, key=lambda c: (values[c], c))

    def test_tie_breaks_lexicographically(self):
        # two interchangeable regions (diagonal V, no year-location term, so
        # the criterion is exactly slot-symmetric) and an odd J: (3,4) and
        # (4,3) score identically and the lexicographically smaller one wins
        vc = VarianceComponents(sigma2_omega=0.0, sigma2_tau=18.0,
                                sigma2_gamma=160.0,
                                sigma2_phi_plus_err_over_L=333.0, H=3)
        profile = SubRegionProfile(V=np.diag([5.0, 5.0]))
        problem = DesignProblem(vc, profile, Identity(K=4))
        design_a = Design.exact(np.array([3, 4]))
        design_b = Design.exact(np.array([4, 3]))
        assert problem.phi(design_a) == problem.phi(design_b)
        best = enumerate_exact_optimum(problem, ConstraintSet(J=7, P=2))
        assert tuple(best.counts) == (3, 4)

    def test_enumeration_guard(self):
        # the feasibility-count guard fires before any evaluation
        vc = helpers.maize_vc()
        profile = SubRegionProfile(V=np.eye(6) + 1.0)
        problem = DesignProblem(vc, profile, Identity(K=4))
        cons = ConstraintSet(J=40, P=6, min_per_region=1)
        with pytest.raises(ValidationError, match="enumeration guard"):
            enumerate_exact_optimum(problem, cons)
