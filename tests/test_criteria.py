from __future__ import annotations

import numpy as np
import pytest

import helpers
from trialalloc import (BlockCompoundSymmetry, CompoundSymmetry,
                        CriterionSpec, Design, DesignProblem, Identity,
                        NumericalError, Path, SubRegionProfile, Target,
                        ValidationError,
                        Weighting, mse_contrasts_full, mse_effects_full,
                        mse_trace_report, phi_bayes_cs, phi_cbrc_blockcs,
                        phi_contrasts, phi_effects, phi_kbayes_blockcs)
from trialalloc.oracle import (OracleInstance, finite_difference_gradient,
                               mse_direct, mse_direct_contrasts)


def _problem(rng, kind, P=3, K=6, **crit):
    vc = helpers.random_vc(rng)
    profile = helpers.random_profile(rng, P)
    kin = helpers.random_kinship(rng, kind, K=K)
    return DesignProblem(vc, profile, kin, CriterionSpec(**crit))


class TestRouting:
    def test_auto_routes_by_structure(self, vc5, profile5):
        cases = [
            (Identity(K=5), Path.BAYES_CS),
            (CompoundSymmetry(K=5, sigma2_alpha=1.0, r=0.3), Path.BAYES_CS),
            (BlockCompoundSymmetry(f=2, m=3, sigma2_alpha=1.0, r=0.3), Path.KBAYES),
            (helpers.random_kinship(np.random.default_rng(0), "dense", K=5),
             Path.FULL),
        ]
        for kin, expected in cases:
            assert DesignProblem(vc5, profile5, kin).path_used is expected

    def test_single_family_degenerates_to_exchangeable(self, vc5, profile5):
        kin = BlockCompoundSymmetry(f=1, m=5, sigma2_alpha=1.0, r=0.3)
        assert DesignProblem(vc5, profile5, kin).path_used is Path.BAYES_CS
        kin = BlockCompoundSymmetry(f=5, m=1, sigma2_alpha=1.0, r=0.3)
        assert DesignProblem(vc5, profile5, kin).path_used is Path.BAYES_CS

    def test_forced_path_mismatch_is_explained(self, vc5, profile5):
        dense = helpers.random_kinship(np.random.default_rng(1), "dense", K=5)
        with pytest.raises(ValidationError, match="full path"):
            DesignProblem(vc5, profile5, dense,
                          CriterionSpec(path="bayes_cs"))
        cs = CompoundSymmetry(K=5, sigma2_alpha=1.0, r=0.3)
        with pytest.raises(ValidationError, match="bayes_cs"):
            DesignProblem(vc5, profile5, cs, CriterionSpec(path="kbayes"))

    def test_full_path_always_allowed(self, vc5, profile5):
        cs = CompoundSymmetry(K=5, sigma2_alpha=1.0, r=0.3)
        assert DesignProblem(vc5, profile5, cs,
                             CriterionSpec(path="full")).path_used is Path.FULL

    def test_spec_coercion_and_validation(self):
        spec = CriterionSpec(target="contrasts", weighting="weighted",
                             path="cbrc")
        assert spec.target is Target.CONTRASTS
        assert spec.weighting is Weighting.WEIGHTED
        with pytest.raises(ValueError):
            CriterionSpec(target="everything")

    def test_weighted_needs_coefficients(self, vc5):
        profile = SubRegionProfile(V=helpers.V5)  # no ell
        with pytest.raises(ValidationError, match="ell"):
            DesignProblem(vc5, profile, Identity(K=4),
                          CriterionSpec(weighting="weighted"))


class TestPathAgreement:
    def test_family_block_paths_coincide(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            vc = helpers.random_vc(rng)
            profile = helpers.random_profile(rng, 3)
            kin = helpers.random_kinship(rng, "block", K=6)
            design = Design.exact(helpers.random_counts(rng, 3, 9))
            for weighting in ("standard", "weighted"):
                a = phi_cbrc_blockcs(design, vc, profile, kin, weighting)
                b = phi_kbayes_blockcs(design, vc, profile, kin, weighting)
                assert a.phi == pytest.approx(b.phi, rel=1e-11)
                np.testing.assert_allclose(a.gradient, b.gradient, rtol=1e-9)
                assert a.mse_trace == pytest.approx(b.mse_trace, rel=1e-11)

    def test_reduced_and_full_agree_on_traces(self):
        rng = np.random.default_rng(3)
        for kind in ("identity", "cs", "block"):
            vc = helpers.random_vc(rng)
            profile = helpers.random_profile(rng, 3)
            kin = helpers.random_kinship(rng, kind, K=6)
            design = Design.exact(helpers.random_counts(rng, 3, 8))
            for target in ("effects", "contrasts"):
                fast = DesignProblem(vc, profile, kin,
                                     CriterionSpec(target=target))
                slow = DesignProblem(vc, profile, kin,
                                     CriterionSpec(target=target, path="full"))
                assert fast.mse_trace(design) == pytest.approx(
                    slow.mse_trace(design), rel=1e-9)

    def test_mse_trace_matches_direct_assembly(self):
        rng = np.random.default_rng(4)
        for kind in ("identity", "cs", "block", "dense"):
            vc = helpers.random_vc(rng)
            profile = helpers.random_profile(rng, 3)
            kin = helpers.random_kinship(rng, kind, K=6)
            counts = helpers.random_counts(rng, 3, 9)
            inst = OracleInstance(vc=vc, profile=profile, kinship=kin,
                                  counts=tuple(counts))
            design = Design.exact(counts)
            effects = DesignProblem(vc, profile, kin).mse_trace(design)
            assert effects == pytest.approx(np.trace(mse_direct(inst)),
                                            rel=1e-10)
            contrasts = DesignProblem(
                vc, profile, kin, CriterionSpec(target="contrasts"),
            ).mse_trace(design)
            assert contrasts == pytest.approx(
                np.trace(mse_direct_contrasts(inst)), rel=1e-10)


class TestGradients:
    def test_every_path_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        cases = [("identity", {}), ("cs", {}), ("block", {}),
                 ("dense", {}), ("cs", {"path": "full"}),
                 ("block", {"path": "cbrc"}),
                 ("dense", {"target": "contrasts"}),
                 ("cs", {"weighting": "weighted"})]
        for kind, crit in cases:
            problem = _problem(rng, kind, **crit)
            w = rng.uniform(0.2, 1.0, size=3)
            w /= w.sum()
            ev = problem.evaluator(10)
            grad = problem.gradient(Design.approximate(w, 10))
            fd = finite_difference_gradient(ev.phi, w)
            np.testing.assert_allclose(grad, fd, rtol=2e-5,
                                       atol=1e-7 * np.abs(fd).max())

    def test_gradient_is_nonpositive(self):
        # more trials anywhere never hurt: phi decreases along every axis
        rng = np.random.default_rng(6)
        problem = _problem(rng, "cs")
        w = rng.uniform(0.2, 1.0, size=3)
        w /= w.sum()
        assert np.all(problem.gradient(Design.approximate(w, 10)) < 0)


class TestZeroWeights:
    def test_criteria_accept_empty_regions(self):
        rng = np.random.default_rng(7)
        for kind in ("cs", "block", "dense"):
            problem = _problem(rng, kind)
            w = np.array([0.0, 0.6, 0.4])
            phi = problem.phi(Design.approximate(w, 8))
            assert np.isfinite(phi)
            # continuous limit from the interior
            w_eps = np.array([1e-9, 0.6, 0.4 - 1e-9])
            assert problem.phi(Design.approximate(w_eps, 8)) == pytest.approx(
                phi, rel=1e-6)

    def test_full_mse_matrix_requires_interior(self, vc5, profile5):
        design = Design.exact(np.array([0, 20, 10, 5, 5]))
        with pytest.raises(ValidationError, match="positive weight"):
            mse_effects_full(design, vc5, profile5, Identity(K=4))


class TestFullMatrices:
    def test_effects_matrix_matches_oracle(self):
        rng = np.random.default_rng(8)
        vc = helpers.random_vc(rng)
        profile = helpers.random_profile(rng, 3)
        kin = helpers.random_kinship(rng, "dense", K=5)
        counts = helpers.random_counts(rng, 3, 8)
        inst = OracleInstance(vc=vc, profile=profile, kinship=kin,
                              counts=tuple(counts))
        mine = mse_effects_full(Design.exact(counts), vc, profile, kin)
        np.testing.assert_allclose(mine, mse_direct(inst), rtol=1e-9)

    def test_contrasts_matrix_matches_oracle(self):
        rng = np.random.default_rng(9)
        vc = helpers.random_vc(rng)
        profile = helpers.random_profile(rng, 2)
        kin = helpers.random_kinship(rng, "cs", K=4)
        counts = helpers.random_counts(rng, 2, 6)
        inst = OracleInstance(vc=vc, profile=profile, kinship=kin,
                              counts=tuple(counts))
        mine = mse_contrasts_full(Design.exact(counts), vc, profile, kin)
        want = mse_direct_contrasts(inst)
        np.testing.assert_allclose(mine, want, rtol=1e-9,
                                   atol=1e-12 * np.abs(want).max())

    def test_contrasts_matrix_guard(self, vc5, profile5):
        design = Design.exact(np.array([10, 10, 10, 5, 5]))
        with pytest.raises(ValidationError, match="K <= 12"):
            mse_contrasts_full(design, vc5, profile5, Identity(K=31))


class TestBulkPrimitives:
    """``line`` and ``phi_many`` against the scalar ``phi`` on every path."""

    CASES = [("cs", {}, Path.BAYES_CS), ("block", {"path": "cbrc"}, Path.CBRC),
             ("block", {}, Path.KBAYES), ("dense", {"weighting": "weighted"}, Path.FULL)]

    @pytest.mark.parametrize("kind, crit, path", CASES, ids=[c[2].value for c in CASES])
    def test_line_and_phi_many_match_phi(self, kind, crit, path):
        rng = np.random.default_rng(21)
        ev = _problem(rng, kind, **crit).evaluator(12)
        assert ev.path is path
        x = np.array([0.0, 0.45, 0.55])          # one empty sub-region
        s = np.array([0.8, 0.1, 0.1])
        for d, gamma_max in ((s - x, 1.0), (np.array([0.0, 0.45, -0.45]), 1.0)):
            h, lam = ev.line(x, d)
            assert np.all(h >= 0)
            for t in (0.0, 0.5 * gamma_max, gamma_max):
                want = ev.phi(x + t * d)
                assert np.sum(h / (1.0 + t * lam)) == pytest.approx(want, rel=1e-10)
        stack = np.vstack([x, s, rng.dirichlet(np.ones(3), size=4)])
        many = ev.phi_many(stack)
        np.testing.assert_allclose(many, [ev.phi(w) for w in stack], rtol=1e-12)
        # a row's value does not depend on the rest of the stack
        assert [ev.phi_many(w[None])[0] for w in stack] == list(many)

    def test_phi_many_rejects_an_indefinite_system(self, vc5, profile5):
        ev = DesignProblem(vc5, profile5, Identity(K=6)).evaluator(10)
        with pytest.raises(NumericalError, match="not positive definite"):
            ev.phi_many(np.array([[0.2] * 5, [-1e9, 0.0, 0.0, 0.0, 0.0]]))


class TestProblemCaching:
    def test_evaluator_reused_per_j(self, vc5, profile5):
        problem = DesignProblem(vc5, profile5, Identity(K=6))
        assert problem.evaluator(40) is problem.evaluator(40)
        assert problem.evaluator(40) is not problem.evaluator(20)

    def test_value_bundles_everything(self, vc5, profile5):
        problem = DesignProblem(vc5, profile5, Identity(K=6))
        design = Design.exact(np.array([13, 6, 8, 12, 1]))
        value = problem.value(design)
        assert value.phi == pytest.approx(problem.phi(design))
        assert value.mse_trace == pytest.approx(problem.mse_trace(design))
        assert value.path_used is Path.BAYES_CS
        assert value.gradient.shape == (5,)


class TestFunctionalFrontends:
    def test_one_shot_paths(self):
        rng = np.random.default_rng(10)
        vc = helpers.random_vc(rng)
        profile = helpers.random_profile(rng, 3)
        kin = helpers.random_kinship(rng, "cs", K=5)
        design = Design.exact(helpers.random_counts(rng, 3, 8))
        assert phi_effects(design, vc, profile, kin).path_used is Path.FULL
        assert phi_contrasts(design, vc, profile, kin).path_used is Path.FULL
        assert phi_bayes_cs(design, vc, profile, kin).path_used is Path.BAYES_CS

    def test_trace_report_uses_cheapest_path(self):
        rng = np.random.default_rng(11)
        vc = helpers.random_vc(rng)
        profile = helpers.random_profile(rng, 3)
        kin = helpers.random_kinship(rng, "block", K=6)
        design = Design.exact(helpers.random_counts(rng, 3, 9))
        fast = mse_trace_report(design, vc, profile, kin)
        slow = DesignProblem(vc, profile, kin,
                             CriterionSpec(path="full")).mse_trace(design)
        assert fast == pytest.approx(slow, rel=1e-9)

    def test_large_structured_problems_stay_cheap(self, vc5, profile5):
        # K = 900 through the family-block path: P-dimensional algebra only
        kin = helpers.family_block_kinship(r=0.5, f=60, m=15)
        design = Design.exact(np.array([13, 6, 7, 13, 1]))
        problem = DesignProblem(vc5, profile5, kin)
        import time
        start = time.perf_counter()
        value = problem.value(design)
        assert time.perf_counter() - start < 1.0
        assert np.isfinite(value.phi) and value.mse_trace > 0
