from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from trialalloc import (BlockCompoundSymmetry, CompoundSymmetry,
                        ConstraintSet, CriterionSpec, Design, DesignProblem,
                        Identity, NumericalError, Path, SubRegionProfile,
                        Target, ValidationError,
                        Weighting, mse_contrasts_full, mse_effects_full,
                        solve_approximate, solve_exact)
from trialalloc import _linalg, criteria
from trialalloc._linalg import spd_factor
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

    @pytest.mark.parametrize("path", ["bayes_cs", "kbayes", "cbrc", Path.KBAYES, [1]])
    def test_only_auto_and_full_are_settable(self, path):
        # the closed forms are what auto picks, not what a criterion asks for
        with pytest.raises(ValidationError, match="^path must be 'auto' or 'full', got "):
            CriterionSpec(path=path)

    def test_full_path_always_allowed(self, vc5, profile5):
        cs = CompoundSymmetry(K=5, sigma2_alpha=1.0, r=0.3)
        assert DesignProblem(vc5, profile5, cs,
                             CriterionSpec(path="full")).path_used is Path.FULL

    def test_spec_coercion_and_validation(self):
        spec = CriterionSpec(target="contrasts", weighting="weighted",
                             path="full")
        assert spec.target is Target.CONTRASTS
        assert spec.weighting is Weighting.WEIGHTED
        assert spec.path is Path.FULL
        with pytest.raises(ValueError):
            CriterionSpec(target="everything")

    def test_weighted_needs_coefficients(self, vc5):
        profile = SubRegionProfile(V=helpers.V5)  # no ell
        with pytest.raises(ValidationError, match="ell"):
            DesignProblem(vc5, profile, Identity(K=4),
                          CriterionSpec(weighting="weighted"))


class TestPathAgreement:
    def test_family_block_paths_coincide(self):
        # the two-group closed form against the dense eigen reference
        rng = np.random.default_rng(2)
        for _ in range(5):
            vc = helpers.random_vc(rng)
            profile = helpers.random_profile(rng, 3)
            kin = helpers.random_kinship(rng, "block", K=6)
            design = Design.exact(helpers.random_counts(rng, 3, 9))
            for weighting in ("standard", "weighted"):
                a, b = (DesignProblem(vc, profile, kin, CriterionSpec(
                    weighting=weighting, path=path)).value(design)
                    for path in ("auto", "full"))
                assert (a.path_used, b.path_used) == (Path.KBAYES, Path.FULL)
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
                 ("block", {"path": "full"}),
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


class TestSegmentConvexity:
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(["cs", "block", "dense"]), st.integers(2, 4),
           st.integers(0, 2 ** 32 - 1))
    def test_phi_is_convex_along_random_feasible_segments(self, kind, p, seed):
        rng = np.random.default_rng(seed)
        ev = _problem(rng, kind, P=p, weighting="weighted").evaluator(10)
        x, s = rng.dirichlet(np.ones(p), size=2)
        x[rng.integers(p)] = 0.0                 # one end may leave a region empty
        x /= x.sum()
        h, lam = ev.line(ev.newton_terms(x)[3], s - x)
        grid = np.linspace(0.0, 1.0, 11)
        assert np.all(h >= 0) and np.all(1.0 + lam > 0)
        direct = np.array([ev.phi(x + t * (s - x)) for t in grid])
        np.testing.assert_allclose((h / (1.0 + grid[:, None] * lam)).sum(axis=1), direct,
                                   rtol=1e-10)
        curvature = direct[:-2] - 2.0 * direct[1:-1] + direct[2:]
        assert np.all(curvature >= -1e-12 * direct.max())


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
    """``newton_terms``, ``line`` and ``transfer_scores`` against the scalar
    ``phi`` and ``gradient`` on every path."""

    CASES = [("cs", {}, Path.BAYES_CS), ("block", {}, Path.KBAYES),
             ("dense", {"weighting": "weighted"}, Path.FULL)]

    @pytest.mark.parametrize("kind, crit, path", CASES, ids=[c[2].value for c in CASES])
    def test_line_and_transfer_scores_match_phi(self, kind, crit, path):
        rng = np.random.default_rng(21)
        ev = _problem(rng, kind, **crit).evaluator(12)
        assert ev.path is path
        x = np.array([0.0, 0.45, 0.55])          # one empty sub-region
        s = np.array([0.8, 0.1, 0.1])
        *_, l_inv = ev.newton_terms(x)
        for d, gamma_max in ((s - x, 1.0), (np.array([0.0, 0.45, -0.45]), 1.0)):
            h, lam = ev.line(l_inv, d)
            assert np.all(h >= 0)
            for t in (0.0, 0.5 * gamma_max, gamma_max):
                want = ev.phi(x + t * d)
                assert np.sum(h / (1.0 + t * lam)) == pytest.approx(want, rel=1e-10)

        counts = np.vstack([[0, 5, 7], [10, 1, 1], rng.multinomial(12, np.ones(3) / 3, 4)])
        phi, delta = ev.transfer_scores(counts / 12, 1 / 12)
        np.testing.assert_allclose(phi, [ev.phi(c / 12) for c in counts], rtol=1e-12)
        for row, c in enumerate(counts):
            for i, k in np.argwhere(~np.eye(3, dtype=bool)):
                if c[i] == 0:
                    continue
                moved = c.copy()
                moved[i] -= 1
                moved[k] += 1
                want = ev.phi(moved / 12) - ev.phi(c / 12)
                assert delta[row, i, k] == pytest.approx(want, rel=1e-10,
                                                         abs=1e-13 * phi[row])
        # a row's scores do not depend on the rest of the stack
        for row, c in enumerate(counts):
            one_phi, one_delta = ev.transfer_scores(c[None] / 12, 1 / 12)
            assert one_phi[0] == phi[row]
            np.testing.assert_array_equal(one_delta[0], delta[row])

    @pytest.mark.parametrize("kind, crit, path", CASES, ids=[c[2].value for c in CASES])
    def test_newton_terms_match_gradient_differences(self, kind, crit, path):
        rng = np.random.default_rng(22)
        ev = _problem(rng, kind, **crit).evaluator(12)
        assert ev.path is path
        step = 1e-6
        for x in (np.array([0.0, 0.45, 0.55]), np.array([0.2, 0.3, 0.5])):
            phi, grad, hess, _ = ev.newton_terms(x)
            assert phi == pytest.approx(ev.phi(x), rel=1e-12)
            np.testing.assert_allclose(grad, ev.gradient(x), rtol=1e-12)
            np.testing.assert_allclose(hess, hess.T, rtol=0, atol=1e-14 * np.abs(hess).max())
            central = np.column_stack([
                (ev.gradient(x + step * e) - ev.gradient(x - step * e)) / (2 * step)
                for e in np.eye(3)])
            np.testing.assert_allclose(hess, central, rtol=1e-6,
                                       atol=1e-8 * np.abs(central).max())

    def test_transfer_scores_rejects_an_indefinite_system(self, vc5, profile5):
        ev = DesignProblem(vc5, profile5, Identity(K=6)).evaluator(10)
        with pytest.raises(NumericalError, match="not positive definite"):
            ev.transfer_scores(np.array([[0.2] * 5, [-1e9, 0.0, 0.0, 0.0, 0.0]]), 0.1)


class TestProblemCaching:
    def test_evaluator_needs_no_factorization(self, monkeypatch, vc5, profile5):
        problem = DesignProblem(vc5, profile5, Identity(K=6))
        unit = problem.evaluator(1)            # builds the J = 1 stack
        calls = []
        monkeypatch.setattr(_linalg, "spd_factor", lambda *a: calls.append(a))
        for J in (40, 20, 40):
            ev = problem.evaluator(J)
            np.testing.assert_array_equal(ev.c, unit.c / J)
            assert ev.root is unit.root
        assert calls == []

    def test_value_bundles_everything(self, vc5, profile5):
        problem = DesignProblem(vc5, profile5, Identity(K=6))
        design = Design.exact(np.array([13, 6, 8, 12, 1]))
        value = problem.value(design)
        assert value.phi == pytest.approx(problem.phi(design))
        assert value.mse_trace == pytest.approx(problem.mse_trace(design))
        assert value.path_used is Path.BAYES_CS
        assert value.gradient.shape == (5,)


class TestJFreeCore:
    """The J = 1 stack serves every network size: C_g(J) = C_g(1)/J."""

    PATHS = [("cs", "auto", Path.BAYES_CS), ("block", "auto", Path.KBAYES),
             ("block", "full", Path.FULL), ("dense", "auto", Path.FULL)]

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from(PATHS), st.integers(2, 4),
           st.lists(st.integers(1, 300), min_size=1, max_size=6),
           st.integers(0, 2 ** 32 - 1))
    def test_grid_equals_per_j_values(self, path, p, js, seed):
        kind, name, used = path
        rng = np.random.default_rng(seed)
        vc, profile = helpers.random_vc(rng), helpers.random_profile(rng, p)
        kin = helpers.random_kinship(rng, kind, K=6)
        design = Design.approximate(rng.dirichlet(np.ones(p)), js[0])
        for target in Target:
            for weighting in Weighting:
                problem = DesignProblem(vc, profile, kin, CriterionSpec(
                    target=target, weighting=weighting, path=name))
                for J, got in zip(js, problem.values(design, js), strict=True):
                    want = problem.value(Design.approximate(design.weights, J))
                    assert got.path_used is want.path_used is used
                    assert got.phi == pytest.approx(want.phi, rel=1e-12)
                    assert got.mse_trace == pytest.approx(want.mse_trace, rel=1e-12)
                    np.testing.assert_allclose(got.gradient, want.gradient, rtol=1e-12)
                    ev = problem.evaluator(J)
                    assert got.phi == pytest.approx(ev.phi(design.weights), rel=1e-12)
                    assert got.mse_trace == pytest.approx(
                        ev.mse_trace(design.weights), rel=1e-12)
                    np.testing.assert_allclose(got.gradient, ev.gradient(design.weights),
                                               rtol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(["cs", "block", "dense"]), st.integers(2, 5),
           st.integers(1, 500), st.integers(0, 2 ** 32 - 1))
    def test_phi_at_j_is_j_times_phi_at_one_of_the_counts(self, kind, p, J, seed):
        rng = np.random.default_rng(seed)
        problem = _problem(rng, kind, P=p, weighting="weighted")
        w = rng.dirichlet(np.ones(p))
        # phi_J(w) = J · phi_1(n), with n = J·w the unnormalised counts
        assert problem.phi(Design.approximate(w, J)) == pytest.approx(
            J * problem.evaluator(1).phi(J * w), rel=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(["cs", "block", "dense"]), st.integers(2, 4),
           st.floats(0.01, 100.0), st.integers(0, 2 ** 32 - 1))
    def test_scaling_every_variance_keeps_the_optimum(self, kind, p, s, seed):
        rng = np.random.default_rng(seed)
        vc, profile = helpers.random_vc(rng), helpers.random_profile(rng, p)
        kin = helpers.random_kinship(rng, kind, K=6)
        scaled_vc = dataclasses.replace(vc, **{
            name: s * getattr(vc, name) for name in (
                "sigma2_omega", "sigma2_tau", "sigma2_gamma",
                "sigma2_phi_plus_err_over_L")})
        scaled_profile = SubRegionProfile(V=s * profile.V, ell=profile.ell)
        cons = ConstraintSet(J=4 * p + 3, P=p)
        base = DesignProblem(vc, profile, kin)
        bigger = DesignProblem(scaled_vc, scaled_profile, kin)
        approx, approx_s = (solve_approximate(q, cons, tol=1e-12) for q in (base, bigger))
        np.testing.assert_allclose(approx_s.design.weights, approx.design.weights,
                                   atol=1e-6)
        assert approx_s.mse_trace == pytest.approx(s * approx.mse_trace, rel=1e-9)
        exact, exact_s = (solve_exact(q, cons, restarts=3) for q in (base, bigger))
        np.testing.assert_array_equal(exact_s.design.counts, exact.design.counts)
        assert exact_s.phi == pytest.approx(exact.phi, rel=1e-9)
        assert exact_s.mse_trace == pytest.approx(s * exact.mse_trace, rel=1e-9)

    def test_a_long_grid_is_taken_in_chunks(self, monkeypatch, vc5, profile5):
        problem = DesignProblem(vc5, profile5, helpers.random_kinship(
            np.random.default_rng(23), "dense", K=6))
        design = Design.approximate(np.full(5, 0.2), 10)
        js = list(range(1, 12))
        whole = problem.values(design, js)
        shapes = []

        def recording(a, what="matrix"):
            shapes.append(a.shape)
            return spd_factor(a, what)

        monkeypatch.setattr(_linalg, "spd_factor", recording)
        monkeypatch.setattr(criteria, "_BATCH_ENTRIES", 4 * problem._core.root.size)
        chunked = problem.values(design, js)
        assert [s[0] for s in shapes] == [4, 4, 3]
        for got, want in zip(chunked, whole, strict=True):
            assert (got.phi, got.mse_trace) == (want.phi, want.mse_trace)
            np.testing.assert_array_equal(got.gradient, want.gradient)

    def test_js_are_validated(self, vc5, profile5):
        problem = DesignProblem(vc5, profile5, Identity(K=6))
        design = Design.exact(np.array([13, 6, 8, 12, 1]))
        for bad in ([10, 0], [10, 12.5], [[10]]):
            with pytest.raises(ValidationError, match="Js"):
                problem.values(design, bad)


class TestOneEngine:
    """Every criterion number comes from the factor of one evaluation."""

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(TestJFreeCore.PATHS), st.integers(2, 4), st.integers(1, 300),
           st.integers(0, 2 ** 32 - 1))
    def test_every_view_is_value_from_one_factorization(self, path, p, J, seed):
        kind, name, used = path
        rng = np.random.default_rng(seed)
        vc, profile = helpers.random_vc(rng), helpers.random_profile(rng, p)
        kin = helpers.random_kinship(rng, kind, K=6)
        design = Design.approximate(rng.dirichlet(np.ones(p)), J)
        for target in Target:
            for weighting in Weighting:
                problem = DesignProblem(vc, profile, kin, CriterionSpec(
                    target=target, weighting=weighting, path=name))
                problem.evaluator(1)                 # builds the J = 1 stack
                whats = []

                def recording(a, what="matrix"):
                    whats.append(what)
                    return spd_factor(a, what)

                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(_linalg, "spd_factor", recording)
                    value = problem.value(design)
                assert whats == ["criterion system"]
                assert value.path_used is used
                ev = problem.evaluator(J)
                assert problem.phi(design) == ev.phi(design.weights) == value.phi
                assert (problem.mse_trace(design) == ev.mse_trace(design.weights)
                        == value.mse_trace)
                np.testing.assert_array_equal(problem.gradient(design), value.gradient)
                np.testing.assert_array_equal(ev.gradient(design.weights), value.gradient)


class TestFunctionalFrontends:
    def test_trace_report_uses_cheapest_path(self):
        rng = np.random.default_rng(11)
        vc = helpers.random_vc(rng)
        profile = helpers.random_profile(rng, 3)
        kin = helpers.random_kinship(rng, "block", K=6)
        design = Design.exact(helpers.random_counts(rng, 3, 9))
        problem = DesignProblem(vc, profile, kin)
        assert problem.path_used is Path.KBAYES
        fast = problem.mse_trace(design)
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


class TestSpectralFullPath:
    """The full path as a stack of P×P systems, one per eigenvalue of TNT."""

    def test_only_p_by_p_systems_are_factorized(self, monkeypatch, vc5, profile5):
        shapes = []

        def recording(factor):
            def wrapped(a, *args):
                shapes.append(np.shape(a)[-2:])
                return factor(a, *args)
            return wrapped

        monkeypatch.setattr(_linalg, "spd_factor", recording(_linalg.spd_factor))
        kin = helpers.random_kinship(np.random.default_rng(40), "dense", K=40)
        problem = DesignProblem(vc5, profile5, kin)
        report = solve_approximate(problem, ConstraintSet(J=40, P=5))
        assert problem.path_used is Path.FULL and report.iterations > 0
        assert shapes and set(shapes) == {(5, 5)}

    def test_large_dense_kinship_is_evaluable(self, vc5, profile5):
        kin = helpers.random_kinship(np.random.default_rng(400), "dense", K=400)
        value = DesignProblem(vc5, profile5, kin).value(
            Design.exact(np.array([13, 6, 8, 12, 1])))
        assert value.path_used is Path.FULL
        assert np.isfinite(value.phi) and value.phi > 0
        assert np.isfinite(value.mse_trace) and value.mse_trace > 0
        assert np.all(np.isfinite(value.gradient))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda p: st.tuples(
               st.lists(st.integers(1, 3), min_size=p, max_size=p),
               st.integers(2, 8), st.integers(0, 2 ** 32 - 1))))
    def test_matches_the_oracle(self, instance):
        counts, k, seed = instance       # J <= 12 keeps within the oracle's guard
        rng = np.random.default_rng(seed)
        vc = helpers.random_vc(rng)
        profile = helpers.random_profile(rng, len(counts))
        kin = helpers.random_kinship(rng, "dense", K=k)
        inst = OracleInstance(vc=vc, profile=profile, kinship=kin, counts=tuple(counts))
        design = Design.exact(counts)
        direct = {"effects": np.trace(mse_direct(inst)),
                  "contrasts": np.trace(mse_direct_contrasts(inst))}
        for target in Target:
            for weighting in Weighting:
                problem = DesignProblem(vc, profile, kin, CriterionSpec(
                    target=target, weighting=weighting, path="full"))
                assert problem.mse_trace(design) == pytest.approx(
                    direct[target.value], rel=1e-9)
                fd = finite_difference_gradient(problem.evaluator(design.J).phi,
                                                design.weights)
                np.testing.assert_allclose(problem.gradient(design), fd, rtol=2e-5,
                                           atol=1e-7 * np.abs(fd).max())
