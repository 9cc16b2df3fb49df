from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from trialalloc import (ConstraintSet, CriterionSpec, Design, DesignProblem,
                        Identity, InfeasibleError, SubRegionProfile,
                        ValidationError, efficiency, round_to_exact,
                        solve_approximate, solve_exact)
from trialalloc.optimizer import _rational_argmin, _transfer_descent
from trialalloc.oracle import enumerate_exact_optimum


def _symmetric_problem():
    vc = helpers.maize_vc()
    profile = SubRegionProfile(V=np.array([[5.0, 1.0], [1.0, 5.0]]))
    return DesignProblem(vc, profile, Identity(K=4))


class TestConstraintSet:
    def test_dimension_inference(self):
        cons = ConstraintSet(J=10, min_per_region=[1, 2, 1])
        assert cons.P == 3
        np.testing.assert_array_equal(cons.min_per_region, [1, 2, 1])

    def test_scalar_broadcast(self):
        cons = ConstraintSet(J=10, P=4, min_per_region=2, max_per_region=5)
        np.testing.assert_array_equal(cons.min_per_region, [2, 2, 2, 2])
        np.testing.assert_array_equal(cons.max_per_region, [5, 5, 5, 5])

    def test_min_above_max_rejected(self):
        with pytest.raises(ValidationError):
            ConstraintSet(J=10, P=2, min_per_region=4, max_per_region=3)

    def test_mins_exceeding_j_certified(self):
        with pytest.raises(InfeasibleError) as exc_info:
            ConstraintSet(J=5, P=3, min_per_region=2)
        assert exc_info.value.certificate["reason"] == "min-total-exceeds-J"

    def test_maxes_below_j_certified(self):
        with pytest.raises(InfeasibleError) as exc_info:
            ConstraintSet(J=20, P=3, min_per_region=1, max_per_region=5)
        assert exc_info.value.certificate["reason"] == "max-total-below-J"

    def test_budget_too_small_certified(self):
        with pytest.raises(InfeasibleError) as exc_info:
            ConstraintSet(J=10, P=2, min_per_region=1,
                          costs=[3.0, 5.0], budget=25.0)
        assert exc_info.value.certificate["reason"] == "budget-too-small"

    def test_costs_and_budget_come_together(self):
        with pytest.raises(ValidationError, match="budget"):
            ConstraintSet(J=10, P=2, costs=[1.0, 2.0])
        with pytest.raises(ValidationError, match="costs"):
            ConstraintSet(J=10, P=2, budget=100.0)

    def test_satisfies_and_cost(self):
        cons = ConstraintSet(J=10, P=3, min_per_region=1, max_per_region=6,
                             costs=[1.0, 2.0, 4.0], budget=25.0)
        assert cons.satisfies(np.array([5, 3, 2]))          # cost 19
        assert not cons.satisfies(np.array([1, 2, 7]))      # cap and budget
        assert not cons.satisfies(np.array([5, 4, 2]))      # wrong total
        assert cons.cost(np.array([5, 3, 2])) == pytest.approx(19.0)


class TestConstraintValidation:
    @pytest.mark.parametrize("kwargs, field", [
        ({"min_per_region": 1.7}, "min_per_region"),
        ({"max_per_region": [5, 5, np.inf]}, "max_per_region"),
        ({"J": 10.9}, "J"),
        ({"costs": [1.0, np.nan, 2.0], "budget": 30.0}, "costs"),
        ({"costs": [1.0, 1.0, 2.0], "budget": np.nan}, "budget"),
    ])
    def test_non_integral_or_non_finite_rejected(self, kwargs, field):
        with pytest.raises(ValidationError, match=field):
            ConstraintSet(**{"J": 10, "P": 3, **kwargs})


class _CountingEvaluator:
    """Forwards to an evaluator and counts each public call by name."""

    def __init__(self, ev):
        self._ev = ev
        self.calls = Counter()

    def __getattr__(self, name):
        attr = getattr(self._ev, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return attr(*args, **kwargs)
        return counted


class TestWorkCounts:
    """Work per Frank-Wolfe iteration and per descent sweep on one golden row."""

    @pytest.fixture()
    def counted(self, monkeypatch, vc5, profile5):
        problem = DesignProblem(vc5, profile5, helpers.family_block_kinship(0.5, 6, 5))
        ev = _CountingEvaluator(problem.evaluator(40))
        monkeypatch.setattr(DesignProblem, "evaluator", lambda self, J: ev)
        return problem, ev

    def test_one_line_search_per_frank_wolfe_iteration(self, counted):
        problem, ev = counted
        report = solve_approximate(problem, ConstraintSet(J=40, P=5))
        its = report.iterations
        assert its <= 40
        assert ev.calls["gradient"] == its
        assert ev.calls["line"] == its - (report.status == "converged")
        # start, one confirmation per line search, final re-evaluation
        assert ev.calls["phi"] <= 2 * its
        assert ev.calls["phi_many"] == 0

    def test_one_phi_many_call_per_descent_sweep(self, counted):
        problem, ev = counted
        cons = ConstraintSet(J=40, P=5)
        rng = np.random.default_rng(3)
        for start in ([8, 8, 8, 8, 8], [1, 1, 1, 1, 36], helpers.random_counts(rng, 5, 40)):
            ev.calls.clear()
            _, counts, moves = _transfer_descent(ev, np.array(start), cons)
            assert moves > 0 and cons.satisfies(counts)
            assert ev.calls == Counter(phi_many=moves + 1)


class TestRationalLineSearch:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.floats(1e-6, 1e3), st.floats(-0.999, 50.0)),
                    min_size=1, max_size=12),
           st.floats(1e-3, 10.0))
    def test_matches_a_dense_grid(self, pairs, t_max):
        h = np.array([p[0] for p in pairs])
        lam = np.array([p[1] for p in pairs]) / t_max    # 1 + t*lam > 0 on [0, t_max]
        t = _rational_argmin(h, lam, t_max)
        assert 0.0 <= t <= t_max
        grid = np.linspace(0.0, t_max, 20001)
        on_grid = (h / (1.0 + grid[:, None] * lam)).sum(axis=1)
        best = np.sum(h / (1.0 + t * lam))
        assert best <= on_grid.min() + 1e-12 * abs(on_grid.min())


class TestApproximateSolver:
    def test_converged_status(self):
        report = solve_approximate(_symmetric_problem(), ConstraintSet(J=10, P=2))
        assert report.status == "converged"
        assert report.optimality_gap <= 1e-9 * max(1.0, report.phi)

    def test_iteration_cap_reported(self, vc5, profile5):
        problem = DesignProblem(vc5, profile5, Identity(K=31))
        report = solve_approximate(problem, ConstraintSet(J=40, P=5), max_iter=1)
        assert report.status == "max_iter"
        assert report.iterations == 1
        exact = solve_exact(problem, ConstraintSet(J=40, P=5), restarts=1)
        assert exact.status == solve_approximate(problem, ConstraintSet(J=40, P=5)).status

    def test_symmetric_problem_balances(self):
        report = solve_approximate(_symmetric_problem(),
                                   ConstraintSet(J=10, P=2), tol=1e-12)
        np.testing.assert_allclose(report.design.weights, [0.5, 0.5],
                                   atol=1e-6)
        assert report.optimality_gap >= 0.0

    def test_report_phi_reevaluates(self, vc5, profile5):
        problem = DesignProblem(vc5, profile5, Identity(K=31))
        report = solve_approximate(problem, ConstraintSet(J=40, P=5))
        assert report.phi == pytest.approx(problem.phi(report.design),
                                           abs=1e-12 * abs(report.phi))
        assert report.mse_trace == pytest.approx(problem.mse_trace(report.design))

    def test_tighter_tolerance_never_worse(self, vc5, profile5):
        problem = DesignProblem(vc5, profile5, Identity(K=31))
        cons = ConstraintSet(J=40, P=5)
        loose = solve_approximate(problem, cons, tol=1e-4)
        tight = solve_approximate(problem, cons, tol=1e-10)
        assert tight.phi <= loose.phi + 1e-12 * abs(loose.phi)
        assert tight.optimality_gap <= loose.optimality_gap + 1e-12

    def test_deterministic(self, vc5, profile5):
        problem = DesignProblem(vc5, profile5, Identity(K=31))
        cons = ConstraintSet(J=40, P=5)
        first = solve_approximate(problem, cons)
        second = solve_approximate(problem, cons)
        np.testing.assert_array_equal(first.design.weights,
                                      second.design.weights)
        assert first.phi == second.phi
        assert first.iterations == second.iterations

    def test_box_constraints_respected(self, vc5, profile5):
        problem = DesignProblem(vc5, profile5, Identity(K=31))
        cons = ConstraintSet(J=40, P=5, min_per_region=2, max_per_region=10)
        report = solve_approximate(problem, cons)
        w = report.design.weights
        assert np.all(w >= 2 / 40 - 1e-9)
        assert np.all(w <= 10 / 40 + 1e-9)

    def test_budget_halfspace_respected(self, vc5, profile5):
        problem = DesignProblem(vc5, profile5, Identity(K=31))
        costs = np.array([40.0, 44.0, 50.0, 65.0, 60.0])
        cons = ConstraintSet(J=40, P=5, min_per_region=2,
                             costs=costs, budget=50.0 * 40)
        report = solve_approximate(problem, cons)
        assert costs @ (report.design.weights * 40) <= 50.0 * 40 + 1e-6

    def test_constrained_solution_not_better_than_free(self, vc5, profile5):
        problem = DesignProblem(vc5, profile5, Identity(K=31))
        free = solve_approximate(problem, ConstraintSet(J=40, P=5,
                                                        min_per_region=0))
        boxed = solve_approximate(problem, ConstraintSet(J=40, P=5,
                                                         min_per_region=4))
        assert boxed.phi >= free.phi - 1e-10 * abs(free.phi)


class TestRounding:
    def test_largest_deficit_apportionment(self):
        cons = ConstraintSet(J=40, P=5)
        design = round_to_exact(np.array([0.33, 0.14, 0.18, 0.31, 0.04]), cons)
        np.testing.assert_array_equal(design.counts, [13, 6, 7, 12, 2])
        assert design.J == 40

    def test_bounds_respected(self):
        cons = ConstraintSet(J=12, P=3, min_per_region=2, max_per_region=6)
        design = round_to_exact(np.array([0.85, 0.10, 0.05]), cons)
        assert cons.satisfies(design.counts)

    def test_budget_repair(self):
        costs = [1.0, 1.0, 10.0]
        cons = ConstraintSet(J=9, P=3, min_per_region=1,
                             costs=costs, budget=30.0)
        design = round_to_exact(np.array([0.1, 0.1, 0.8]), cons)
        assert cons.satisfies(design.counts)
        assert cons.cost(design.counts) <= 30.0 + 1e-9

    def test_exact_weights_round_to_themselves(self):
        cons = ConstraintSet(J=20, P=4)
        design = round_to_exact(np.array([8, 6, 4, 2]) / 20.0, cons)
        np.testing.assert_array_equal(design.counts, [8, 6, 4, 2])


class TestExactSolver:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(12)
        for kind in ("cs", "block", "dense"):
            vc = helpers.random_vc(rng)
            profile = helpers.random_profile(rng, 3)
            problem = DesignProblem(vc, profile,
                                    helpers.random_kinship(rng, kind, K=6))
            cons = ConstraintSet(J=9, P=3, min_per_region=1)
            report = solve_exact(problem, cons, seed=1, restarts=8)
            best = enumerate_exact_optimum(problem, cons)
            assert tuple(report.design.counts) == tuple(best.counts)

    def test_identity_maize_network(self, vc5, profile5):
        problem = DesignProblem(vc5, profile5, Identity(K=31))
        report = solve_exact(problem, ConstraintSet(J=20, P=5), seed=0)
        assert tuple(report.design.counts) == (8, 1, 3, 7, 1)

    def test_constraints_satisfied_exactly(self, vc5, profile5):
        problem = DesignProblem(vc5, profile5, Identity(K=31))
        costs = [40.0, 44.0, 50.0, 65.0, 60.0]
        cons = ConstraintSet(J=20, P=5, min_per_region=2,
                             costs=costs, budget=50.0 * 20)
        report = solve_exact(problem, cons, seed=0)
        counts = report.design.counts
        assert cons.satisfies(counts)
        assert int(counts.sum()) == 20
        assert cons.cost(counts) <= 50.0 * 20 + 1e-9

    def test_gap_nonnegative_and_consistent(self, vc5, profile5):
        problem = DesignProblem(vc5, profile5, Identity(K=31))
        cons = ConstraintSet(J=40, P=5)
        exact = solve_exact(problem, cons, seed=0)
        approx = solve_approximate(problem, cons)
        assert exact.optimality_gap >= -1e-10
        assert exact.phi >= approx.phi - approx.optimality_gap - 1e-9

    def test_restart_dominance(self, vc5, profile5):
        problem = DesignProblem(vc5, profile5, Identity(K=31))
        cons = ConstraintSet(J=40, P=5)
        few = solve_exact(problem, cons, seed=5, restarts=1)
        many = solve_exact(problem, cons, seed=5, restarts=12)
        assert many.phi <= few.phi + 1e-12 * abs(few.phi)
        assert many.restarts_used == 12

    def test_repeated_runs_give_identical_reports(self, vc5, profile5):
        cons = ConstraintSet(J=40, P=5)
        first, again = (solve_exact(DesignProblem(vc5, profile5, Identity(K=31)),
                                    cons, seed=7, restarts=8) for _ in range(2))
        np.testing.assert_array_equal(first.design.counts, again.design.counts)
        for field in ("phi", "mse_trace", "optimality_gap", "iterations",
                      "restarts_used", "status", "seed"):
            assert getattr(first, field) == getattr(again, field), field

    def test_seed_recorded_and_defaulted(self, vc5, profile5):
        problem = DesignProblem(vc5, profile5, Identity(K=31))
        cons = ConstraintSet(J=20, P=5)
        report = solve_exact(problem, cons, seed=None, restarts=2)
        assert report.seed == 0
        assert report.phi == solve_exact(problem, cons, seed=0, restarts=2).phi


class TestEfficiency:
    def test_identical_designs_give_one(self, vc5, profile5):
        problem = DesignProblem(vc5, profile5, Identity(K=31))
        d = Design.exact(np.array([13, 6, 8, 12, 1]))
        assert efficiency(d, d, problem) == pytest.approx(1.0)

    def test_binding_constraint_lowers_efficiency(self, vc5, profile5):
        problem = DesignProblem(vc5, profile5, Identity(K=31))
        free = solve_exact(problem, ConstraintSet(J=40, P=5), seed=0)
        capped = solve_exact(problem,
                             ConstraintSet(J=40, P=5, min_per_region=2,
                                           max_per_region=10), seed=0)
        eff = efficiency(free.design, capped.design, problem)
        assert 0.0 < eff <= 1.0
        swapped = efficiency(capped.design, free.design, problem)
        assert swapped == pytest.approx(1.0 / eff)

    def test_weighted_criterion_pair(self, vc5, profile5):
        problem = DesignProblem(vc5, profile5, Identity(K=31),
                                CriterionSpec(weighting="weighted"))
        free = solve_exact(problem, ConstraintSet(J=20, P=5), seed=0)
        capped = solve_exact(problem,
                             ConstraintSet(J=20, P=5, min_per_region=2,
                                           max_per_region=5), seed=0)
        eff = efficiency(free.design, capped.design, problem)
        assert 0.0 < eff <= 1.0
