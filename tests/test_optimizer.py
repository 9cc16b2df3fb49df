from __future__ import annotations

from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import linprog

import helpers
from trialalloc import (BlockCompoundSymmetry, ConstraintSet, CriterionSpec, Design,
                        DesignProblem, Identity, InfeasibleError, NumericalError,
                        SubRegionProfile, ValidationError, VarianceComponents, _linalg,
                        efficiency, optimizer, round_to_exact, solve_approximate,
                        solve_exact)
from trialalloc._linalg import spd_factor
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
        # a single floor above J is the same infeasibility, not a bound conflict
        for kwargs in ({"min_per_region": 2}, {"min_per_region": [6, 0, 0]},
                       {"min_per_region": [6, 0, 0], "max_per_region": 7}):
            with pytest.raises(InfeasibleError) as exc_info:
                ConstraintSet(J=5, P=3, **kwargs)
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

    def test_equal_costs_spend_cost_times_j(self):
        # summed region by region, 36c + c + c + c + c is an ulp over 40c
        c = 123456789.1
        cons = ConstraintSet(J=40, P=5, min_per_region=1, costs=[c] * 5, budget=c * 40)
        assert cons.cost([36, 1, 1, 1, 1]) == cons.cost([8, 8, 8, 8, 8]) == c * 40

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
        # fewer than one region; one region is a valid feasibility object
        ({"P": -1}, "sub-regions P"), ({"P": 0}, "sub-regions P"),
        ({"P": None, "min_per_region": []}, "sub-regions P"),
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


def _budgeted_instances(seed=7, count=8, max_p=6):
    """``count`` fixed budgeted instances: P in [4, max_p], J in [3P, 10P),
    K = 8 kinships of each kind in turn, costs U(1, 3) and a budget of 80-95 %
    of the mean cost of J locations.  The defaults are the eight of
    "budgeted-8"; seed 11, 40 instances and P up to 8 are "gen-40"."""
    rng = np.random.default_rng(seed)
    instances = []
    while len(instances) < count:
        p = int(rng.integers(4, max_p + 1))
        j = int(rng.integers(3 * p, 10 * p))
        costs = rng.uniform(1.0, 3.0, p)
        budget = float(costs.mean() * j * rng.uniform(0.80, 0.95))
        kind = ("cs", "block", "dense")[len(instances) % 3]
        problem = DesignProblem(helpers.random_vc(rng), helpers.random_profile(rng, p),
                                helpers.random_kinship(rng, kind, K=8))
        try:
            cons = ConstraintSet(J=j, P=p, min_per_region=0, costs=costs, budget=budget)
        except InfeasibleError:
            continue
        instances.append((problem, cons))
    return instances


class TestWorkCounts:
    """Work per Newton iteration on one golden row, and the branch-and-bound
    work of whole exact solves."""

    @pytest.fixture()
    def counted(self, monkeypatch, vc5, profile5):
        problem = DesignProblem(vc5, profile5, helpers.family_block_kinship(0.5, 6, 5))
        ev = _CountingEvaluator(problem.evaluator(40))
        monkeypatch.setattr(DesignProblem, "evaluator", lambda self, J: ev)
        return problem, ev

    def test_one_newton_evaluation_per_iteration(self, counted):
        problem, ev = counted
        report = solve_approximate(problem, ConstraintSet(J=40, P=5))
        its = report.iterations
        assert report.status == "converged" and its <= 10
        # one evaluation per iteration and nothing else; the reported phi and
        # MSE trace come from problem.value
        assert ev.calls == Counter(newton_terms=its)

    def test_one_criterion_factorization_per_iteration(self, counted, monkeypatch):
        problem, _ = counted
        whats = Counter()

        def recording(a, what="matrix"):
            whats[what] += 1
            return spd_factor(a, what)

        monkeypatch.setattr(_linalg, "spd_factor", recording)
        report = solve_approximate(problem, ConstraintSet(J=40, P=5))
        # one per Newton evaluation; the reported phi and MSE trace add one
        # together
        assert whats == Counter({"criterion system": report.iterations + 1})

    def test_golden_row_work_counters(self, vc5, profile5, monkeypatch):
        """Work counters of the 30 golden exact solves: nodes, Newton
        evaluations and the KKT systems the Newton steps solve (every
        ``np.linalg.solve`` of a solve is one)."""
        solves = Counter()
        solve = np.linalg.solve

        def counted(*args):
            solves["kkt"] += 1
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", counted)
        reports = [solve_exact(DesignProblem(vc5, profile5, helpers.family_block_kinship(r, f, m)),
                               ConstraintSet(J=40, P=5))
                   for r, f, m, *_ in helpers.GOLDEN_ROWS]
        assert all(r.certified and r.phi - r.lower_bound <= 1e-12 * r.phi for r in reports)
        assert sum(r.nodes for r in reports) == 296
        assert sum(r.iterations for r in reports) == 605
        assert solves["kkt"] == 533

    def test_budgeted_work_counters(self):
        """Work counters of exact solves under a binding budget."""
        reports = [solve_exact(problem, cons) for problem, cons in _budgeted_instances()]
        assert all(r.certified and r.phi - r.lower_bound <= 1e-12 * r.phi for r in reports)
        assert [r.nodes for r in reports] == [17, 26, 10, 9, 17, 14, 11, 10]
        assert sum(r.iterations for r in reports) == 188

    def test_generated_budgeted_work_counters(self):
        """Work totals of the 40 "gen-40" budgeted exact solves, P up to 8."""
        reports = [solve_exact(problem, cons)
                   for problem, cons in _budgeted_instances(seed=11, count=40, max_p=8)]
        assert all(r.certified for r in reports)
        assert sum(r.nodes for r in reports) == 1137
        assert sum(r.iterations for r in reports) == 2008

    @pytest.mark.parametrize("J", [10**12, 10**15])
    def test_huge_networks_are_certified_at_the_root(self, vc5, profile5, J):
        # each box's Newton stops at a gap of tol relative to phi, so a prune
        # that asked for less would leave every near-tie open; pruning at tol
        # certifies each row's rounded root
        reports = [solve_exact(DesignProblem(vc5, profile5, helpers.family_block_kinship(r, f, m)),
                               ConstraintSet(J=J, P=5))
                   for r, f, m, *_ in helpers.GOLDEN_ROWS]
        assert all(r.certified and r.design.J == J for r in reports)
        assert sum(r.nodes for r in reports) == 30

    def test_the_node_limit_stops_the_search_with_a_valid_bound(self, monkeypatch,
                                                                vc5, profile5):
        problem = DesignProblem(vc5, profile5, helpers.family_block_kinship(0.5, 6, 50))
        cons = ConstraintSet(J=40, P=5)
        default, gaps = optimizer._NODE_LIMIT, []
        for limit in (1, 3, default):
            monkeypatch.setattr(optimizer, "_NODE_LIMIT", limit)
            report = solve_exact(problem, cons)
            assert cons.satisfies(report.design.counts)
            assert report.lower_bound <= report.phi
            assert report.optimality_gap == report.phi - report.lower_bound
            gaps.append(report.optimality_gap)
            if limit < default:
                assert report.nodes == limit and not report.certified
        assert report.certified and report.nodes < default
        # a larger limit never loosens the bound
        assert gaps == sorted(gaps, reverse=True) and gaps[1] < gaps[0]

    def test_a_newton_step_that_does_not_lower_phi_stalls(self, monkeypatch):
        class Flat:
            """phi stays within ``rise`` ulps of its start and the gap grows
            after the first step, so no step makes progress."""
            calls, rise = 0, 0

            def newton_terms(self, x):
                Flat.calls += 1
                if Flat.calls == 1:
                    return 1.0, np.array([0.0, -1.0]), np.eye(2)
                return 1.0 + Flat.rise * np.spacing(1.0), np.array([-1.0, 0.0]), np.eye(2)

        monkeypatch.setattr(DesignProblem, "evaluator", lambda self, J: Flat())
        for Flat.rise in (0, 2):
            Flat.calls = 0
            report = solve_approximate(_symmetric_problem(), ConstraintSet(J=10, P=2))
            assert (report.status, report.iterations, Flat.calls) == ("stalled", 2, 2)
            np.testing.assert_array_equal(report.design.weights, [0.5, 0.5])
            assert report.optimality_gap == pytest.approx(0.4)

    def test_an_overshooting_step_is_halved_once_and_kept(self, monkeypatch):
        class Quadratic:
            """phi = (x_2 - 0.65)² under a Hessian that shows only 0.4 of its
            curvature, so the full step from (0.5, 0.5) overshoots to
            (0.125, 0.875) and half of it lands at (0.3125, 0.6875)."""
            points = []

            def newton_terms(self, x):
                Quadratic.points.append(x.copy())
                return (x[1] - 0.65) ** 2, np.array([0.0, 2.0 * (x[1] - 0.65)]), 0.4 * np.eye(2)

        monkeypatch.setattr(DesignProblem, "evaluator", lambda self, J: Quadratic())
        monkeypatch.setattr(optimizer, "_EVALUATION_LIMIT", 3)
        report = solve_approximate(_symmetric_problem(), ConstraintSet(J=10, P=2))
        np.testing.assert_allclose(Quadratic.points,
                                   [[0.5, 0.5], [0.125, 0.875], [0.3125, 0.6875]], rtol=1e-12)
        assert (report.status, report.iterations) == ("max_iter", 3)
        np.testing.assert_allclose(report.design.weights, [0.3125, 0.6875], rtol=1e-12)

    def test_a_step_to_a_point_with_a_converged_gap_is_kept(self, monkeypatch):
        class Certified:
            """phi rises by 64 ulps after the first step, but the gradient
            there makes the step's end the best vertex: a gap of 0."""
            calls = 0

            def newton_terms(self, x):
                Certified.calls += 1
                return (1.0 + 64 * np.spacing(1.0) * (Certified.calls > 1),
                        np.array([0.0, -1.0]), np.eye(2))

        monkeypatch.setattr(DesignProblem, "evaluator", lambda self, J: Certified())
        report = solve_approximate(_symmetric_problem(), ConstraintSet(J=10, P=2))
        assert (report.status, report.iterations, Certified.calls) == ("converged", 2, 2)
        np.testing.assert_allclose(report.design.weights, [0.1, 0.9], rtol=1e-12)
        assert report.optimality_gap == 0.0

    def test_rounding_level_rise_is_kept_only_when_the_gap_halves(self):
        ulp = np.spacing(100.0)
        assert optimizer._step_kept(100.0 - ulp, 1e-6, 100.0, 1e-6)
        assert optimizer._step_kept(100.0 + 2 * ulp, 0.5e-6, 100.0, 1e-6)
        assert not optimizer._step_kept(100.0 + 2 * ulp, 0.6e-6, 100.0, 1e-6)
        assert not optimizer._step_kept(100.0, 0.6e-6, 100.0, 1e-6)
        assert not optimizer._step_kept(100.0 + 64 * ulp, 1e-9, 100.0, 1e-6)


@st.composite
def _constraint_args(draw, min_p=1):
    """Keyword arguments of a small ConstraintSet (P <= 3, J <= 9): bounds
    and an optional budget."""
    p = draw(st.integers(min_p, 3))
    j = draw(st.integers(1, 9))
    lo = draw(st.lists(st.integers(0, 4), min_size=p, max_size=p))
    hi = [v + draw(st.integers(0, 9)) for v in lo]
    args = {"J": j, "P": p, "min_per_region": lo, "max_per_region": hi}
    if draw(st.booleans()):
        args["costs"] = draw(st.lists(st.integers(1, 5), min_size=p, max_size=p))
        args["budget"] = draw(st.integers(1, 5 * j))
    return args


def _box_has_a_feasible_vector(args):
    hi = [min(h, args["J"]) for h in args["max_per_region"]]
    for counts in product(*(range(lo, h + 1) for lo, h in zip(args["min_per_region"], hi))):
        if sum(counts) != args["J"]:
            continue
        if "costs" in args and np.dot(args["costs"], counts) > args["budget"]:
            continue
        return True
    return False


@st.composite
def _search_instances(draw):
    """A problem with P <= 3 and J <= 12 under caps and, in 60 % of draws,
    a budget between 80 % and 100 % of the mean cost of J locations."""
    p = draw(st.integers(2, 3))
    j = draw(st.integers(p, 12))
    args = {"J": j, "P": p, "min_per_region": 0,
            "max_per_region": draw(st.lists(st.integers(1, j), min_size=p, max_size=p))}
    if draw(st.integers(0, 4)) < 3:
        costs = draw(st.lists(st.floats(1.0, 3.0), min_size=p, max_size=p))
        args.update(costs=costs, budget=float(np.mean(costs) * j * draw(st.floats(0.8, 1.0))))
    try:
        cons = ConstraintSet(**args)
    except InfeasibleError:
        assume(False)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    problem = DesignProblem(helpers.random_vc(rng), helpers.random_profile(rng, p),
                            helpers.random_kinship(rng, draw(st.sampled_from(
                                ["cs", "block", "dense"])), K=6))
    return problem, cons


@st.composite
def _tied_cost_sets(draw, max_p=6, max_j=40, min_exponent=0, slacks=(1.0,)):
    """A ConstraintSet whose P regions share fewer than P cost levels in
    [1, 3) scaled by 10**k, k in [min_exponent, 12]: floors of 0 or 1, caps
    in half the draws, and the budget at the cheapest fill's spend times a
    factor from ``slacks``."""
    p = draw(st.integers(2, max_p))
    j = draw(st.integers(2 * p, max_j))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    levels = rng.uniform(1.0, 3.0, draw(st.integers(1, p - 1)))
    costs = levels[rng.integers(0, levels.size, p)] * 10.0 ** draw(st.integers(min_exponent, 12))
    lo = rng.integers(0, 2, p)
    hi = lo + rng.integers(-(-j // p), j + 1, p) if draw(st.booleans()) else None
    free = ConstraintSet(J=j, min_per_region=lo, max_per_region=hi, costs=costs,
                         budget=float(costs.max()) * j)
    fill = optimizer._fill(free.min_per_region, free.max_per_region, j, costs)
    return ConstraintSet(J=j, min_per_region=lo, max_per_region=hi, costs=costs,
                         budget=free.cost(fill) * draw(st.sampled_from(slacks)))


class TestGeneratedInstances:
    """Exact solver and feasibility certificate on generated small instances."""

    @settings(max_examples=40, deadline=None)
    @given(_constraint_args())
    def test_infeasible_iff_enumeration_is_empty(self, args):
        try:
            ConstraintSet(**args)
            raised = False
        except InfeasibleError:
            raised = True
        assert raised != _box_has_a_feasible_vector(args)

    @settings(max_examples=25, deadline=None)
    @given(_constraint_args(min_p=2), st.sampled_from(["cs", "block", "dense"]),
           st.integers(0, 2 ** 32 - 1))
    def test_exact_design_is_a_feasible_local_optimum(self, args, kind, seed):
        try:
            cons = ConstraintSet(**args)
        except InfeasibleError:
            assume(False)
        rng = np.random.default_rng(seed)
        problem = DesignProblem(helpers.random_vc(rng), helpers.random_profile(rng, cons.P),
                                helpers.random_kinship(rng, kind, K=6))
        report = solve_exact(problem, cons)
        counts = report.design.counts
        assert cons.satisfies(counts)
        assert report.phi == problem.phi(report.design)
        slack = 1e-12 * abs(report.phi)
        for i, k in product(range(cons.P), repeat=2):
            moved = counts.copy()
            moved[i] -= 1
            moved[k] += 1
            if i != k and cons.satisfies(moved):
                assert problem.phi(Design.exact(moved)) >= report.phi - slack
        best = enumerate_exact_optimum(problem, cons)
        assert report.phi >= problem.phi(best) - slack
        assert report.lower_bound <= report.phi

    @settings(max_examples=40, deadline=None)
    @given(_search_instances())
    def test_certified_optimum_equals_enumeration(self, instance):
        problem, cons = instance
        report = solve_exact(problem, cons)
        best = enumerate_exact_optimum(problem, cons)
        assert report.certified and cons.satisfies(report.design.counts)
        assert report.phi == pytest.approx(problem.phi(best), rel=1e-12)
        assert report.lower_bound <= report.phi

    @settings(max_examples=40, deadline=None)
    @given(_search_instances())
    def test_every_child_bound_is_below_the_child_s_integer_points(self, instance):
        problem, cons = instance
        bounds, child_bound = [], optimizer._child_bound

        def recorded(phi, x, g, lo, hi, costs, budget_w):
            value = child_bound(phi, x, g, lo, hi, costs, budget_w)
            bounds.append((lo * cons.J, hi * cons.J, value))
            return value

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(optimizer, "_child_bound", recorded)
            solve_exact(problem, cons)
        for lo, hi, bound in bounds:
            child = ConstraintSet(J=cons.J, min_per_region=np.rint(lo).astype(int),
                                  max_per_region=np.rint(hi).astype(int),
                                  costs=cons.costs, budget=cons.budget)
            least = problem.phi(enumerate_exact_optimum(problem, child))
            assert bound <= least + 1e-12 * abs(least)

    @settings(max_examples=40, deadline=None)
    @given(_search_instances())
    def test_only_unprunable_fractional_boxes_branch_before_tol(self, instance):
        problem, cons = instance
        early, newton = [], optimizer._newton

        def recorded(ev, y, lo, hi, costs, budget_w, tol, cutoff=np.inf, j=None):
            result = newton(ev, y, lo, hi, costs, budget_w, tol, cutoff, j)
            x, phi, gap, _, hess = result[:5]
            # stopped above tol, yet not pruned
            if gap > tol * max(1.0, abs(phi)) and phi - gap < cutoff:
                early.append((cutoff, x, phi, hess))
            return result

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(optimizer, "_newton", recorded)
            report = solve_exact(problem, cons)
        assert report.certified
        for cutoff, x, phi, hess in early:
            # the root runs before there is an incumbent, under an infinite cutoff
            assert np.isfinite(cutoff) and phi < cutoff
            assert optimizer._branch(x, cons.J, hess) is not None

    @settings(max_examples=25, deadline=None)
    @given(_tied_cost_sets(max_p=4, max_j=14, min_exponent=7, slacks=(1.0, 1.05, 1.2)),
           st.sampled_from(["cs", "block", "dense"]), st.integers(0, 2 ** 32 - 1))
    def test_certified_optimum_equals_enumeration_under_tied_costs(self, cons, kind, seed):
        rng = np.random.default_rng(seed)
        problem = DesignProblem(helpers.random_vc(rng), helpers.random_profile(rng, cons.P),
                                helpers.random_kinship(rng, kind, K=6))
        report = solve_exact(problem, cons)
        best = enumerate_exact_optimum(problem, cons)
        assert report.certified and cons.satisfies(report.design.counts)
        assert report.phi == pytest.approx(problem.phi(best), rel=1e-12)


def _equality_qp(g, q, rows, rhs):
    """Minimizer of g·d + ½ dᵀq d subject to rows·d = rhs, or None when the
    rows are dependent."""
    p, m = g.size, len(rows)
    kkt = np.block([[q, rows.T], [rows, np.zeros((m, m))]])
    if np.linalg.matrix_rank(kkt) < p + m:
        return None
    return np.linalg.solve(kkt, np.concatenate([-g, rhs]))[:p]


def _qp_by_enumeration(g, q, lower, upper, costs, slack):
    """Best feasible candidate over every active-set pattern: each bound at
    its lower end, its upper end or free, the budget row on or off."""
    p = g.size
    best, best_value = None, np.inf
    for pattern in product(range(3), repeat=p):
        for budget_on in ((False, True) if costs is not None else (False,)):
            fixed = [i for i in range(p) if pattern[i] < 2]
            rows = [np.ones(p)] + [np.eye(p)[i] for i in fixed]
            rhs = [0.0] + [(lower, upper)[pattern[i]][i] for i in fixed]
            if budget_on:
                rows.append(np.asarray(costs, dtype=float))
                rhs.append(slack)
            d = _equality_qp(g, q, np.array(rows), np.array(rhs))
            if d is None or np.any(d < lower - 1e-9) or np.any(d > upper + 1e-9) \
                    or (costs is not None and costs @ d > slack + 1e-9):
                continue
            value = g @ d + 0.5 * d @ q @ d
            if value < best_value:
                best, best_value = d, value
    return best, best_value


@st.composite
def _box_qps(draw):
    """A positive-definite QP over a box around 0 (some sides at 0, some
    coordinates pinned), with or without a budget row that d = 0 meets."""
    p = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.normal(size=(p, p))
    q = a @ a.T + draw(st.sampled_from([1e-3, 0.1, 1.0])) * np.eye(p)
    g = rng.normal(size=p) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    lower = -rng.uniform(0.0, 1.0, p) * (rng.random(p) < 0.7)
    upper = rng.uniform(0.0, 1.0, p) * (rng.random(p) < 0.7)
    costs = slack = None
    if draw(st.booleans()):
        costs = rng.uniform(1.0, 5.0, p)
        slack = draw(st.sampled_from([0.0, 0.05, 0.5]))
    return g, q, lower, upper, costs, slack


def _vertex_minimum(g, lo, hi, costs, budget_w):
    """min g·x over lo <= x <= hi, Σx = 1, costs·x <= budget_w by trying every
    vertex: each coordinate at a bound except one or two, which the equality
    rows (the sum, and the budget row for two) determine."""
    p = g.size
    best = np.inf
    for free in [(i,) for i in range(p)] + [(i, k) for i in range(p) for k in range(i + 1, p)]:
        others = [i for i in range(p) if i not in free]
        for ends in product((lo, hi), repeat=len(others)):
            x = np.zeros(p)
            x[others] = [end[i] for end, i in zip(ends, others)]
            rows = np.ones((1, len(free))) if len(free) == 1 else np.stack([np.ones(2), costs[list(free)]])
            rhs = [1.0 - x.sum()] + ([budget_w - costs @ x] if len(free) == 2 else [])
            if abs(np.linalg.det(rows)) < 1e-12:
                continue
            x[list(free)] = np.linalg.solve(rows, rhs)
            if np.all(x >= lo - 1e-12) and np.all(x <= hi + 1e-12) \
                    and costs @ x <= budget_w + 1e-12:
                best = min(best, g @ x)
    return best


class TestNewtonStep:
    """The exact QP under the Newton direction, on generated instances."""

    @settings(max_examples=40, deadline=None)
    @given(_box_qps())
    # the first step runs into the budget row, which the optimum then leaves
    @example(qp=(np.array([0.7, -1.1, -0.8]),
                 np.array([[1.65, 0.34, 0.49], [0.34, 1.65, 0.51], [0.49, 0.51, 2.38]]),
                 np.array([-0.6, -0.7, -1.0]), np.array([0.3, 0.6, 0.7]),
                 np.array([2.0, 1.0, 5.0]), 0.1))
    # the budget and sum rows fix both free coordinates: a solved step there
    # is rounding, which moves Σd (by -4.9e-12 here)
    @example(qp=(np.array([1562.335887318896, -136.10668829148022, -379.39663173317905,
                           -682.3555498833435]),
                 np.array([[2.649479519896543, -1.2171256919793207, 0.5557263776569407,
                            0.3378178790697857],
                           [-1.2171256919793207, 1.7552128375393095, -0.2510774311822359,
                            -0.46805097214073904],
                           [0.5557263776569407, -0.2510774311822359, 1.2879465976719795,
                            1.5973892245812464],
                           [0.3378178790697857, -0.46805097214073904, 1.5973892245812464,
                            2.5309044717477374]]),
                 np.array([-0.9568383538773919, -0.8727859854368892, -0.605386922492655, 0.0]),
                 np.array([0.0, 0.0, 0.049996279161972246, 0.0919691904194444]),
                 np.array([3.5663223577498395, 3.4269521309447417, 3.618667551725817,
                           1.4958907845171345]), 0.0))
    # as above, and a bound then blocks that step, leaving one free
    # coordinate under both rows: a singular system
    @example(qp=(np.array([-91.32773880749363, -613.0539422156091]),
                 np.array([[1.7741432724844284, -0.4423384973652637],
                           [-0.4423384973652637, 2.903883699077879]]),
                 np.array([-0.7820426720607044, -0.5400694637244676]),
                 np.array([0.0, 0.3229057945509941]),
                 np.array([1.2186556029062805, 1.5032902985007413]), 0.0))
    # a bound and then the budget row block, leaving two free coordinates
    # that the sum and budget rows fix: the step there is 0, and the rows'
    # multipliers alone decide the next working set
    @example(qp=(np.array([-1.3, -0.6, 0.0]),
                 np.array([[0.94, 0.32, -0.41], [0.32, 0.93, -0.62], [-0.41, -0.62, 3.59]]),
                 np.array([-0.9, -0.1, -0.8]), np.array([0.3, 0.9, 0.6]),
                 np.array([2.0, 3.0, 1.0]), 0.0))
    def test_qp_answer_is_kkt_and_beats_every_active_set(self, qp):
        g, q, lower, upper, costs, slack = qp
        d = optimizer._box_qp(g, q, lower, upper, costs, slack)
        assert np.all(d >= lower - 1e-12) and np.all(d <= upper + 1e-12)
        assert abs(d.sum()) <= 1e-12
        if costs is not None:
            assert costs @ d <= slack + 1e-12
        # KKT for linear constraints: d minimizes the linearization at d
        r = g + q @ d
        lp = linprog(r, A_ub=None if costs is None else costs[None, :],
                     b_ub=None if costs is None else [slack],
                     A_eq=np.ones((1, g.size)), b_eq=[0.0],
                     bounds=list(zip(lower, upper)), method="highs")
        assert lp.success
        scale = np.abs(r).max() * max(np.abs(lower).max(), upper.max(), 1e-300)
        assert r @ d <= lp.fun + 1e-9 * scale
        best, best_value = _qp_by_enumeration(g, q, lower, upper, costs, slack)
        value = g @ d + 0.5 * d @ q @ d
        assert value == pytest.approx(best_value, rel=1e-9, abs=1e-8 * np.abs(g).max())
        np.testing.assert_allclose(d, best, atol=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 2 ** 32 - 1))
    def test_budgeted_certificate_is_the_best_vertex(self, p, seed):
        rng = np.random.default_rng(seed)
        lo = rng.uniform(0.0, 0.15, p) * (rng.random(p) < 0.6)
        hi = lo + rng.uniform(0.1, 1.0, p)
        assume(lo.sum() <= 1.0 <= hi.sum())
        costs = rng.uniform(1.0, 5.0, p)
        cheapest = optimizer._linear_minimum(costs, lo, hi, None, None) @ costs
        budget_w = cheapest + rng.uniform(0.0, 1.0) * (costs @ hi - cheapest)
        # nearly flat forms are where an LP solver's tolerances show
        g = -1.0 + rng.normal(size=p) * rng.choice([1e-9, 1e-3, 1.0])
        s = optimizer._linear_minimum(g, lo, hi, costs, budget_w)
        assert np.all(s >= lo - 1e-15) and np.all(s <= hi + 1e-15)
        assert s.sum() == pytest.approx(1.0, abs=1e-14)
        assert costs @ s <= budget_w + 1e-14
        assert g @ s == pytest.approx(_vertex_minimum(g, lo, hi, costs, budget_w),
                                      rel=1e-14, abs=1e-14)


class TestApproximateSolver:
    def test_converged_status(self):
        report = solve_approximate(_symmetric_problem(), ConstraintSet(J=10, P=2))
        assert report.status == "converged"
        assert report.optimality_gap <= 1e-9 * max(1.0, report.phi)

    def test_iteration_cap_reported(self, monkeypatch, vc5, profile5):
        problem = DesignProblem(vc5, profile5, Identity(K=31))
        exact = solve_exact(problem, ConstraintSet(J=40, P=5))
        assert exact.status == solve_approximate(problem, ConstraintSet(J=40, P=5)).status
        monkeypatch.setattr(optimizer, "_EVALUATION_LIMIT", 1)
        report = solve_approximate(problem, ConstraintSet(J=40, P=5))
        assert report.status == "max_iter"
        assert report.iterations == 1
        capped = solve_exact(problem, ConstraintSet(J=40, P=5))
        assert capped.status == "max_iter"
        assert solve_exact(problem, ConstraintSet(J=40, P=5),
                           tol=0.5).status == "converged"

    @pytest.mark.parametrize("kwargs, field", [
        ({"tol": float("nan")}, "tol"), ({"tol": -1.0}, "tol"), ({"tol": 0.0}, "tol"),
    ])
    def test_bad_settings_rejected(self, kwargs, field):
        cons = ConstraintSet(J=10, P=2)
        with pytest.raises(ValidationError, match=field):
            solve_approximate(_symmetric_problem(), cons, **kwargs)
        with pytest.raises(ValidationError, match=field):
            solve_exact(_symmetric_problem(), cons, **kwargs)

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

    @pytest.mark.parametrize("costs", [[1.0, 1.0], [1.0, 2.0]])
    def test_a_budget_met_within_its_tolerance_keeps_the_relaxation(self, costs):
        # the cheapest design costs an ulp more than the budget, which the
        # integer designs' tolerance accepts; the relaxation accepts it too
        problem = _symmetric_problem()
        cons = ConstraintSet(J=5, P=2, min_per_region=0, costs=costs,
                             budget=np.nextafter(5 * min(costs), 0))
        assert solve_approximate(problem, cons).status == "converged"
        exact = solve_exact(problem, cons)
        best = enumerate_exact_optimum(problem, cons)
        assert exact.certified
        assert exact.phi == pytest.approx(problem.phi(best), rel=1e-12)

    def test_constrained_solution_not_better_than_free(self, vc5, profile5):
        problem = DesignProblem(vc5, profile5, Identity(K=31))
        free = solve_approximate(problem, ConstraintSet(J=40, P=5,
                                                        min_per_region=0))
        boxed = solve_approximate(problem, ConstraintSet(J=40, P=5,
                                                         min_per_region=4))
        assert boxed.phi >= free.phi - 1e-10 * abs(free.phi)


def _generated_instance(rng):
    """A problem and constraints over the solver's range, or None when the
    constraints are infeasible: P in [2, 12]; J in {P, 2P, 10P, 200, 1000,
    5000}; no floor, with caps or a budget; any kinship with K in [4, 30);
    both targets and weightings; V ill-conditioned (condition number 1e4 to
    1e8) in 30 % of draws."""
    p = int(rng.integers(2, 13))
    j = int(rng.choice([p, 2 * p, 10 * p, 200, 1000, 5000]))
    kind = str(rng.choice(["cs", "block", "dense", "identity"]))
    k = int(rng.integers(4, 30))
    criterion = CriterionSpec(target=str(rng.choice(["effects", "contrasts"])),
                              weighting=str(rng.choice(["standard", "weighted"])))
    vc, profile = helpers.random_vc(rng), helpers.random_profile(rng, p)
    if rng.random() < 0.3:
        q, _ = np.linalg.qr(rng.normal(size=(p, p)))
        v = (q * np.logspace(0, -rng.uniform(4, 8), p)) @ q.T * rng.uniform(10, 200)
        profile = SubRegionProfile(V=(v + v.T) / 2, ell=profile.ell)
    kinship = helpers.random_kinship(rng, kind, K=k)
    if rng.random() < 0.5:
        bounds = {"max_per_region": rng.integers(max(1, j // p), j + 1, p)}
    else:
        costs = rng.uniform(1.0, 3.0, p)
        bounds = {"costs": costs, "budget": float(costs.mean() * j * rng.uniform(0.8, 1.0))}
    try:
        cons = ConstraintSet(J=j, P=p, min_per_region=0, **bounds)
    except InfeasibleError:
        return None
    return DesignProblem(vc, profile, kinship, criterion), cons


class TestStepRule:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    # full steps that are never halved stall at relative gaps of 1.8 and 2.6 here
    @example(seed=46)
    @example(seed=220)
    def test_generated_instances_converge_or_stall_at_rounding(self, seed):
        instance = _generated_instance(np.random.default_rng(seed))
        assume(instance is not None)
        problem, cons = instance
        report = solve_approximate(problem, cons)
        assert report.status in ("converged", "stalled")
        if report.status == "stalled":
            assert report.optimality_gap <= 1e-6 * max(1.0, abs(report.phi))


class TestPermutationEquivariance:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 5), st.sampled_from(["cs", "block", "dense"]), st.booleans(),
           st.integers(0, 2 ** 32 - 1))
    def test_permuted_regions_permute_the_optimum(self, p, kind, budget, seed):
        rng = np.random.default_rng(seed)
        vc, kinship = helpers.random_vc(rng), helpers.random_kinship(rng, kind, K=6)
        profile = helpers.random_profile(rng, p)
        j = int(rng.integers(10, 41))
        lo = rng.integers(0, 3, p)
        hi = lo + rng.integers(j // 4, j + 1, p)
        costs = rng.uniform(1.0, 5.0, p) if budget else None
        spend = None if costs is None else float(costs @ np.full(p, j / p)) * rng.uniform(0.8, 1.2)
        perm = rng.permutation(p)

        def solve(order):
            moved = SubRegionProfile(V=profile.V[np.ix_(order, order)], ell=profile.ell[order])
            cons = ConstraintSet(J=j, min_per_region=lo[order], max_per_region=hi[order],
                                 costs=None if costs is None else costs[order],
                                 budget=spend)
            return solve_approximate(DesignProblem(vc, moved, kinship), cons, tol=1e-12)

        try:
            base = solve(np.arange(p))
        except InfeasibleError:
            assume(False)
        permuted = solve(perm)
        np.testing.assert_allclose(permuted.design.weights, base.design.weights[perm],
                                   rtol=0, atol=1e-8)
        assert permuted.phi == pytest.approx(base.phi, rel=1e-12)


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

    def test_tied_costs_at_a_budget_of_the_cheapest_fill(self, vc5):
        problem = DesignProblem(vc5, SubRegionProfile(V=helpers.V5[:4, :4], ell=helpers.ELL5[:4]),
                                Identity(K=31))
        cons = ConstraintSet(J=22, min_per_region=1, costs=helpers.TIED_COSTS,
                             budget=helpers.TIED_BUDGET)
        root = solve_approximate(problem, cons).design.weights
        assert cons.satisfies(round_to_exact(root, cons).counts)

    @settings(max_examples=200, deadline=None)
    @given(_tied_cost_sets(), st.integers(0, 2 ** 32 - 1))
    def test_rounding_meets_a_budget_of_the_cheapest_fill(self, cons, seed):
        weights = np.random.default_rng(seed).dirichlet(np.ones(cons.P))
        assert cons.satisfies(round_to_exact(weights, cons).counts)

    @pytest.mark.parametrize("weights", [[np.nan, 0.5, 0.5], [0.2, 0.2, 0.2],
                                         [np.inf, 0.0, 0.0], [-0.1, 0.6, 0.5]])
    def test_bad_weights_rejected(self, weights):
        with pytest.raises(ValidationError, match="weights"):
            round_to_exact(weights, ConstraintSet(J=10, P=3))

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
            report = solve_exact(problem, cons)
            best = enumerate_exact_optimum(problem, cons)
            assert tuple(report.design.counts) == tuple(best.counts)

    def test_identity_maize_network(self, vc5, profile5):
        problem = DesignProblem(vc5, profile5, Identity(K=31))
        report = solve_exact(problem, ConstraintSet(J=20, P=5))
        assert tuple(report.design.counts) == (8, 1, 3, 7, 1)

    def test_constraints_satisfied_exactly(self, vc5, profile5):
        problem = DesignProblem(vc5, profile5, Identity(K=31))
        costs = [40.0, 44.0, 50.0, 65.0, 60.0]
        cons = ConstraintSet(J=20, P=5, min_per_region=2,
                             costs=costs, budget=50.0 * 20)
        report = solve_exact(problem, cons)
        counts = report.design.counts
        assert cons.satisfies(counts)
        assert int(counts.sum()) == 20
        assert cons.cost(counts) <= 50.0 * 20 + 1e-9

    def test_gap_nonnegative_and_consistent(self, vc5, profile5):
        problem = DesignProblem(vc5, profile5, Identity(K=31))
        cons = ConstraintSet(J=40, P=5)
        exact = solve_exact(problem, cons)
        approx = solve_approximate(problem, cons)
        assert exact.optimality_gap >= -1e-10
        assert exact.phi >= approx.phi - approx.optimality_gap - 1e-9
        assert exact.lower_bound >= approx.phi - approx.optimality_gap
        assert exact.optimality_gap == exact.phi - exact.lower_bound

    def test_repeated_runs_give_identical_reports(self, vc5, profile5):
        cons = ConstraintSet(J=40, P=5)
        first, again = (solve_exact(DesignProblem(vc5, profile5, Identity(K=31)), cons)
                        for _ in range(2))
        np.testing.assert_array_equal(first.design.counts, again.design.counts)
        for field in ("phi", "mse_trace", "optimality_gap", "iterations", "status",
                      "lower_bound", "certified", "nodes"):
            assert getattr(first, field) == getattr(again, field), field

    def test_the_search_improves_on_the_rounded_incumbent(self, vc5, profile5):
        problem = DesignProblem(vc5, profile5, Identity(K=31))
        # under a tight budget the rounded relaxation, the first incumbent,
        # is far from the optimum
        cons = ConstraintSet(J=20, P=5, min_per_region=0,
                             costs=[40.0, 44.0, 50.0, 65.0, 60.0], budget=43.0 * 20)
        start = round_to_exact(solve_approximate(problem, cons).design.weights, cons)
        assert problem.phi(start) == pytest.approx(11.0537, abs=1e-4)
        report = solve_exact(problem, cons)
        assert (report.certified, report.nodes) == (True, 13)
        assert report.phi == pytest.approx(10.5515, abs=1e-4)
        best = enumerate_exact_optimum(problem, cons)
        np.testing.assert_array_equal(report.design.counts, best.counts)
        assert solve_approximate(problem, cons).certified is None

    def test_budgeted_instance_reaches_the_enumerated_optimum(self):
        # a budgeted instance where the optimum lies two transfers from any
        # local optimum near the rounded relaxation, written out at full
        # precision: rounded inputs lose the difficulty
        profile = SubRegionProfile(V=np.array([
            [11.933741181973598, -0.48389201835838014, 1.2082368131158,
             -1.3012518592874454, -5.567032498805289],
            [-0.48389201835838014, 8.36168704021083, -1.2381231905921142,
             0.5842570290723401, -0.04070892985626256],
            [1.2082368131158, -1.2381231905921142, 11.583153963369629,
             1.432983878699765, 0.3147956716022458],
            [-1.3012518592874454, 0.5842570290723401, 1.432983878699765,
             6.623910538010915, 0.7849839854702155],
            [-5.567032498805289, -0.04070892985626256, 0.3147956716022458,
             0.7849839854702155, 10.205116617493683]]),
            ell=np.array([2.020880222033572, 0.809047783114641, 2.0658185634528374,
                          2.230181643764748, 3.245182458185374]))
        vc = VarianceComponents(sigma2_omega=8.324616615858659,
                                sigma2_tau=25.01889014015245,
                                sigma2_gamma=199.52787598412573,
                                sigma2_phi_plus_err_over_L=222.06723458895186, H=3)
        kinship = BlockCompoundSymmetry(f=3, m=2, sigma2_alpha=1.9086228926232374,
                                        r=0.08337717258088091)
        cons = ConstraintSet(J=44, P=5, costs=[1.7705571499572428, 2.5327353075990753,
                                               2.0530791001234596, 2.3457586011474825,
                                               2.980053691882885],
                             budget=92.6553334798223)
        problem = DesignProblem(vc, profile, kinship)
        # enumerate_exact_optimum's answer; enumerating takes seconds
        optimum = Design.exact(np.array([19, 5, 13, 2, 5]))
        assert cons.satisfies(optimum.counts)
        report = solve_exact(problem, cons)
        assert report.phi == pytest.approx(problem.phi(optimum), rel=1e-12)
        np.testing.assert_array_equal(report.design.counts, optimum.counts)
        assert report.certified

    @pytest.mark.parametrize("kwargs, field", [
        ({"restarts": 1.5}, "restarts"), ({"restarts": -1}, "restarts"),
        ({"seed": 3.9}, "seed"), ({"seed": -2}, "seed"),
        ({"max_iter": 0}, "max_iter"), ({"max_iter": 2.5}, "max_iter"),
    ])
    def test_bad_start_settings_rejected(self, kwargs, field):
        # removed settings: the search draws no starts, and the evaluation
        # cap is the constant _EVALUATION_LIMIT
        for solve in (solve_approximate, solve_exact):
            with pytest.raises(TypeError, match=field):
                solve(_symmetric_problem(), ConstraintSet(J=10, P=2), **kwargs)


class TestEfficiency:
    def test_identical_designs_give_one(self, vc5, profile5):
        problem = DesignProblem(vc5, profile5, Identity(K=31))
        d = Design.exact(np.array([13, 6, 8, 12, 1]))
        assert efficiency(d, d, problem) == pytest.approx(1.0)

    def test_a_criterion_that_underflows_to_zero_is_a_numerical_error(self, vc5, profile5):
        alternative = Design.exact(np.array([12, 6, 8, 12, 2]))
        # V scaled by 1e-300 underflows phi to 0.0, by 1e-160 to a subnormal
        for scale in (1e-300, 1e-160):
            tiny = SubRegionProfile(V=profile5.V * scale, ell=profile5.ell)
            problem = DesignProblem(vc5, tiny, Identity(K=31))
            with pytest.raises(NumericalError, match="criterion underflows"):
                efficiency(Design.exact(np.array([13, 6, 8, 12, 1])), alternative, problem)

    def test_binding_constraint_lowers_efficiency(self, vc5, profile5):
        problem = DesignProblem(vc5, profile5, Identity(K=31))
        free = solve_exact(problem, ConstraintSet(J=40, P=5))
        capped = solve_exact(problem,
                             ConstraintSet(J=40, P=5, min_per_region=2,
                                           max_per_region=10))
        eff = efficiency(free.design, capped.design, problem)
        assert 0.0 < eff <= 1.0
        swapped = efficiency(capped.design, free.design, problem)
        assert swapped == pytest.approx(1.0 / eff)

    def test_weighted_criterion_pair(self, vc5, profile5):
        problem = DesignProblem(vc5, profile5, Identity(K=31),
                                CriterionSpec(weighting="weighted"))
        free = solve_exact(problem, ConstraintSet(J=20, P=5))
        capped = solve_exact(problem,
                             ConstraintSet(J=20, P=5, min_per_region=2,
                                           max_per_region=5))
        eff = efficiency(free.design, capped.design, problem)
        assert 0.0 < eff <= 1.0
