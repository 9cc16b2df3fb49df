from __future__ import annotations

from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import linprog

import helpers
from trialalloc import (ConstraintSet, CriterionSpec, Design, DesignProblem,
                        Identity, InfeasibleError, SubRegionProfile,
                        ValidationError, criteria, efficiency, optimizer,
                        round_to_exact, solve_approximate, solve_exact)
from trialalloc._linalg import spd_cholesky
from trialalloc.optimizer import (_random_feasible, _rational_argmin,
                                  _transfer_descent)
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
    """Work per Newton iteration and per descent sweep on one golden row."""

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
        # one evaluation per iteration, one line search between two of them,
        # and the reported phi and MSE trace once at the end
        assert ev.calls == Counter(newton_terms=its, line=its - 1, phi=1, mse_trace=1)

    def test_one_criterion_factorization_per_iteration(self, counted, monkeypatch):
        problem, _ = counted
        whats = Counter()

        def recording(a, what="matrix"):
            whats[what] += 1
            return spd_cholesky(a, what)

        monkeypatch.setattr(criteria, "spd_cholesky", recording)
        report = solve_approximate(problem, ConstraintSet(J=40, P=5))
        # the line search reuses the factor of the Newton evaluation at the
        # same point; the reported phi and MSE trace add one each
        assert whats == Counter({"criterion system": report.iterations + 2})

    def test_one_scoring_call_per_lockstep_sweep(self, counted, monkeypatch):
        problem, ev = counted
        seen = {}

        def descent(*args):
            before = Counter(ev.calls)
            seen["result"] = _transfer_descent(*args)
            seen["calls"] = ev.calls - before
            return seen["result"]

        monkeypatch.setattr(optimizer, "_transfer_descent", descent)
        cons = ConstraintSet(J=40, P=5)
        report = solve_exact(problem, cons, seed=0)
        phi, counts, moves = seen["result"]
        assert len(moves) == report.starts_descended > 1
        assert report.iterations == moves.sum() and moves.max() > 0
        assert all(cons.satisfies(c) for c in counts)
        # every start descends in the same sweeps: longest descent + 1 calls
        assert seen["calls"] == Counter(transfer_scores=moves.max() + 1)
        assert ev.calls["transfer_scores"] == moves.max() + 1
        assert report.phi == pytest.approx(phi.min(), rel=1e-12)

    def test_a_newton_step_that_does_not_lower_phi_stalls(self, monkeypatch):
        class Flat:
            """phi and gradient never change, so no step can make progress."""
            calls = 0

            def newton_terms(self, x):
                Flat.calls += 1
                return 1.0, np.array([0.0, -1.0]), np.eye(2), None

            def line(self, l_inv, d):
                return np.ones(1), np.zeros(1)

            def phi(self, w):
                return 1.0

            def mse_trace(self, w, target):
                return 1.0

        monkeypatch.setattr(DesignProblem, "evaluator", lambda self, J: Flat())
        report = solve_approximate(_symmetric_problem(), ConstraintSet(J=10, P=2))
        assert (report.status, report.iterations, Flat.calls) == ("stalled", 2, 2)
        np.testing.assert_array_equal(report.design.weights, [0.5, 0.5])
        assert report.optimality_gap == pytest.approx(0.4)

    def test_rounding_level_rise_is_kept_only_when_the_gap_halves(self):
        ulp = np.spacing(100.0)
        assert optimizer._step_kept(100.0 - ulp, 1e-6, 100.0, 1e-6)
        assert optimizer._step_kept(100.0 + 2 * ulp, 0.5e-6, 100.0, 1e-6)
        assert not optimizer._step_kept(100.0 + 2 * ulp, 0.6e-6, 100.0, 1e-6)
        assert not optimizer._step_kept(100.0, 0.6e-6, 100.0, 1e-6)
        assert not optimizer._step_kept(100.0 + 64 * ulp, 1e-9, 100.0, 1e-6)

    def test_a_move_that_does_not_lower_phi_is_undone(self):
        class Flat:
            """Claims every move gains, but phi never changes."""
            calls = 0

            def transfer_scores(self, weights, step):
                Flat.calls += 1
                return np.ones(len(weights)), -np.ones((len(weights), 3, 3))

        start = np.array([[3, 3, 3], [1, 1, 7]])
        phi, counts, moves = _transfer_descent(Flat(), start, ConstraintSet(J=9, P=3))
        np.testing.assert_array_equal(counts, start)
        np.testing.assert_array_equal(moves, [0, 0])
        np.testing.assert_array_equal(phi, [1.0, 1.0])
        assert Flat.calls == 2


def _random_feasible_reference(rng, constraints):
    """The plain form of the random start: recompute the open regions and
    draw one with ``rng.choice`` for every location."""
    lo, hi = constraints.min_per_region, constraints.max_per_region
    counts = np.array(lo)
    for _ in range(constraints.J - int(lo.sum())):
        counts[rng.choice(np.flatnonzero(counts < hi))] += 1
    if constraints.costs is not None:
        counts = round_to_exact(counts / constraints.J, constraints).counts
    return counts


class TestRandomStarts:
    @pytest.mark.parametrize("cons", [
        ConstraintSet(J=40, P=5),
        ConstraintSet(J=12, P=5, min_per_region=0, max_per_region=3),
        ConstraintSet(J=20, min_per_region=[0, 2, 1, 3, 0],
                      max_per_region=[10, 4, 40, 6, 2]),
    ], ids=["default", "tight-caps", "mixed"])
    def test_same_draws_as_the_plain_form(self, cons):
        for child in np.random.SeedSequence(2024).spawn(200):
            got = _random_feasible(np.random.default_rng(child), cons)
            want = _random_feasible_reference(np.random.default_rng(child), cons)
            np.testing.assert_array_equal(got, want)
            assert cons.satisfies(got)


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
        report = solve_exact(problem, cons, seed=seed % 1000, restarts=4)
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
        assert 0 <= report.best_start <= 4
        assert 1 <= report.starts_descended <= 5


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

    def test_iteration_cap_reported(self, vc5, profile5):
        problem = DesignProblem(vc5, profile5, Identity(K=31))
        report = solve_approximate(problem, ConstraintSet(J=40, P=5), max_iter=1)
        assert report.status == "max_iter"
        assert report.iterations == 1
        exact = solve_exact(problem, ConstraintSet(J=40, P=5), restarts=1)
        assert exact.status == solve_approximate(problem, ConstraintSet(J=40, P=5)).status
        capped = solve_exact(problem, ConstraintSet(J=40, P=5), restarts=1, max_iter=1)
        assert capped.status == "max_iter"
        assert solve_exact(problem, ConstraintSet(J=40, P=5), restarts=1,
                           tol=0.5).status == "converged"

    @pytest.mark.parametrize("kwargs, field", [
        ({"tol": float("nan")}, "tol"), ({"tol": -1.0}, "tol"), ({"tol": 0.0}, "tol"),
        ({"max_iter": 0}, "max_iter"), ({"max_iter": 2.5}, "max_iter"),
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

    def test_constrained_solution_not_better_than_free(self, vc5, profile5):
        problem = DesignProblem(vc5, profile5, Identity(K=31))
        free = solve_approximate(problem, ConstraintSet(J=40, P=5,
                                                        min_per_region=0))
        boxed = solve_approximate(problem, ConstraintSet(J=40, P=5,
                                                         min_per_region=4))
        assert boxed.phi >= free.phi - 1e-10 * abs(free.phi)


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
                      "restarts_used", "status", "seed", "best_start",
                      "starts_descended"):
            assert getattr(first, field) == getattr(again, field), field

    def test_best_start_names_the_winning_start(self, vc5, profile5):
        problem = DesignProblem(vc5, profile5, Identity(K=31))
        # a tight budget leaves the rounded optimum in a worse local optimum
        cons = ConstraintSet(J=20, P=5, min_per_region=0,
                             costs=[40.0, 44.0, 50.0, 65.0, 60.0], budget=43.0 * 20)
        only = solve_exact(problem, cons, seed=2, restarts=0)
        assert (only.best_start, only.starts_descended) == (0, 1)
        assert solve_approximate(problem, cons).best_start is None

        # seed 2 repeats some starts before the winning one, so its index
        # among the starts differs from its index among the distinct starts
        report = solve_exact(problem, cons, seed=2, restarts=12)
        assert report.phi < only.phi
        assert report.best_start > 0 and report.starts_descended < 13
        child = np.random.SeedSequence(2).spawn(12)[report.best_start - 1]
        start = _random_feasible(np.random.default_rng(child), cons)
        _, counts, _ = _transfer_descent(problem.evaluator(20), [start], cons)
        np.testing.assert_array_equal(counts[0], report.design.counts)

    @pytest.mark.parametrize("kwargs, field", [
        ({"restarts": 1.5}, "restarts"), ({"restarts": -1}, "restarts"),
        ({"seed": 3.9}, "seed"), ({"seed": -2}, "seed"),
    ])
    def test_bad_start_settings_rejected(self, kwargs, field):
        with pytest.raises(ValidationError, match=field):
            solve_exact(_symmetric_problem(), ConstraintSet(J=10, P=2), **kwargs)

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
