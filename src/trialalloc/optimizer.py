"""Optimal allocation search: approximate weights and exact integer designs.

The approximate solver is a projected Newton method over the constraint
polytope

    { w : min_i/J <= w_i <= max_i/J,  sum w = 1,  c'w <= budget/J }.

Each iteration takes the criterion with its gradient and Hessian
(``newton_terms`` in :mod:`trialalloc.criteria`), minimizes the quadratic
model over the polytope exactly by a primal active-set method, and takes
the full step to that minimizer, halved for as long as the criterion rises
beyond rounding there.  The polytope's best vertex for the linearized
criterion serves only as the optimality-gap certificate.  A solve ends
``converged`` (gap below the tolerance), ``max_iter`` (the evaluation
budget spent), or ``stalled`` (a step that, at rounding level, neither
lowered the criterion nor halved the gap).  The exact solver rounds the
approximate optimum, adds seeded random feasible starts, and runs steepest
single-location transfers from all of them in lockstep: each sweep scores
the designs not yet scored in a single batched call, which prices every
move of each by a rank-2 update of its systems (see ``transfer_scores``).
The merge over starts is deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import count, finite, integers, number, positive
from .criteria import DesignProblem
from .errors import InfeasibleError, NumericalError, ValidationError
from .model import Design

__all__ = [
    "ConstraintSet",
    "OptimizerReport",
    "solve_approximate",
    "solve_exact",
    "round_to_exact",
    "efficiency",
]

_BUDGET_TOL = 1e-9
# relative size below which a QP multiplier or step component is rounding
_QP_TOL = 1e-12
# a Newton step whose phi rises by at most this many ulps is rounding
_PHI_ULPS = 4


def __getattr__(name):
    # minimize_scalar is unused here, but bench/tracing.py still patches it by
    # name; importing scipy.optimize only on that request keeps ~20 MB of
    # modules out of every other process
    if name == "minimize_scalar":
        from scipy.optimize import minimize_scalar
        return minimize_scalar
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Feasible integer allocations: bounds per sub-region and an optional budget.

    Feasibility is certified at construction time; an infeasible set raises
    :class:`InfeasibleError` carrying a certificate of the violated aggregate
    rather than failing later inside a solver.
    """

    J: int
    min_per_region: object = 1
    max_per_region: object = None
    costs: object = None
    budget: object = None
    P: object = None

    def __post_init__(self):
        j = int(integers(self.J, "J"))
        if j < 1:
            raise ValidationError(f"total number of locations must be >= 1, got {self.J}")
        object.__setattr__(self, "J", j)

        p = self.P
        for v in (self.min_per_region, self.max_per_region, self.costs):
            if np.ndim(v) == 1:
                p = len(v) if p is None else p
        if p is None:
            raise ValidationError(
                "number of sub-regions is ambiguous: pass P or a vector bound"
            )
        p = int(integers(p, "P"))
        object.__setattr__(self, "P", p)

        lo = integers(self.min_per_region, "min_per_region", p)
        if np.any(lo < 0):
            raise ValidationError("min_per_region entries must be >= 0")
        if self.max_per_region is None:
            hi = np.full(p, j, dtype=int)
        else:
            hi = integers(self.max_per_region, "max_per_region", p)
            if np.any(hi < lo):
                raise ValidationError("max_per_region must be >= min_per_region")
        # a floor above J is certified infeasible below, not a bound conflict
        hi = np.maximum(np.minimum(hi, j), lo)
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "min_per_region", lo)
        object.__setattr__(self, "max_per_region", hi)

        if (self.costs is None) != (self.budget is None):
            raise ValidationError("costs and budget must be given together")
        if self.costs is not None:
            costs = finite(self.costs, "costs")
            if costs.shape != (p,) or not np.all(costs > 0):
                raise ValidationError(f"costs must be {p} positive reals")
            costs.setflags(write=False)
            object.__setattr__(self, "costs", costs)
            budget = number(self.budget, "budget")
            if not budget > 0:
                raise ValidationError(f"budget must be a positive real, got {self.budget!r}")
            object.__setattr__(self, "budget", budget)

        if int(lo.sum()) > j:
            raise InfeasibleError(
                "minimum allocations alone exceed the total number of locations",
                certificate={"reason": "min-total-exceeds-J",
                             "min_total": int(lo.sum()), "J": j},
            )
        if int(hi.sum()) < j:
            raise InfeasibleError(
                "maximum allocations cannot absorb the total number of locations",
                certificate={"reason": "max-total-below-J",
                             "max_total": int(hi.sum()), "J": j},
            )
        if self.costs is not None:
            cheapest = _fill(lo, hi, j, self.costs)
            min_cost = float(self.costs @ cheapest)
            if min_cost > self.budget + _BUDGET_TOL:
                raise InfeasibleError(
                    "even the cheapest feasible allocation exceeds the budget",
                    certificate={"reason": "budget-too-small",
                                 "cheapest_cost": min_cost,
                                 "budget": self.budget,
                                 "cheapest_counts": cheapest.tolist()},
                )

    def weight_box(self):
        """Per-region weight bounds (lo, hi) of the continuous relaxation."""
        return self.min_per_region / self.J, self.max_per_region / self.J

    def cost(self, counts) -> float:
        return float(self.costs @ counts) if self.costs is not None else 0.0

    def satisfies(self, counts) -> bool:
        counts = np.asarray(counts)
        if counts.sum() != self.J:
            return False
        if np.any(counts < self.min_per_region) or np.any(counts > self.max_per_region):
            return False
        if self.costs is not None and self.cost(counts) > self.budget + _BUDGET_TOL:
            return False
        return True


@dataclass(frozen=True)
class OptimizerReport:
    """Result of a solve.

    ``status`` says why the approximate solver stopped: ``converged`` (the
    gap fell below the tolerance), ``max_iter`` (``iterations`` counts its
    criterion evaluations, one per Newton step or step halving), or
    ``stalled`` (a Newton step that, at rounding level, neither lowered the
    criterion nor halved the gap).  An exact solve carries the
    status of its approximate warm start, the number of distinct starts it
    descended from (``starts_descended``) and which start won
    (``best_start``: 0 is the rounded approximate optimum, 1 to
    ``restarts`` the seeded random starts); both are None for approximate
    solves.
    """

    design: Design
    phi: float
    mse_trace: float
    optimality_gap: float
    iterations: int
    restarts_used: int
    status: str
    seed: object = None
    best_start: int | None = None
    starts_descended: int | None = None


def _fill(lo, hi, total, key):
    """The box lo <= x <= hi filled up to Σx = ``total`` in increasing order
    of ``key``: integer counts or float weights, as ``lo`` is."""
    x = np.array(lo)
    slack = total - x.sum()
    for i in np.argsort(key, kind="stable"):
        take = min(hi[i] - x[i], slack)
        x[i] += take
        slack -= take
        if slack <= 0:
            break
    return x


def _linear_minimum(g, lo, hi, costs, budget_w):
    """Vertex of the weight polytope minimizing the linear form g.

    Without a budget it is the fill of the box in order of g.  With one, the
    fill in order of g + μ·costs solves the problem for the budget row's
    multiplier μ >= 0.  That order changes only where two regions swap
    places, so the answer is the first of these fills that meets the budget,
    or the point of the budget row between it and the fill just before: an
    exact certificate, free of an LP solver's tolerances.  A fill meets the
    budget within ``_BUDGET_TOL``, so that a cheapest fill whose spend rounds
    a few ulps over a tight budget still closes the bracket.
    """
    if costs is None:
        return _fill(lo, hi, 1.0, g)
    with np.errstate(divide="ignore", invalid="ignore"):
        swaps = (g[None, :] - g[:, None]) / (costs[:, None] - costs[None, :])
    swaps = np.unique(swaps[np.isfinite(swaps) & (swaps > 0)])
    edges = np.concatenate([[0.0], swaps, [2.0 * swaps[-1] + 1.0 if swaps.size else 1.0]])
    probes = 0.5 * (edges[:-1] + edges[1:])     # one μ inside each interval
    fills = {}

    def at(k):
        if k not in fills:
            fills[k] = _fill(lo, hi, 1.0, g + probes[k] * costs)
        return fills[k]

    # spend falls as μ grows: bisect for the first fill within the budget
    over, under = -1, len(probes) - 1
    while under - over > 1:
        mid = (over + under) // 2
        if costs @ at(mid) <= budget_w + _BUDGET_TOL:
            under = mid
        else:
            over = mid
    if over < 0:
        return at(0)
    spend_over, spend_under = costs @ at(over), costs @ at(under)
    theta = min((spend_over - budget_w) / (spend_over - spend_under), 1.0)
    return at(over) + theta * (at(under) - at(over))


def _box_qp(g, q, lower, upper, costs=None, slack=None):
    """Minimizer of g·d + ½ dᵀq d over lower <= d <= upper, Σd = 0 and, with
    ``costs``, costs·d <= slack.

    ``q`` must be positive definite and d = 0 feasible.  A primal active-set
    method: from d = 0 it minimizes over the free coordinates, the fixed ones
    at their bounds and the active rows held, by one bordered KKT system that
    gives the step and the rows' multipliers at its end; it steps until a
    bound or the budget row blocks and adds it, and at each working-set
    minimum drops the constraint with the most negative multiplier until none
    is negative.  Every step lowers the quadratic, so if the iteration cap is
    ever reached the returned d is still a feasible descent step.
    """
    p = g.size
    d = np.zeros(p)
    at_lo, at_hi = np.zeros(p, dtype=bool), np.zeros(p, dtype=bool)
    budget_on = False
    # Σd = 0 and the budget row, scaled alike so their multipliers compare
    rows = np.ones((1, p)) if costs is None else np.stack([np.ones(p), costs / costs.max()])
    tol = _QP_TOL * float(np.abs(g).max())
    width = float((upper - lower).max())
    if not width > 0.0:
        return d                            # the box is the single point 0
    for _ in range(10 * (p + 2)):
        free = ~(at_lo | at_hi)
        m = 1 + budget_on
        # q over the free coordinates, pinned to identity at the bounds and
        # bordered by the active rows
        kkt = np.zeros((p + m, p + m))
        kkt[:p, :p] = np.where(np.outer(free, free), q, np.eye(p))
        kkt[p:, :p] = rows[:m] * free
        kkt[:p, p:] = kkt[p:, :p].T
        sol = np.linalg.solve(kkt, np.concatenate([-(g + q @ d) * free, np.zeros(m)]))
        step, nu = sol[:p], sol[p:]
        # components at rounding level would add a constraint that the
        # working set already implies, so they are dropped
        step[np.abs(step) <= _QP_TOL * max(width, float(np.abs(step).max()))] = 0.0

        # longest step in [0, 1] before a constraint outside the working set blocks
        alpha, block = 1.0, None
        for mask, room in ((step < 0.0, lower - d), (step > 0.0, upper - d)):
            if mask.any():
                ratio = room[mask] / step[mask]
                k = int(np.argmin(ratio))
                if ratio[k] < alpha:
                    alpha, block = max(float(ratio[k]), 0.0), int(np.flatnonzero(mask)[k])
        if costs is not None and not budget_on:
            rate = float(costs @ step)
            if rate > _QP_TOL * float(costs @ np.abs(step)):
                ratio = (slack - float(costs @ d)) / rate
                if ratio < alpha:
                    alpha, block = max(ratio, 0.0), "budget"
        d += alpha * step
        if block == "budget":
            budget_on = True
        elif block is not None:
            upper_hit = step[block] > 0
            (at_hi if upper_hit else at_lo)[block] = True
            d[block] = upper[block] if upper_hit else lower[block]
        if block is not None:
            continue

        # at the minimum of the working set, where the rows' multipliers are
        # nu: its bounds' multipliers follow from the gradient there
        base = g + q @ d + rows[:m].T @ nu
        mult = np.where(at_lo, base, np.where(at_hi, -base, np.inf))
        k = int(np.argmin(mult))
        if budget_on and nu[1] < min(mult[k], -tol):
            budget_on = False
        elif mult[k] < -tol:
            at_lo[k] = at_hi[k] = False
        else:
            break
    return d


def _centre(lo, hi, costs, budget_w):
    """Feasible start: the box point lo + (1 - Σlo)(hi - lo)/Σ(hi - lo),
    moved towards the cheapest vertex until the budget row holds."""
    room = hi - lo
    x = lo + (1.0 - lo.sum()) * (room / room.sum() if room.any() else room)
    if costs is not None and costs @ x > budget_w:
        cheapest = _linear_minimum(costs, lo, hi, costs, budget_w)
        x += min((costs @ x - budget_w) / (costs @ (x - cheapest)), 1.0) * (cheapest - x)
    return x


def _step_kept(phi_new, gap_new, phi, gap) -> bool:
    """Whether a Newton step from (phi, gap) to (phi_new, gap_new) is kept.

    Near the optimum phi changes by less than its rounding error while the
    gap is still above the tolerance, so a step that raises phi by a few
    ulps counts as progress when it at least halves the gap.
    """
    return phi_new < phi or (phi_new <= phi + _PHI_ULPS * np.spacing(abs(phi))
                             and gap_new <= 0.5 * gap)


def solve_approximate(problem: DesignProblem, constraints: ConstraintSet,
                      tol: float = 1e-9, max_iter: int = 5000) -> OptimizerReport:
    """Optimal approximate design over the constraint polytope.

    Projected Newton: the quadratic model at the current weights is
    minimized over the polytope exactly (:func:`_box_qp`) and the full step
    to its minimizer taken.  Each iteration is one evaluation of the
    criterion, its gradient and Hessian at the new point, which the next
    step reuses.  Stops ``converged`` at the first point whose
    linearization gap g'(w - s) to the best vertex s is below ``tol``
    relative to the criterion value; the report carries the absolute gap, a
    valid bound on the distance to the true optimum.  Any other step that is
    not kept (:func:`_step_kept`) is halved when the criterion rose beyond
    rounding, and otherwise ends the solve ``stalled`` at the last kept
    point.  Deterministic — no randomness is involved.
    """
    tol = positive(tol, "tol")
    max_iter = count(max_iter, "max_iter", 1)
    if constraints.P != problem.P:
        raise ValidationError(
            f"constraints describe {constraints.P} sub-regions, problem has {problem.P}"
        )
    ev = problem.evaluator(constraints.J)
    lo, hi = constraints.weight_box()
    costs = constraints.costs
    budget_w = constraints.budget / constraints.J if costs is not None else None

    y = _centre(lo, hi, costs, budget_w)
    status = "max_iter"
    for it in range(1, max_iter + 1):
        phi_y, g_y, hess_y = ev.newton_terms(y)
        gap_y = float(g_y @ (y - _linear_minimum(g_y, lo, hi, costs, budget_w)))
        done = gap_y <= tol * max(1.0, abs(phi_y))
        if it > 1 and not (done or _step_kept(phi_y, gap_y, phi_x, gap)):
            if phi_y <= phi_x + _PHI_ULPS * np.spacing(abs(phi_x)):
                status = "stalled"
                break
            t *= 0.5                        # the step overshot: halve it
            y = x + t * d
            continue
        x, phi_x, g, hess, gap = y, phi_y, g_y, hess_y, gap_y
        if done:
            status = "converged"
            break
        if it == max_iter:
            break
        slack = None if costs is None else budget_w - costs @ x
        d = _box_qp(g, hess, lo - x, hi - x, costs, slack)
        t = 1.0
        y = x + d

    design = Design.approximate(x, constraints.J)
    value = problem.value(design)
    return OptimizerReport(
        design=design,
        phi=value.phi,
        mse_trace=value.mse_trace,
        optimality_gap=max(gap, 0.0),
        iterations=it,
        restarts_used=0,
        status=status,
        seed=None,
    )


def round_to_exact(weights, constraints: ConstraintSet) -> Design:
    """Apportion approximate weights to a feasible integer design.

    Largest-deficit apportionment within the bounds, followed by
    cheapest-direction transfers until the budget holds.  The weights must
    pass :class:`Design`'s checks (finite, non-negative, summing to 1).  The
    result sums to J exactly and satisfies every constraint.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (constraints.P,):
        raise ValidationError(f"expected {constraints.P} weights, got shape {w.shape}")
    w = Design.approximate(w, constraints.J).weights
    j = constraints.J
    lo, hi = constraints.min_per_region, constraints.max_per_region
    target = w * j
    counts = np.clip(np.floor(target + 1e-9).astype(int), lo, hi)
    while counts.sum() < j:
        deficit = np.where(counts < hi, target - counts, -np.inf)
        counts[int(np.argmax(deficit))] += 1
    while counts.sum() > j:
        surplus = np.where(counts > lo, counts - target, -np.inf)
        counts[int(np.argmax(surplus))] -= 1

    if constraints.costs is not None:
        costs = constraints.costs
        for _ in range(j * constraints.P + 1):
            if constraints.cost(counts) <= constraints.budget + _BUDGET_TOL:
                break
            movable = np.where(counts > lo, costs, -np.inf)
            receiving = np.where(counts < hi, costs, np.inf)
            i, k = int(np.argmax(movable)), int(np.argmin(receiving))
            if not np.isfinite(movable[i]) or not np.isfinite(receiving[k]) \
                    or costs[k] >= costs[i]:
                raise InfeasibleError(
                    "rounding cannot reach the budget",
                    certificate={"reason": "rounding-budget",
                                 "counts": counts.tolist(),
                                 "cost": constraints.cost(counts),
                                 "budget": constraints.budget},
                )
            counts[i] -= 1
            counts[k] += 1
        else:
            raise NumericalError("budget repair failed to terminate")
    return Design.exact(counts)


def _random_feasible(rng, constraints: ConstraintSet) -> np.ndarray:
    """A random feasible allocation: each location in turn goes to a region
    drawn uniformly among those below their cap.

    The draws come in chunks no longer than the least room of any open
    region, so no region fills inside a chunk and one ``rng.integers`` call
    serves a whole chunk; a batched draw yields the same stream as as many
    scalar draws.
    """
    counts = np.array(constraints.min_per_region)
    caps = constraints.max_per_region
    left = constraints.J - int(counts.sum())
    open_regions = np.flatnonzero(counts < caps)
    while left:
        chunk = min(left, int((caps - counts)[open_regions].min()))
        draws = rng.integers(0, len(open_regions), size=chunk)
        counts[open_regions] += np.bincount(draws, minlength=len(open_regions))
        left -= chunk
        open_regions = open_regions[counts[open_regions] < caps[open_regions]]
    if constraints.costs is not None:
        counts = round_to_exact(counts / constraints.J, constraints).counts
    return counts


def _feasible_moves(counts, constraints: ConstraintSet) -> np.ndarray:
    """(n, P, P) mask of the feasible single-location moves i -> k of each
    row of an (n, P) stack of counts."""
    lo, hi = constraints.min_per_region, constraints.max_per_region
    ok = (counts > lo)[:, :, None] & (counts < hi)[:, None, :]
    ok[:, np.arange(constraints.P), np.arange(constraints.P)] = False
    if constraints.costs is not None:
        costs = constraints.costs
        new_cost = (counts @ costs)[:, None, None] - costs[:, None] + costs[None, :]
        ok &= new_cost <= constraints.budget + _BUDGET_TOL
    return ok


def _transfer_descent(ev, starts, constraints: ConstraintSet):
    """Steepest single-location transfers from every start to a local optimum.

    A start takes its best feasible move (first strict minimum in (i, k)
    order, so ties go to the smallest pair) and stops when no move lowers
    phi.  A move whose design does not score a strictly lower phi than the
    design before it is undone and the start stops, so each descent strictly
    decreases one deterministic function and cannot cycle.

    A design's phi and best move depend on its counts alone, so each design
    is scored once, whichever start reaches it.  All starts descend in
    lockstep sweeps: a sweep scores the designs that the starts wait on in
    one ``transfer_scores`` call, and then each start steps by lookup until
    it stops or reaches a design that no start has reached before.  Starts
    that run into each other's paths then cost nothing more.

    Returns the final phi, counts and number of moves of each start.
    """
    p = constraints.P
    designs = [tuple(row) for row in np.asarray(starts, dtype=int).tolist()]
    phi, moves, before = [np.inf] * len(designs), [0] * len(designs), list(designs)
    scored = {}                            # counts -> (phi, best move i*P + k or -1)
    waiting = range(len(designs))
    while waiting:
        new = list(dict.fromkeys(designs[s] for s in waiting))
        counts = np.array(new)
        value, delta = ev.transfer_scores(counts / constraints.J, 1.0 / constraints.J)
        scores = np.where(_feasible_moves(counts, constraints), delta, np.inf)
        scores = scores.reshape(len(new), p * p)
        best = np.argmin(scores, axis=1)
        best[~(scores[np.arange(len(new)), best] < 0.0)] = -1
        scored.update(zip(new, zip(value.tolist(), best.tolist())))
        still = []
        for s in waiting:
            while designs[s] in scored:
                value, move = scored[designs[s]]
                if moves[s] and not value < phi[s]:
                    designs[s] = before[s]
                    moves[s] -= 1
                    break
                phi[s] = value
                if move < 0:
                    break
                src, dst = divmod(move, p)
                moved = list(designs[s])
                moved[src] -= 1
                moved[dst] += 1
                before[s], designs[s] = designs[s], tuple(moved)
                moves[s] += 1
            else:
                still.append(s)
        waiting = still
    return np.array(phi), np.array(designs), np.array(moves)


def solve_exact(problem: DesignProblem, constraints: ConstraintSet,
                seed: int = 0, restarts: int = 20, tol: float = 1e-9,
                max_iter: int = 5000) -> OptimizerReport:
    """The best local optimum of multi-start transfer descent under the
    constraints.

    Warm-starts from the rounded approximate optimum and from ``restarts``
    seeded random feasible allocations, improves each distinct one by
    steepest transfer descent, and keeps the best result (criterion value,
    then lexicographically smallest counts; ``best_start`` says which start
    reached it first).  ``tol`` and ``max_iter`` go to the approximate warm
    start.  The reported gap is measured against the continuous relaxation
    bound, so it certifies nothing about the integer optimum, and more
    restarts do not guarantee reaching it.
    """
    restarts = count(restarts, "restarts")
    seed = 0 if seed is None else count(seed, "seed")
    approx = solve_approximate(problem, constraints, tol=tol, max_iter=max_iter)
    ev = problem.evaluator(constraints.J)

    starts = [round_to_exact(approx.design.weights, constraints).counts]
    for child in np.random.SeedSequence(seed).spawn(restarts):
        starts.append(_random_feasible(np.random.default_rng(child), constraints))
    first = {}                              # distinct starts, by first index
    for index, counts in enumerate(starts):
        first.setdefault(tuple(int(v) for v in counts), index)
    distinct = list(first.values())
    phi, counts, moves = _transfer_descent(ev, [starts[i] for i in distinct],
                                           constraints)

    win = min(range(len(distinct)),
              key=lambda s: (phi[s], tuple(int(v) for v in counts[s])))
    design = Design.exact(counts[win])
    value = problem.value(design)
    relaxation_bound = approx.phi - approx.optimality_gap
    return OptimizerReport(
        design=design,
        phi=value.phi,
        mse_trace=value.mse_trace,
        optimality_gap=max(value.phi - relaxation_bound, 0.0),
        iterations=int(moves.sum()),
        restarts_used=restarts,
        status=approx.status,
        seed=seed,
        best_start=distinct[win],
        starts_descended=len(distinct),
    )


def efficiency(xi_unconstrained: Design, xi_constrained: Design,
               problem: DesignProblem) -> float:
    """Criterion-value ratio phi(first design) / phi(second design).

    With the first argument optimal for a less constrained problem the value
    lies in (0, 1]; swapping the arguments gives the reciprocal.
    """
    return problem.phi(xi_unconstrained) / problem.phi(xi_constrained)
