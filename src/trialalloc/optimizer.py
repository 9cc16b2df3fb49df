"""Optimal allocation search: approximate weights and exact integer designs.

The approximate solver is a projected Newton method over the constraint
polytope

    { w : min_i/J <= w_i <= max_i/J,  sum w = 1,  c'w <= budget/J }.

Each iteration takes the criterion with its gradient and Hessian
(``newton_terms`` in :mod:`trialalloc.criteria`), minimizes the quadratic
model over the polytope exactly by a primal active-set method, and steps
along that direction by an exact line search: along a segment the criterion
is a convex rational function of the step (``line``).  The polytope's best
vertex for the linearized criterion serves only as the optimality-gap
certificate.  A solve ends ``converged`` (gap below the tolerance),
``max_iter``, or ``stalled`` (a step that neither lowered the criterion nor,
at rounding level, halved the gap).  The exact solver rounds the
approximate optimum, adds seeded random feasible starts, and runs steepest
single-location transfers from all of them in lockstep: one sweep prices
every move of every still-active start in a single batched call, each move
by a rank-2 update of the current systems (see ``transfer_scores``).  The
merge over starts is deterministic.
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
    gap fell below the tolerance), ``max_iter``, or ``stalled`` (a Newton
    step neither lowered the criterion nor, at rounding level, halved the
    gap).  An exact solve carries the
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


def _rational_argmin(h, lam, t_max: float) -> float:
    """Minimizer over [0, t_max] of φ(t) = Σ h_i / (1 + t λ_i).

    Needs h >= 0 and 1 + t λ > 0 on [0, t_max], where φ is convex, so φ' is
    increasing: safeguarded Newton on φ' inside a sign bracket.
    """
    def slope(t):
        q = 1.0 / (1.0 + t * lam)
        hlq2 = h * lam * q * q
        return -hlq2.sum(), 2.0 * (hlq2 * lam * q).sum()

    if slope(0.0)[0] >= 0.0:
        return 0.0
    if slope(t_max)[0] <= 0.0:
        return t_max
    lo, hi, t = 0.0, t_max, 0.0
    for _ in range(100):
        d1, d2 = slope(t)
        if d1 == 0.0:
            return t
        if d1 < 0.0:
            lo = t
        else:
            hi = t
        step = t - d1 / d2 if d2 > 0.0 else t
        if not lo < step < hi:  # Newton left the bracket: bisect
            step = 0.5 * (lo + hi)
        if abs(step - t) <= 1e-15 * t_max:
            return step
        t = step
    return t


def _box_qp(g, q, lower, upper, costs=None, slack=None):
    """Minimizer of g·d + ½ dᵀq d over lower <= d <= upper, Σd = 0 and, with
    ``costs``, costs·d <= slack.

    ``q`` must be positive definite and d = 0 feasible.  A primal active-set
    method: from d = 0 it minimizes over the free coordinates with the fixed
    ones at their bounds (in the null space of the equality rows, so that a
    working set without freedom gives exactly no step), steps until a bound
    or the budget row blocks and adds it, and at each working-set minimum
    drops the constraint with the most negative multiplier until none is
    negative.  Every step lowers the quadratic, so if the iteration cap is
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
        free = np.flatnonzero(~(at_lo | at_hi))
        m = 1 + budget_on
        basis, tri = np.linalg.qr(rows[:m, free].T, mode="complete")
        null = basis[:, m:]
        step = np.zeros(p)
        if null.size:
            reduced = null.T @ q[np.ix_(free, free)] @ null
            step[free] = null @ np.linalg.solve(reduced, -(null.T @ (g + q @ d)[free]))
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

        # at the minimum of the working set: the multipliers of its bounds
        # and budget row follow from the gradient there
        r = g + q @ d
        nu = np.linalg.solve(tri[:m], -(basis[:, :m].T @ r[free]))
        base = r + rows[:m].T @ nu
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

    Projected Newton: each iteration evaluates the criterion, its gradient
    and Hessian at the current weights, solves the quadratic model over the
    polytope exactly (:func:`_box_qp`) and takes the exact line-search step
    along that direction.  Stops ``converged`` when the linearization gap
    g'(w - s) to the best vertex s drops below ``tol`` relative to the
    criterion value; the report carries the absolute gap, a valid bound on
    the distance to the true optimum.  A step that is not kept
    (:func:`_step_kept`) ends the solve ``stalled`` at the last kept point.
    Deterministic — no randomness is involved.
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
        phi_y, g, hess, l_inv_y = ev.newton_terms(y)
        gap_y = float(g @ (y - _linear_minimum(g, lo, hi, costs, budget_w)))
        if it > 1 and not _step_kept(phi_y, gap_y, phi_x, gap):
            status = "stalled"
            break
        x, phi_x, gap, l_inv = y, phi_y, gap_y, l_inv_y
        if gap <= tol * max(1.0, abs(phi_x)):
            status = "converged"
            break
        if it == max_iter:
            break
        slack = None if costs is None else budget_w - costs @ x
        d = _box_qp(g, hess, lo - x, hi - x, costs, slack)
        h, lam = ev.line(l_inv, d)
        t = _rational_argmin(h, lam, 1.0)
        if np.sum(h / (1.0 + lam)) < np.sum(h / (1.0 + t * lam)):
            t = 1.0
        y = x + t * d

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
    cheapest-direction transfers until the budget holds.  The result sums to
    J exactly and satisfies every constraint.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (constraints.P,):
        raise ValidationError(f"expected {constraints.P} weights, got shape {w.shape}")
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
    drawn uniformly among those below their cap."""
    lo, hi = constraints.min_per_region, constraints.max_per_region
    counts = lo.tolist()
    caps = hi.tolist()
    open_regions = [i for i in range(constraints.P) if counts[i] < caps[i]]
    for _ in range(constraints.J - int(lo.sum())):
        j = int(rng.integers(0, len(open_regions)))
        region = open_regions[j]
        counts[region] += 1
        if counts[region] == caps[region]:
            del open_regions[j]
    counts = np.array(counts)
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

    All starts descend in lockstep: each sweep scores the designs of the
    still-active starts and every move of one location from region i to
    region k in a single ``transfer_scores`` call.  A start takes its best
    feasible move (first strict minimum in (i, k) order, so ties go to the
    smallest pair) and stops when no move lowers phi.  A move whose design
    does not score a strictly lower phi at the next sweep is undone and the
    start stops, so each descent strictly decreases one deterministic
    function and cannot cycle.

    Returns the final phi, counts and number of moves of each start.
    """
    counts = np.array(starts, dtype=int)
    n, p = counts.shape
    phi = np.full(n, np.inf)
    moves = np.zeros(n, dtype=int)
    before = counts.copy()                 # each start's design before its last move
    active = np.arange(n)
    while len(active):
        value, delta = ev.transfer_scores(counts[active] / constraints.J,
                                          1.0 / constraints.J)
        undo = ~(value < phi[active]) & (moves[active] > 0)
        if undo.any():
            back = active[undo]
            counts[back] = before[back]
            moves[back] -= 1
            active, value, delta = active[~undo], value[~undo], delta[~undo]
        phi[active] = value
        scores = np.where(_feasible_moves(counts[active], constraints), delta, np.inf)
        scores = scores.reshape(len(active), p * p)
        best = np.argmin(scores, axis=1)
        keep = scores[np.arange(len(active)), best] < 0.0
        active, best = active[keep], best[keep]
        before[active] = counts[active]
        src, dst = np.divmod(best, p)
        counts[active, src] -= 1
        counts[active, dst] += 1
        moves[active] += 1
    return phi, counts, moves


def solve_exact(problem: DesignProblem, constraints: ConstraintSet,
                seed: int = 0, restarts: int = 20, tol: float = 1e-9,
                max_iter: int = 5000) -> OptimizerReport:
    """Optimal or highly efficient exact design under the constraints.

    Warm-starts from the rounded approximate optimum and from ``restarts``
    seeded random feasible allocations, improves each distinct one by
    steepest transfer descent, and keeps the best result (criterion value,
    then lexicographically smallest counts; ``best_start`` says which start
    reached it first).  ``tol`` and ``max_iter`` go to the approximate warm
    start.  The reported gap compares against
    the continuous relaxation bound, so 0 certifies global optimality of the
    relaxation value itself, not merely local optimality.
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
