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
``converged`` (gap below the tolerance), ``max_iter`` (``_EVALUATION_LIMIT``
criterion evaluations spent), or ``stalled`` (a step that, at rounding
level, neither lowered the criterion nor halved the gap).  The exact solver
is a best-first branch-and-bound over integer count boxes on the same
relaxation, the root box being the approximate problem itself and the first
incumbent its optimum's rounding.  It splits a box on the fractional count
whose moves to the two nearest integers raise the quadratic model most,
gives each child the first-order bound of the parent's gradient over the
child (no evaluation), and prunes every box whose bound comes within ``tol``
of the incumbent.  A box other than the root whose iterate's criterion
already lies below the cutoff can never be pruned, so its relaxation stops
early, at a gap of ``_BRANCH_GAP`` relative to the criterion, and it splits
there when a count is fractional.  Nothing is random.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from ._checks import finite, integers, number, positive
from .criteria import DesignProblem
from .errors import InfeasibleError, ValidationError
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
# a relaxed optimum whose counts J·w lie this close to integers is integral
_INTEGRAL_TOL = 1e-7
# relaxations an exact solve may take before it stops uncertified
_NODE_LIMIT = 10_000
# criterion evaluations a relaxation may take before it stops ``max_iter``
_EVALUATION_LIMIT = 5000
# relative gap at which a box that can no longer be pruned is split
_BRANCH_GAP = 1e-3


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
    rather than failing later inside a solver; :meth:`within_budget` is its
    one budget test of integer counts.
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
        if p < 1:
            raise ValidationError(f"number of sub-regions P must be >= 1, got {p}")
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
            levels, level_of = np.unique(costs, return_inverse=True)
            object.__setattr__(self, "_levels", levels)
            object.__setattr__(self, "_level_of", level_of)

        error = self._infeasibility(lo, hi)
        if error is not None:
            raise error

    def weight_box(self):
        """Per-region weight bounds (lo, hi) of the continuous relaxation."""
        return self.min_per_region / self.J, self.max_per_region / self.J

    def weight_budget(self):
        """The relaxation's budget row costs·w <= b, or None: b is (budget +
        ``_BUDGET_TOL``)/J, so the row holds every design :meth:`within_budget`
        accepts, up to the rounding of costs·w."""
        return None if self.costs is None else (self.budget + _BUDGET_TOL) / self.J

    def cost(self, counts) -> float:
        """Spend of integer ``counts``, 0.0 without costs: the count totals per
        distinct cost, dotted with those costs, so that designs differing only
        between regions of equal cost spend the same float."""
        if self.costs is None:
            return 0.0
        totals = np.bincount(self._level_of, weights=counts, minlength=self._levels.size)
        return float(self._levels @ totals)

    def within_budget(self, counts) -> bool:
        """Whether integer ``counts`` spend at most the budget, within
        ``_BUDGET_TOL``: the one budget test of integer designs."""
        return self.costs is None or self.cost(counts) <= self.budget + _BUDGET_TOL

    def satisfies(self, counts) -> bool:
        counts = np.asarray(counts)
        if counts.sum() != self.J:
            return False
        if np.any(counts < self.min_per_region) or np.any(counts > self.max_per_region):
            return False
        return self.within_budget(counts)

    def _infeasibility(self, lo, hi):
        """The :class:`InfeasibleError` of the integer box lo <= x <= hi under
        Σx = J and the budget, or None when the box holds a feasible x: its
        cheapest fill, when within the budget."""
        j = self.J
        if int(lo.sum()) > j:
            return InfeasibleError(
                "minimum allocations alone exceed the total number of locations",
                certificate={"reason": "min-total-exceeds-J",
                             "min_total": int(lo.sum()), "J": j},
            )
        if int(hi.sum()) < j:
            return InfeasibleError(
                "maximum allocations cannot absorb the total number of locations",
                certificate={"reason": "max-total-below-J",
                             "max_total": int(hi.sum()), "J": j},
            )
        if self.costs is not None:
            cheapest = _fill(lo, hi, j, self.costs)
            if not self.within_budget(cheapest):
                return InfeasibleError(
                    "even the cheapest feasible allocation exceeds the budget",
                    certificate={"reason": "budget-too-small",
                                 "cheapest_cost": self.cost(cheapest),
                                 "budget": self.budget,
                                 "cheapest_counts": cheapest.tolist()},
                )
        return None


@dataclass(frozen=True)
class OptimizerReport:
    """Result of a solve.

    ``status`` says why the approximate solver stopped: ``converged`` (the
    gap fell below the tolerance), ``max_iter`` (``iterations``, which counts
    criterion evaluations, one per Newton step or step halving, reached
    ``_EVALUATION_LIMIT``), or ``stalled`` (a Newton step that, at rounding
    level, neither lowered the criterion nor halved the gap).  An exact solve
    carries its root's status and adds ``lower_bound``, ``certified`` and
    ``nodes`` (see :func:`solve_exact`), which are None for approximate
    solves.
    """

    design: Design
    phi: float
    mse_trace: float
    optimality_gap: float
    iterations: int
    status: str
    lower_bound: float | None = None
    certified: bool | None = None
    nodes: int | None = None


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
    a few ulps over a tight budget still closes the bracket; one over by
    more, at spends whose ulp exceeds that, is itself the answer.
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
    if spend_under >= budget_w:
        return at(under)
    theta = (spend_over - budget_w) / (spend_over - spend_under)
    return at(over) + theta * (at(under) - at(over))


def _box_qp(g, q, lower, upper, costs=None, slack=None):
    """Minimizer of g·d + ½ dᵀq d over lower <= d <= upper, Σd = 0 and, with
    ``costs``, costs·d <= slack.

    ``q`` must be positive definite and d = 0 feasible.  A primal active-set
    method: from d = 0, with the bounds it sits on fixed (unless that fixes
    every coordinate), it minimizes over the free coordinates, the active
    rows held, by one KKT system: the free block of q bordered by the rows.
    It gives the step and the rows' multipliers at its end; where the rows
    fix the free coordinates (as many of them as rows) the step is 0.  With
    fewer free coordinates than rows the system is singular and is not
    solved: the step is 0 and the multipliers come by least squares.  From
    d = 0 that state is not reached, since a bound joins the working set
    only after a step, which needs more free coordinates than rows, and the
    budget row only with two free ones of different cost.  It steps until a
    bound or the budget row blocks and adds it, and at each working-set
    minimum drops the constraint with the most negative multiplier until none
    is negative.  Every step lowers the quadratic, so if the iteration cap is
    ever reached the returned d is still a feasible descent step.
    """
    p = g.size
    d = np.zeros(p)
    # the bounds that d = 0 already sits on start in the working set, unless
    # they would leave no coordinate free
    at_lo = lower == 0.0
    at_hi = (upper == 0.0) & ~at_lo
    if (at_lo | at_hi).all():
        at_lo[:] = at_hi[:] = False
    width = (upper - lower).max()
    if not width > 0.0:
        return d                            # the box is the single point 0
    budget_on = False
    # q bordered by Σd = 0 and the budget row, the rows scaled alike so that
    # their multipliers compare; each working set's KKT system is a principal
    # block of it
    m_all = 1 if costs is None else 2
    bordered = np.zeros((p + m_all, p + m_all))
    bordered[:p, :p] = q
    bordered[p, :p] = bordered[:p, p] = 1.0
    if costs is not None:
        bordered[p + 1, :p] = bordered[:p, p + 1] = costs / costs.max()
    tol = _QP_TOL * abs(g).max()
    index = np.arange(p + m_all)
    r = g                                   # the model's gradient g + q·d
    for _ in range(10 * (p + 2)):
        free = index[:p][~(at_lo | at_hi)]
        n, m = free.size, 1 + budget_on
        if n < m:
            # a singular system: the step is 0 and the rows' multipliers
            # solve the free coordinates' equations by least squares
            step = np.zeros(n)
            nu = np.linalg.lstsq(bordered[p:p + m, free].T, -r[free], rcond=None)[0]
        else:
            kept = np.concatenate([free, index[p:p + m]])
            sol = np.linalg.solve(bordered[kept[:, None], kept],
                                  np.concatenate([-r[free], np.zeros(m)]))
            step, nu = sol[:n], sol[n:]
            # components at rounding level would add a constraint that the
            # working set already implies, so they are dropped
            size = abs(step)
            step[size <= _QP_TOL * max(width, size.max())] = 0.0
            if n == m:                      # the rows fix the free coordinates
                step[:] = 0.0

        moving = step != 0.0
        if moving.any():
            # longest step in [0, 1] before a constraint outside the working set blocks
            alpha, block = 1.0, None
            rate, coord = step[moving], free[moving]
            ratio = (np.where(rate > 0.0, upper[coord], lower[coord]) - d[coord]) / rate
            k = ratio.argmin()
            if ratio[k] < 1.0:
                alpha, block = max(ratio[k], 0.0), coord[k]
            # on free coordinates of one cost the budget row is the sum row: it cannot block
            if costs is not None and not budget_on:
                spend = costs[coord]
                if spend.max() > spend.min():
                    rise = spend @ rate
                    if rise > _QP_TOL * (spend @ abs(rate)):
                        ratio = (slack - costs @ d) / rise
                        if ratio < alpha:
                            alpha, block = max(ratio, 0.0), "budget"
            d[coord] += alpha * rate
            if block == "budget":
                budget_on = True
            elif block is not None:
                if rate[k] > 0.0:
                    at_hi[block], d[block] = True, upper[block]
                else:
                    at_lo[block], d[block] = True, lower[block]
            r = g + q @ d
            if block is not None:
                continue

        # at the minimum of the working set, where the rows' multipliers are
        # nu: its bounds' multipliers follow from the gradient there
        base = r + nu @ bordered[p:p + m, :p]
        mult = np.where(at_hi, -base, base)
        mult[free] = np.inf
        k = mult.argmin()
        if budget_on and nu[1] < min(mult[k], -tol):
            budget_on = False
        elif mult[k] < -tol:
            at_lo[k] = at_hi[k] = False
        else:
            break
    return d


def _start(x, lo, hi, costs, budget_w):
    """Feasible start near ``x``: x clipped into the box, the mass lost or
    gained spread over the coordinates in proportion to their room, then
    moved towards the cheapest vertex until the budget row holds."""
    x = np.clip(x, lo, hi)
    excess = 1.0 - x.sum()
    room = hi - x if excess >= 0.0 else x - lo
    x = x + excess * (room / room.sum() if room.any() else room)
    if costs is not None and costs @ x > budget_w:
        cheapest = _fill(lo, hi, 1.0, costs)
        over, drop = costs @ x - budget_w, costs @ (x - cheapest)
        x += (over / drop if drop > over else 1.0) * (cheapest - x)
    return x


def _step_kept(phi_new, gap_new, phi, gap) -> bool:
    """Whether a Newton step from (phi, gap) to (phi_new, gap_new) is kept.

    Near the optimum phi changes by less than its rounding error while the
    gap is still above the tolerance, so a step that raises phi by a few
    ulps counts as progress when it at least halves the gap.
    """
    return phi_new < phi or (phi_new <= phi + _PHI_ULPS * np.spacing(abs(phi))
                             and gap_new <= 0.5 * gap)


def _newton(ev, y, lo, hi, costs, budget_w, tol, cutoff=np.inf, j=None):
    """Projected Newton from the feasible point y (see :func:`solve_approximate`),
    also ``converged`` once the lower bound phi - gap reaches ``cutoff``, and
    ``max_iter`` after ``_EVALUATION_LIMIT`` evaluations.  With ``j`` it
    ends ``branched`` at the first kept point x whose phi is below the
    cutoff, whose gap is within ``_BRANCH_GAP`` relative to phi, and with a
    fractional count J·x_i (:func:`_branch`).  Returns the last kept point,
    its phi, gap, gradient and Hessian, the evaluations and status."""
    status = "max_iter"
    for it in range(1, _EVALUATION_LIMIT + 1):
        phi_y, g_y, hess_y = ev.newton_terms(y)
        gap_y = float(g_y @ (y - _linear_minimum(g_y, lo, hi, costs, budget_w)))
        done = gap_y <= tol * max(1.0, abs(phi_y)) or phi_y - gap_y >= cutoff
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
        if (j is not None and phi_x < cutoff and gap <= _BRANCH_GAP * max(1.0, abs(phi_x))
                and _branch(x, j, hess) is not None):
            status = "branched"
            break
        if it == _EVALUATION_LIMIT:
            break
        slack = None if costs is None else budget_w - costs @ x
        d = _box_qp(g, hess, lo - x, hi - x, costs, slack)
        t = 1.0
        y = x + d
    return x, phi_x, max(gap, 0.0), g, hess, it, status


def _checked(problem, constraints, tol):
    """The solver setting ``tol``, checked, once the constraints are known to
    describe the problem's sub-regions."""
    tol = positive(tol, "tol")
    if constraints.P != problem.P:
        raise ValidationError(
            f"constraints describe {constraints.P} sub-regions, problem has {problem.P}"
        )
    return tol


def solve_approximate(problem: DesignProblem, constraints: ConstraintSet,
                      tol: float = 1e-9) -> OptimizerReport:
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
    point.  A solve that spends ``_EVALUATION_LIMIT`` evaluations ends
    ``max_iter``.  Deterministic — no randomness is involved.
    """
    tol = _checked(problem, constraints, tol)
    lo, hi = constraints.weight_box()
    costs, budget_w = constraints.costs, constraints.weight_budget()
    x, _, gap, _, _, iterations, status = _newton(
        problem.evaluator(constraints.J), _start(lo, lo, hi, costs, budget_w),
        lo, hi, costs, budget_w, tol)
    design = Design.approximate(x, constraints.J)
    value = problem.value(design)
    return OptimizerReport(design=design, phi=value.phi, mse_trace=value.mse_trace,
                           optimality_gap=gap, iterations=iterations, status=status)


def round_to_exact(weights, constraints: ConstraintSet) -> Design:
    """Apportion approximate weights to a feasible integer design.

    Largest-deficit apportionment within the bounds, then a budget repair:
    while over the budget, the dearest region that can give a location gives
    one to the cheapest that can take one.  Each move lowers costs·counts, so
    the repair ends, and it ends within the budget: where no giver is dearer
    than a taker the counts are a least-cost point of the box, whose totals
    per cost level, and so (:meth:`ConstraintSet.cost`) whose spend, are
    those of the cheapest fill the constraint set certified.  The weights
    must pass :class:`Design`'s checks (finite, non-negative, summing to 1).
    The result sums to J exactly and satisfies every constraint.
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

    costs = constraints.costs
    while not constraints.within_budget(counts):
        i = int(np.argmax(np.where(counts > lo, costs, -np.inf)))
        k = int(np.argmin(np.where(counts < hi, costs, np.inf)))
        counts[i] -= 1
        counts[k] += 1
    return Design.exact(counts)


def _branch(x, j, hess):
    """The count to split J·x on, or None when every count is within
    ``_INTEGRAL_TOL`` of an integer.

    For a count J·x_i = n + f the quadratic model at x rises by about
    ½h_ii f² when x_i moves down to n and ½h_ii (1 - f)² when it moves up to
    n + 1 (in units of 1/J², h the Hessian).  The split goes to the
    fractional count whose two rises have the largest product, ranked as its
    square root h_ii·f(1 - f).
    """
    scaled = x * j
    frac = scaled - np.floor(scaled)
    fractional = np.minimum(frac, 1.0 - frac) > _INTEGRAL_TOL
    if not fractional.any():
        return None
    score = np.diagonal(hess) * frac * (1.0 - frac)
    return int(np.argmax(np.where(fractional, score, -np.inf)))


def _child_bound(phi, x, g, lo, hi, costs, budget_w) -> float:
    """phi(x) + g·(s - x), with s the best vertex for g of the child polytope
    lo <= w <= hi under the rows: phi is convex with gradient g at x, so no
    point of the child lies below it."""
    return phi + float(g @ (_linear_minimum(g, lo, hi, costs, budget_w) - x))


def solve_exact(problem: DesignProblem, constraints: ConstraintSet,
                tol: float = 1e-9) -> OptimizerReport:
    """An exact design within ``tol`` of the integer optimum, by
    branch-and-bound.

    A best-first search over integer count boxes: it always opens the open
    box with the least bound.  The cutoff is the incumbent's phi less
    tol·max(1, |phi|).  Each box's relaxation runs from its parent's optimum
    until its bound phi - gap reaches the cutoff, which prunes the box.  The
    root box is the whole constraint set, run from the weight box's floor as
    :func:`solve_approximate` runs it, and the first incumbent is its
    optimum's rounding.  Any other box branches early: its relaxation stops
    at the first kept iterate x whose phi is below the cutoff, whose gap is
    within ``_BRANCH_GAP`` relative to phi, and with a fractional count.
    Such a box can no longer be pruned, so converging it to ``tol`` would
    only tighten a bound that already lies below the cutoff; the root and
    boxes whose iterate looks integral still run to ``tol``.  A box whose x
    has integral counts J·x is a leaf.  Any other is split on the fractional
    count J·x_i = n + f with the largest h_ii·f(1 - f), h the Hessian at x
    (:func:`_branch`).  Each child's bound is the greater of its parent's
    and the first-order bound phi(x) + g·(s - x) of :func:`_child_bound`,
    which costs no evaluation and holds at any feasible x, phi being
    convex.  A child whose bound reaches the cutoff is closed unopened;
    the nearer side goes first among equal bounds.  The search stops once
    the least open bound reaches the cutoff, or after ``_NODE_LIMIT``
    relaxations.

    ``lower_bound`` is the least bound of the closed and the open boxes,
    ``optimality_gap`` phi minus it, and ``certified`` that the search
    stopped at the cutoff with the gap within ``tol`` relative to phi.
    ``iterations`` counts the Newton evaluations of all ``nodes``
    relaxations; ``status`` is the root's.
    """
    tol = _checked(problem, constraints, tol)
    ev = problem.evaluator(constraints.J)
    j, costs = constraints.J, constraints.costs
    budget_w = constraints.weight_budget()
    # the root, the first box opened, sets the incumbent ``best`` and the cutoff
    lower_bound, nodes, iterations, status, cutoff = np.inf, 0, 0, None, np.inf
    ties = itertools.count()
    # best-first heap of (bound, tie-break, box floor, box cap, parent optimum)
    heap = [(-np.inf, next(ties), constraints.min_per_region, constraints.max_per_region,
             constraints.weight_box()[0])]
    while heap and heap[0][0] < cutoff:
        if nodes == _NODE_LIMIT:
            break
        bound, _, lo_n, hi_n, parent_x = heapq.heappop(heap)
        lo, hi = lo_n / j, hi_n / j
        x, phi, gap, g, hess, its, node_status = _newton(
            ev, _start(parent_x, lo, hi, costs, budget_w), lo, hi, costs, budget_w,
            tol, cutoff, None if status is None else j)
        nodes += 1
        iterations += its
        bound = max(phi - gap, bound)           # the parent's bound holds here too
        if status is None:                      # the root
            status = node_status
            best = round_to_exact(x, constraints).counts
            best_phi = ev.phi(best / j)
            cutoff = best_phi - tol * max(1.0, abs(best_phi))
        if bound < cutoff:
            i = _branch(x, j, hess)
            if i is not None:
                down_hi, up_lo = np.array(hi_n), np.array(lo_n)
                down_hi[i] = np.floor(x[i] * j)
                up_lo[i] = down_hi[i] + 1
                down, up = (lo_n, down_hi), (up_lo, hi_n)
                for lo_c, hi_c in ([down, up] if x[i] * j - down_hi[i] < 0.5 else [up, down]):
                    if constraints._infeasibility(lo_c, hi_c) is not None:
                        continue
                    child = max(bound, _child_bound(phi, x, g, lo_c / j, hi_c / j,
                                                    costs, budget_w))
                    if child < cutoff:
                        heapq.heappush(heap, (child, next(ties), lo_c, hi_c, x))
                    else:                                   # closed unopened
                        lower_bound = min(lower_bound, child)
                continue
            counts = np.rint(x * j).astype(int)             # a leaf
            phi = ev.phi(counts / j)
            if phi < best_phi and constraints.satisfies(counts):
                best, best_phi = counts, phi
                cutoff = phi - tol * max(1.0, abs(phi))
        lower_bound = min(lower_bound, bound)               # the box is closed

    exhausted = not heap or heap[0][0] >= cutoff
    design = Design.exact(best)
    value = problem.value(design)
    lower_bound = min([lower_bound, value.phi] + [node[0] for node in heap])
    gap = value.phi - lower_bound
    return OptimizerReport(
        design=design, phi=value.phi, mse_trace=value.mse_trace, optimality_gap=gap,
        iterations=iterations, status=status, lower_bound=lower_bound,
        certified=exhausted and gap <= tol * max(1.0, abs(value.phi)), nodes=nodes)


def efficiency(xi_unconstrained: Design, xi_constrained: Design,
               problem: DesignProblem) -> float:
    """Criterion-value ratio phi(first design) / phi(second design).

    With the first argument optimal for a less constrained problem the value
    lies in (0, 1]; swapping the arguments gives the reciprocal.
    """
    return problem.phi(xi_unconstrained) / problem.phi(xi_constrained)
