"""Optimal allocation search: approximate weights and exact integer designs.

The approximate solver is a pairwise vertex-direction (Frank-Wolfe) method
over the constraint polytope

    { w : min_i/J <= w_i <= max_i/J,  sum w = 1,  c'w <= budget/J },

whose linear subproblem doubles as an optimality-gap certificate.  Its line
search is exact: along a segment the criterion is a convex rational function
of the step (see ``line`` in :mod:`trialalloc.criteria`).  The exact solver
rounds the approximate optimum, adds seeded random feasible starts, and runs
steepest single-location transfers to a local optimum, scoring all moves of
a sweep in one batch; the merge over starts is deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# minimize_scalar is unused here; bench/tracing.py still patches it by name
from scipy.optimize import linprog, minimize_scalar  # noqa: F401

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


def _finite(value, name: str) -> np.ndarray:
    """``value`` as a float array, rejecting non-numbers, NaN and infinities."""
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be numeric, got {value!r}") from None
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return arr


def _integers(value, name: str, size: int | None = None) -> np.ndarray:
    """``value`` as ints: a scalar, or broadcast to a vector of length ``size``."""
    arr = _finite(value, name)
    if np.any(arr != np.round(arr)):
        raise ValidationError(f"{name} must be integral, got {value!r}")
    if arr.shape not in ((), (size,)):
        count = "" if size is None else f" or {size} of them"
        raise ValidationError(f"{name} must be a whole number{count}, got {value!r}")
    return np.broadcast_to(arr.astype(int), () if size is None else size).copy()


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
        j = int(_integers(self.J, "J"))
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
        p = int(_integers(p, "P"))
        object.__setattr__(self, "P", p)

        lo = _integers(self.min_per_region, "min_per_region", p)
        if np.any(lo < 0):
            raise ValidationError("min_per_region entries must be >= 0")
        if self.max_per_region is None:
            hi = np.full(p, j, dtype=int)
        else:
            hi = _integers(self.max_per_region, "max_per_region", p)
        hi = np.minimum(hi, j)
        if np.any(hi < lo):
            raise ValidationError("max_per_region must be >= min_per_region")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "min_per_region", lo)
        object.__setattr__(self, "max_per_region", hi)

        if (self.costs is None) != (self.budget is None):
            raise ValidationError("costs and budget must be given together")
        if self.costs is not None:
            costs = _finite(self.costs, "costs")
            if costs.shape != (p,) or not np.all(costs > 0):
                raise ValidationError(f"costs must be {p} positive reals")
            costs.setflags(write=False)
            object.__setattr__(self, "costs", costs)
            budget = _finite(self.budget, "budget")
            if budget.shape != () or not budget > 0:
                raise ValidationError(f"budget must be a positive real, got {self.budget!r}")
            object.__setattr__(self, "budget", float(budget))

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
            cheapest = self._cheapest_fill()
            min_cost = float(self.costs @ cheapest)
            if min_cost > self.budget + _BUDGET_TOL:
                raise InfeasibleError(
                    "even the cheapest feasible allocation exceeds the budget",
                    certificate={"reason": "budget-too-small",
                                 "cheapest_cost": min_cost,
                                 "budget": self.budget,
                                 "cheapest_counts": cheapest.tolist()},
                )

    def _cheapest_fill(self) -> np.ndarray:
        counts = np.array(self.min_per_region)
        remaining = self.J - int(counts.sum())
        for i in np.argsort(self.costs, kind="stable"):
            room = int(self.max_per_region[i] - counts[i])
            take = min(room, remaining)
            counts[i] += take
            remaining -= take
            if remaining == 0:
                break
        return counts

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
    gap fell below the tolerance), ``max_iter``, or ``stalled`` (the line
    search stopped improving the criterion).  An exact solve carries the
    status of its approximate warm start.
    """

    design: Design
    phi: float
    mse_trace: float
    optimality_gap: float
    iterations: int
    restarts_used: int
    status: str
    seed: object = None


def _linear_minimum(g, lo, hi, costs, budget_w):
    """Vertex of the weight polytope minimizing the linear form g."""
    if costs is None:
        x = np.array(lo)
        slack = 1.0 - x.sum()
        for i in np.argsort(g, kind="stable"):
            take = min(hi[i] - x[i], slack)
            x[i] += take
            slack -= take
            if slack <= 0:
                break
        return x
    res = linprog(g, A_ub=costs[None, :], b_ub=[budget_w],
                  A_eq=np.ones((1, g.size)), b_eq=[1.0],
                  bounds=list(zip(lo, hi)), method="highs-ds")
    if not res.success:
        raise NumericalError(f"linear subproblem failed: {res.message}")
    return res.x


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


def solve_approximate(problem: DesignProblem, constraints: ConstraintSet,
                      tol: float = 1e-9, max_iter: int = 5000) -> OptimizerReport:
    """Optimal approximate design over the constraint polytope.

    Runs a pairwise vertex-direction scheme with exact line searches on the
    convex criterion.  Stops when the linearization gap g'(w - s) drops below
    ``tol`` relative to the criterion value; the report carries the absolute
    gap, a valid bound on the distance to the true optimum.  Deterministic —
    no randomness is involved.
    """
    if constraints.P != problem.P:
        raise ValidationError(
            f"constraints describe {constraints.P} sub-regions, problem has {problem.P}"
        )
    ev = problem.evaluator(constraints.J)
    lo, hi = constraints.weight_box()
    costs = constraints.costs
    budget_w = constraints.budget / constraints.J if costs is not None else None

    x = _linear_minimum(np.zeros(constraints.P), lo, hi, costs, budget_w)
    atoms = {x.tobytes(): [x, 1.0]}
    phi_x = ev.phi(x)
    gap = np.inf
    stalls = 0
    it = 0
    status = "max_iter"
    for it in range(1, max_iter + 1):
        g = ev.gradient(x)
        s = _linear_minimum(g, lo, hi, costs, budget_w)
        gap = float(g @ (x - s))
        if gap <= tol * max(1.0, abs(phi_x)):
            status = "converged"
            break

        # away step over the active vertices (pairwise direction)
        away_key = max(atoms, key=lambda k: float(g @ atoms[k][0]))
        v, lam_v = atoms[away_key]
        d = s - v
        gamma_max = lam_v
        if float(g @ d) >= 0.0 or gamma_max <= 1e-14:
            d = s - x
            gamma_max = 1.0
            away_key = None

        h, lam = ev.line(x, d)
        gamma = _rational_argmin(h, lam, gamma_max)
        if np.sum(h / (1.0 + gamma_max * lam)) < np.sum(h / (1.0 + gamma * lam)):
            gamma = gamma_max
        phi_new = ev.phi(x + gamma * d)
        if not phi_new < phi_x:
            stalls += 1
            if stalls >= 5:
                status = "stalled"
                break
            continue
        stalls = 0

        if away_key is not None:
            if gamma_max - gamma <= 1e-14:
                gamma = gamma_max
                del atoms[away_key]
            else:
                atoms[away_key][1] = gamma_max - gamma
        else:
            # plain step: scale every active weight down
            if gamma >= 1.0 - 1e-14:
                gamma = 1.0
                atoms.clear()
            else:
                for rec in atoms.values():
                    rec[1] *= 1.0 - gamma
        key = s.tobytes()
        if key in atoms:
            atoms[key][1] += gamma
        else:
            atoms[key] = [s, gamma]

        x = x + gamma * d
        phi_x = phi_new
        if it % 50 == 0:
            # resynchronize against accumulated drift
            x = sum(rec[1] * rec[0] for rec in atoms.values())
            phi_x = ev.phi(x)

    design = Design.approximate(x, constraints.J)
    phi_x = ev.phi(design.weights)
    return OptimizerReport(
        design=design,
        phi=phi_x,
        mse_trace=ev.mse_trace(design.weights, problem.criterion.target),
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
    lo, hi = constraints.min_per_region, constraints.max_per_region
    counts = np.array(lo)
    for _ in range(constraints.J - int(lo.sum())):
        open_regions = np.flatnonzero(counts < hi)
        counts[rng.choice(open_regions)] += 1
    if constraints.costs is not None:
        counts = round_to_exact(counts / constraints.J, constraints).counts
    return counts


def _feasible_moves(counts, constraints: ConstraintSet):
    """Sources and destinations of every feasible single-location move, in
    lexicographic (i, k) order."""
    lo, hi = constraints.min_per_region, constraints.max_per_region
    ok = (counts > lo)[:, None] & (counts < hi)[None, :]
    np.fill_diagonal(ok, False)
    if constraints.costs is not None:
        costs = constraints.costs
        new_cost = constraints.cost(counts) - costs[:, None] + costs[None, :]
        ok &= new_cost <= constraints.budget + _BUDGET_TOL
    return np.nonzero(ok)


def _transfer_descent(ev, counts, constraints: ConstraintSet):
    """Steepest single-location transfers to a local optimum.

    Each sweep scores the current design and every feasible move of one
    location from region i to region k in a single ``phi_many`` call, applies
    the best strict improvement (ties resolved toward the smallest (i, k)
    pair), and repeats until none improves.  Only ``phi_many`` values are
    compared, so the descent strictly decreases one deterministic function
    and cannot cycle.
    """
    counts = np.array(counts)
    moves = 0
    while True:
        src, dst = _feasible_moves(counts, constraints)
        trial = np.repeat(counts[None], len(src) + 1, axis=0)
        rows = np.arange(1, len(src) + 1)
        trial[rows, src] -= 1
        trial[rows, dst] += 1
        values = ev.phi_many(trial / constraints.J)
        best = 1 + int(np.argmin(values[1:])) if len(src) else 0
        if not values[best] < values[0]:
            return values[0], counts, moves
        counts = trial[best]
        moves += 1


def solve_exact(problem: DesignProblem, constraints: ConstraintSet,
                seed: int = 0, restarts: int = 20) -> OptimizerReport:
    """Optimal or highly efficient exact design under the constraints.

    Warm-starts from the rounded approximate optimum and from ``restarts``
    seeded random feasible allocations, improves each by steepest transfer
    descent, and keeps the best result (criterion value, then
    lexicographically smallest counts).  The reported gap compares against
    the continuous relaxation bound, so 0 certifies global optimality of the
    relaxation value itself, not merely local optimality.
    """
    if restarts < 0:
        raise ValidationError("restarts must be >= 0")
    seed = 0 if seed is None else int(seed)
    approx = solve_approximate(problem, constraints)
    ev = problem.evaluator(constraints.J)

    starts = [round_to_exact(approx.design.weights, constraints).counts]
    for child in np.random.SeedSequence(seed).spawn(restarts):
        starts.append(_random_feasible(np.random.default_rng(child), constraints))
    seen = set()
    results = []
    for counts in starts:
        key = tuple(int(v) for v in counts)
        if key not in seen:
            seen.add(key)
            results.append(_transfer_descent(ev, counts, constraints))

    total_moves = sum(moves for _, _, moves in results)
    _, best_counts, _ = min(
        results, key=lambda r: (r[0], tuple(int(v) for v in r[1]))
    )
    design = Design.exact(best_counts)
    best_phi = ev.phi(design.weights)
    relaxation_bound = approx.phi - approx.optimality_gap
    return OptimizerReport(
        design=design,
        phi=best_phi,
        mse_trace=ev.mse_trace(design.weights, problem.criterion.target),
        optimality_gap=max(best_phi - relaxation_bound, 0.0),
        iterations=total_moves,
        restarts_used=restarts,
        status=approx.status,
        seed=seed,
    )


def efficiency(xi_unconstrained: Design, xi_constrained: Design,
               problem: DesignProblem) -> float:
    """Criterion-value ratio phi(first design) / phi(second design).

    With the first argument optimal for a less constrained problem the value
    lies in (0, 1]; swapping the arguments gives the reciprocal.
    """
    return problem.phi(xi_unconstrained) / problem.phi(xi_constrained)
