"""Per-layer spans around trialalloc's public calls, installed from outside.

For the length of a traced pass, :func:`installed` replaces the public entry
points of each layer with wrappers that record one span per call: its name,
the span that caused it, the thread it ran on, the CLI call it belongs to,
and its start and end.  Nothing under ``src/`` is edited; the originals are
put back when the pass ends.

Layers and the calls wrapped:

``cli``        ``cli.main`` (one span per command, the root of a request).
``kinship``    kinship and model structure constructors, ``load_kinship_csv``
               and ``sigma2_alpha_for_unit_asv``.
``criteria``   ``DesignProblem.evaluator`` and ``DesignProblem.value``, and
               ``phi``, ``gradient`` and ``mse_trace`` of every evaluator it
               hands out.
``linalg``     ``_linalg.spd_factor``, through which every Cholesky goes.
``optimizer``  ``solve_approximate``, ``solve_exact``, ``round_to_exact`` and
               the ``minimize_scalar`` line search.

The exact solver scores transfer moves on a thread pool.  A span opened on a
pool thread with nothing open on that thread is attributed to the open
``solve_exact`` span, so busy time summed over threads may exceed wall time.
"""
from __future__ import annotations

import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

NAME, PARENT, THREAD, CALL, START, END, EXTRA = range(7)

APPROX = "optimizer.solve_approximate"
EXACT = "optimizer.solve_exact"
ROUND = "optimizer.round_to_exact"
LINE_SEARCH = "optimizer.minimize_scalar"
SOLVERS = (APPROX, EXACT, ROUND)

KINSHIP_CLASSES = ("Identity", "CompoundSymmetry", "BlockCompoundSymmetry", "DenseKinship")
MODEL_CLASSES = ("VarianceComponents", "SubRegionProfile")
EVALUATOR_CALLS = ("phi", "gradient", "mse_trace")

# Counters that must repeat exactly between two traced passes of one input set.
COUNTS = (
    "cli.calls", "cli.out_bytes", "criteria.builds", "criteria.phi_calls",
    "criteria.gradient_calls", "criteria.value_calls", "criteria.mse_trace_calls",
    "linalg.factorizations", "optimizer.fw_iterations", "optimizer.line_searches",
    "optimizer.line_search_phi_calls", "optimizer.descent_moves",
    "optimizer.descent_phi_calls", "optimizer.round_calls",
)


class _EvaluatorProxy:
    """Stands in for an evaluator, with its public calls traced."""

    def __init__(self, ev, tracer):
        self._ev = ev
        for name in EVALUATOR_CALLS:
            setattr(self, name, tracer.wrap(f"criteria.{name}", getattr(ev, name)))

    def __getattr__(self, name):
        return getattr(self._ev, name)


class Tracer:
    """Collects spans in memory; one tracer per traced pass."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._main = threading.get_ident()
        self._adopter = None
        self._call = 0
        self._evaluators = {}

    def wrap(self, name, fn, *, root=False, adopt=False, extra=None):
        """Return ``fn`` wrapped so that every call records a span."""
        spans, local, main = self.spans, self._local, self._main

        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if root:
                self._call += 1
            parent = stack[-1] if stack else (None if tid == main else self._adopter)
            rec = [name, parent, tid, self._call, 0.0, 0.0, None]
            stack.append(rec)
            if adopt:
                self._adopter = rec
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
                if adopt:
                    self._adopter = None
                spans.append(rec)
            if extra is not None:
                rec[EXTRA] = extra(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _first_sight(self, ev) -> bool:
        """True when ``ev`` is new, i.e. the evaluator call just built it."""
        if id(ev) in self._evaluators:
            return False
        self._evaluators[id(ev)] = (ev, _EvaluatorProxy(ev, self))
        return True

    def _proxy(self, ev):
        return self._evaluators[id(ev)][1]


@contextmanager
def installed(tracer: Tracer):
    """Route trialalloc's layer calls through ``tracer`` until the block exits."""
    from trialalloc import _linalg, cli, criteria, kinship, model, optimizer

    saved = []

    def patch(owner, attr, wrapper):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    try:
        patch(cli, "main", tracer.wrap("cli.main", cli.main, root=True))
        for module, names in ((kinship, KINSHIP_CLASSES), (model, MODEL_CLASSES)):
            for cls_name in names:
                cls = getattr(module, cls_name)
                patch(cls, "__init__", tracer.wrap(f"kinship.{cls_name}", cls.__init__))
        for fn_name in ("load_kinship_csv", "sigma2_alpha_for_unit_asv"):
            patch(cli, fn_name, tracer.wrap(f"kinship.{fn_name}", getattr(cli, fn_name)))

        problem = criteria.DesignProblem
        build = tracer.wrap("criteria.evaluator", problem.evaluator,
                            extra=tracer._first_sight)
        patch(problem, "evaluator", lambda self, J: tracer._proxy(build(self, J)))
        patch(problem, "value", tracer.wrap("criteria.value", problem.value))

        patch(_linalg, "spd_factor", tracer.wrap("linalg.spd_factor", _linalg.spd_factor))

        iterations = lambda report: report.iterations  # noqa: E731
        approx = tracer.wrap(APPROX, optimizer.solve_approximate, extra=iterations)
        exact = tracer.wrap(EXACT, optimizer.solve_exact, adopt=True, extra=iterations)
        for owner in (cli, optimizer):
            patch(owner, "solve_approximate", approx)
            patch(owner, "solve_exact", exact)
        patch(optimizer, "round_to_exact", tracer.wrap(ROUND, optimizer.round_to_exact))
        patch(optimizer, "minimize_scalar",
              tracer.wrap(LINE_SEARCH, optimizer.minimize_scalar))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _nearest_solver(rec):
    parent = rec[PARENT]
    while parent is not None and parent[NAME] not in SOLVERS:
        parent = parent[PARENT]
    return None if parent is None else parent[NAME]


def layer_metrics(spans: list, out_bytes: int) -> dict:
    """Per-layer counts and times of one traced pass."""
    count = Counter()
    total = defaultdict(float)
    same_thread_children = defaultdict(float)
    solver_children = defaultdict(float)
    value_builds = defaultdict(float)
    for rec in spans:
        name, parent = rec[NAME], rec[PARENT]
        dur = rec[END] - rec[START]
        count[name] += 1
        total[name] += dur
        if parent is None:
            continue
        if parent[THREAD] == rec[THREAD]:
            same_thread_children[id(parent)] += dur
        if parent[NAME] == EXACT and name in (APPROX, ROUND):
            solver_children[id(parent)] += dur
        if parent[NAME] == "criteria.value" and name == "criteria.evaluator" and rec[EXTRA]:
            value_builds[id(parent)] += dur

    def self_time(prefix):
        return sum(r[END] - r[START] - same_thread_children[id(r)]
                   for r in spans if r[NAME].startswith(prefix))

    def extras(name):
        return sum(r[EXTRA] for r in spans if r[NAME] == name)

    def mean_us(name):
        return 1e6 * total[name] / count[name] if count[name] else 0.0

    phi_by_solver = Counter(_nearest_solver(r) for r in spans if r[NAME] == "criteria.phi")
    line_search_phi = sum(1 for r in spans if r[NAME] == "criteria.phi"
                          and r[PARENT] is not None and r[PARENT][NAME] == LINE_SEARCH)
    fw_iterations = extras(APPROX)
    moves = extras(EXACT)
    descent_ms = 1e3 * sum(r[END] - r[START] - solver_children[id(r)]
                           for r in spans if r[NAME] == EXACT)
    builds = [r for r in spans if r[NAME] == "criteria.evaluator" and r[EXTRA]]
    return {
        "cli.calls": count["cli.main"],
        "cli.self_ms": 1e3 * self_time("cli."),
        "cli.out_bytes": out_bytes,
        "kinship.build_ms": 1e3 * self_time("kinship."),
        "criteria.builds": len(builds),
        "criteria.build_ms": 1e3 * sum(r[END] - r[START] for r in builds),
        "criteria.phi_calls": count["criteria.phi"],
        "criteria.phi_us": mean_us("criteria.phi"),
        "criteria.gradient_calls": count["criteria.gradient"],
        "criteria.gradient_us": mean_us("criteria.gradient"),
        "criteria.value_calls": count["criteria.value"],
        "criteria.value_us": 1e6 * (total["criteria.value"] - sum(value_builds.values()))
            / count["criteria.value"] if count["criteria.value"] else 0.0,
        "criteria.mse_trace_calls": count["criteria.mse_trace"],
        "linalg.factorizations": count["linalg.spd_factor"],
        "linalg.factor_ms": 1e3 * total["linalg.spd_factor"],
        "optimizer.approx_ms": 1e3 * total[APPROX],
        "optimizer.fw_iterations": fw_iterations,
        "optimizer.line_searches": count[LINE_SEARCH],
        "optimizer.line_search_ms": 1e3 * total[LINE_SEARCH],
        "optimizer.line_search_phi_calls": line_search_phi,
        "optimizer.phi_per_fw_iteration":
            phi_by_solver[APPROX] / fw_iterations if fw_iterations else 0.0,
        "optimizer.exact_ms": 1e3 * total[EXACT],
        "optimizer.descent_ms": descent_ms,
        "optimizer.descent_moves": moves,
        "optimizer.descent_phi_calls": phi_by_solver[EXACT],
        "optimizer.phi_per_move": phi_by_solver[EXACT] / moves if moves else 0.0,
        "optimizer.round_calls": count[ROUND],
        "optimizer.round_ms": 1e3 * total[ROUND],
    }


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    for suffix, name in (("_ms", "ms"), ("_us", "us"), ("_bytes", "bytes"), ("_ratio", "ratio")):
        if metric.endswith(suffix):
            return name
    return "ratio" if "_per_" in metric else "count"


def thread_count(spans: list) -> int:
    return len({rec[THREAD] for rec in spans})
