"""End-to-end and per-layer benchmark of the ``trialalloc`` CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload fb_exact --seed 1 --seconds 35 --trace 0

Workloads: fb_exact, fb_approx, dense_approx, grid_eval (see README.md).
The benchmark drives ``trialalloc.cli.main`` in-process, one call at a time
(closed loop, a single client), on configs it generates from ``--seed``, and
times each call from outside.  Every report row is checked; a failing row
makes the run exit 1.

``--trace 0`` runs passes over the inputs in seeded order until ``--seconds``
have elapsed and at least one full pass is done, and prints the end-to-end
metrics.  Calls are timed in process CPU time, which counts every thread of
the process and leaves out time the host takes the CPU away; the wall-clock
figures go in the details line.  ``--trace 1`` runs one untraced pass and two
traced passes over the inputs, asserts that the work counters of the two
traced passes are equal, and prints the per-layer metrics.  The last stdout line is the result object;
the line before it holds the details (machine facts, output quality, tail
latency).
"""
import time

T_START = time.perf_counter()
CPU_START = time.process_time()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_work"
WORKLOADS = ("fb_exact", "fb_approx", "dense_approx", "grid_eval")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_REPEATS = 5
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 120


def _pin_blas_threads() -> dict:
    """Fix BLAS threads in this process's own environment, before numpy loads.

    One BLAS thread keeps the solver's work counters deterministic and keeps
    BLAS threads from contending with the solver's own pool.  Returns the
    values inherited from the parent environment.
    """
    inherited = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    return inherited


def _import_program():
    """Import trialalloc from this checkout's src/ and the golden rows from tests/."""
    package = ROOT / "src" / "trialalloc" / "__init__.py"
    helpers_file = ROOT / "tests" / "helpers.py"
    for needed in (package, helpers_file):
        if not needed.is_file():
            raise SystemExit(f"bench: {needed.relative_to(ROOT)} not found; run from a "
                             "full checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import trialalloc
    import trialalloc.cli
    if Path(trialalloc.__file__).resolve() != package.resolve():
        raise SystemExit(f"bench: imported trialalloc from {trialalloc.__file__}, "
                         f"not from {package}")
    spec = importlib.util.spec_from_file_location("bench_golden_helpers", helpers_file)
    helpers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(helpers)
    return trialalloc.cli, helpers


def _machine_facts(inherited: dict) -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": None, "version": None}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_inherited": inherited,
        "blas_threads_applied": {var: BLAS_THREADS for var in BLAS_THREAD_VARS},
    }


class Seconds(NamedTuple):
    """Wall-clock and process CPU seconds of one interval."""

    wall: float
    cpu: float


def _timed_call(cli, argv):
    """Run one CLI call; return (exit code, stdout text, Seconds, error text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            code = cli.main(argv)
            error = ""
        except Exception:  # noqa: BLE001 - a crashing call is a failed row
            code, error = -1, traceback.format_exc()
        seconds = Seconds(time.perf_counter() - t0, time.process_time() - c0)
    return code, out.getvalue(), seconds, error


class RowLog:
    """Check outcomes of every report row."""

    def __init__(self):
        self.results = []
        self.failures = []
        self.first_output = {}

    def record(self, inp, code, text, error):
        from workloads import RowResult, parse_strict
        if code != 0:
            results = [RowResult(False, f"{inp.key}: exit code {code} {error.strip()[-300:]}")]
            results *= inp.rows
        else:
            first = self.first_output.setdefault(inp.key, text)
            try:
                reports = parse_strict(text)
            except ValueError as exc:
                results = [RowResult(False, f"{inp.key}: stdout is not strict JSON: {exc}")]
                results *= inp.rows
            else:
                reports = reports if isinstance(reports, list) else [reports]
                results = inp.check(reports, inp)
                if text != first:
                    results = [RowResult(False, f"{inp.key}: output differs from the "
                                         "first call on the same input")] * inp.rows
        self.add(results)

    def add(self, results):
        self.results.extend(results)
        self.failures.extend(r.reason for r in results if not r.ok)

    def quality(self) -> dict:
        gaps = [r.gap_rel for r in self.results if r.gap_rel is not None]
        flags = [r.unconverged for r in self.results if r.unconverged is not None]
        excess = [r.mse_excess for r in self.results if r.mse_excess is not None]
        return {
            "fail_ratio": sum(not r.ok for r in self.results) / len(self.results),
            "unconverged_ratio": sum(flags) / len(flags) if flags else None,
            "gap_rel_max": max(gaps) if gaps else None,
            "mse_excess_max": max(excess) if excess else None,
        }


def _run_pass(cli, workload, samples, deadline=None):
    """Call every input once, in order; stop early once past ``deadline``.

    Returns whether the pass completed and each call's (input, exit code,
    stdout, error).  The caller checks the outputs, so that checking is
    neither timed nor traced.
    """
    gc.collect()
    calls = []
    for inp in workload.inputs:
        if deadline is not None and time.perf_counter() >= deadline:
            return False, calls
        code, text, seconds, error = _timed_call(cli, inp.argv)
        samples.setdefault(inp.key, []).append(seconds)
        calls.append((inp, code, text, error))
    return True, calls


def _median_seconds(workload, samples, clock: str) -> list:
    """Each input's median call time on ``clock`` ("wall" or "cpu"), in input order."""
    return [statistics.median(getattr(s, clock) for s in samples[inp.key])
            for inp in workload.inputs]


def _pass_rows_per_s(workload, samples, clock: str = "cpu") -> float:
    """Rows per second of one full pass, each input at its median call time."""
    rows = sum(inp.rows for inp in workload.inputs)
    return rows / sum(_median_seconds(workload, samples, clock))


def _tail(values: list):
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(values)
    return {"percentile": math.floor(100 * (n - TAIL_BEYOND) / n),
            "value_ms": 1e3 * ordered[n - TAIL_BEYOND - 1], "samples": n}


def _child_setup_seconds(args) -> list:
    """Set-up times of fresh processes doing the same set-up as this one."""
    values = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        values.append(Seconds(*json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
    return values


def _measure(cli, workload, args, setup_s: list) -> tuple:
    log, samples = RowLog(), {}
    start = time.perf_counter()
    passes = 0
    while True:
        complete, calls = _run_pass(cli, workload, samples,
                                    deadline=start + args.seconds if passes else None)
        for call in calls:
            log.record(*call)
        passes += complete
        if time.perf_counter() - start >= args.seconds:
            break
    for check in workload.extra_checks:
        log.add([check()])

    calls = [s for v in samples.values() for s in v]
    metrics = {
        "setup_s": (statistics.median(s.cpu for s in setup_s), "s"),
        "rows_per_cpu_s": (_pass_rows_per_s(workload, samples), "1/s"),
        "row_cpu_ms_p50": (1e3 * statistics.median(_median_seconds(workload, samples, "cpu")),
                           "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "setup_cpu_s_samples": [s.cpu for s in setup_s],
        "setup_wall_s_samples": [s.wall for s in setup_s],
        "full_passes": passes,
        "calls": len(calls),
        "wall_rows_per_s": _pass_rows_per_s(workload, samples, "wall"),
        "wall_row_ms_p50": 1e3 * statistics.median(_median_seconds(workload, samples, "wall")),
        "wall_row_ms_tail": _tail([s.wall for s in calls]),
        "cpu_per_wall": sum(s.cpu for s in calls) / sum(s.wall for s in calls),
        **log.quality(),
    }
    return metrics, detail, log


def _measure_layers(cli, workload) -> tuple:
    import tracing
    log = RowLog()
    untraced = {}
    _, calls = _run_pass(cli, workload, untraced)
    passes = []
    for _ in range(2):
        tracer, samples = tracing.Tracer(), {}
        with tracing.installed(tracer):
            _, traced_calls = _run_pass(cli, workload, samples)
        calls += traced_calls
        out_bytes = sum(len(text.encode()) for _, _, text, _ in traced_calls)
        layers = tracing.layer_metrics(tracer.spans, out_bytes)
        passes.append((layers, _pass_rows_per_s(workload, samples),
                       tracing.thread_count(tracer.spans)))
    for call in calls:
        log.record(*call)
    for check in workload.extra_checks:
        log.add([check()])

    (first, rps_1, threads), (second, rps_2, _) = passes
    mismatched = [k for k in tracing.COUNTS if first[k] != second[k]]
    if mismatched:
        log.failures.append("work counters differ between the two traced passes: "
                            + ", ".join(f"{k} {first[k]} vs {second[k]}" for k in mismatched))
    layers = {k: first[k] if k in tracing.COUNTS else (first[k] + second[k]) / 2
              for k in first}
    rps_untraced = _pass_rows_per_s(workload, untraced)
    layers["trace.rows_per_cpu_s_ratio"] = (rps_1 + rps_2) / 2 / rps_untraced
    metrics = {k: (v, tracing.unit(k)) for k, v in layers.items()}
    detail = {"untraced_rows_per_cpu_s": rps_untraced,
              "traced_rows_per_cpu_s": [rps_1, rps_2],
              "span_threads": threads,
              "counters_repeat": not mismatched,
              **log.quality()}
    return metrics, detail, log


def _print_result(log, metrics, detail, workload, args, facts) -> int:
    correct = not log.failures
    failed = sum(not r.ok for r in log.results)
    detail = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "failures": log.failures[:10], **detail,
              "machine": facts}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(log.results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    inherited = _pin_blas_threads()
    cli, helpers = _import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        workload = workloads.build(args.workload, args.seed, ROOT, workdir, helpers)
        code, text, _, error = _timed_call(cli, workload.warmup_argv)
        if code != 0:
            raise RuntimeError(f"warm-up call failed with exit code {code}: {error}{text}")
        setup_s = Seconds(time.perf_counter() - T_START, time.process_time() - CPU_START)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        facts = _machine_facts(inherited)
        if args.trace:
            metrics, detail, log = _measure_layers(cli, workload)
        else:
            setup = [setup_s] + _child_setup_seconds(args)
            metrics, detail, log = _measure(cli, workload, args, setup)
        return _print_result(log, metrics, detail, workload, args, facts)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


if __name__ == "__main__":
    sys.exit(main())
