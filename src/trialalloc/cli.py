"""Command-line interface.

Four subcommands, all driven by a JSON configuration file (or the name of a
bundled fixture):

``eval``
    Evaluate the criterion for a fixed design.
``design``
    Compute an optimal design, approximate (``--mode approx``) or exact
    (``--mode exact``).
``efficiency``
    Compare two designs by their criterion-value ratio.
``selftest``
    Run a battery of internal consistency checks against the brute-force
    reference implementations.

Reports are printed as JSON to stdout; ``--pretty`` adds a human-readable
table on stderr.  Exit codes: 0 success, 2 validation failure, 3 infeasible
problem, 4 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path as _FsPath

import numpy as np

from . import __version__
from ._checks import count, finite, integers, number, positive
from .criteria import CriterionSpec, DesignProblem
from .errors import InfeasibleError, NumericalError, ValidationError
from .fixtures import available_fixtures, fixture_path
from .kinship import (BlockCompoundSymmetry, CompoundSymmetry, DenseKinship,
                      Identity, load_kinship_csv, sigma2_alpha_for_unit_asv)
from .model import Design, SubRegionProfile, VarianceComponents
from .optimizer import ConstraintSet, solve_approximate, solve_exact

__all__ = ["main"]

_AUTO_JITTER_REL = 1e-8


# ---------------------------------------------------------------------------
# Configuration loading


def load_config(path_or_name: str) -> dict:
    """Load a JSON configuration from a path or a bundled fixture name.

    The resolved directory of the file is recorded under the ``_base_dir``
    key so that relative paths inside the config (kinship CSVs) resolve
    against the config file rather than the working directory.
    """
    candidate = _FsPath(path_or_name)
    if candidate.is_file():
        base = candidate.resolve().parent
        text = candidate.read_text()
    else:
        fixture = fixture_path(path_or_name if not path_or_name.endswith(".json")
                               else path_or_name[:-5])
        base = None
        text = fixture.read_text()
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path_or_name}: invalid JSON ({exc})") from exc
    if not isinstance(config, dict):
        raise ValidationError(f"config {path_or_name}: top level must be an object")
    config["_base_dir"] = str(base) if base is not None else None
    return config


def _deep_merge(base: dict, override: dict) -> dict:
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def _require(config: dict, key: str) -> object:
    if key not in config:
        raise ValidationError(f"config is missing the required {key!r} block")
    return config[key]


def _build_variance(config: dict) -> VarianceComponents:
    block = _require(config, "variance")
    if not isinstance(block, dict):
        raise ValidationError("'variance' must be an object")
    variant = config.get("model_variant", "cross_classified")
    # A map keyed by model variant lets one file carry both parameter sets.
    if "sigma2_omega" not in block:
        if not isinstance(variant, str) or variant not in block:
            raise ValidationError(
                f"'variance' has no parameters for model_variant {variant!r} "
                f"(available: {sorted(block)})"
            )
        block = block[variant]
    fields = dict(block)
    fields.setdefault("model_variant", variant)
    try:
        if "sigma2_phi_plus_err_over_L" in fields:
            return VarianceComponents(**fields)
        return VarianceComponents.from_separate(**fields)
    except TypeError as exc:
        raise ValidationError(f"'variance' block: {exc}") from exc


def _build_profile(config: dict) -> SubRegionProfile:
    block = _require(config, "subregions")
    if not isinstance(block, dict) or "V" not in block:
        raise ValidationError("'subregions' must be an object with a 'V' matrix")
    return SubRegionProfile(V=block["V"], ell=block.get("ell"))


def _mean_diag(spec) -> float:
    if isinstance(spec, Identity):
        return 1.0
    if isinstance(spec, (CompoundSymmetry, BlockCompoundSymmetry)):
        return spec.sigma2_alpha
    return float(np.mean(np.diag(spec.matrix)))


def _resolve_jitter(spec, requested):
    """Return ``spec`` with the jitter replaced by ``requested``.

    ``requested`` is a float or the string ``"auto"``, which scales to the
    mean diagonal of the kinship.
    """
    if requested is None:
        return spec
    if requested == "auto":
        value = _AUTO_JITTER_REL * _mean_diag(spec)
    else:
        try:
            value = float(requested)
        except (TypeError, ValueError):
            raise ValidationError(f"jitter must be a number or 'auto', got {requested!r}")
    return dataclasses.replace(spec, jitter=value)


def _build_kinship(config: dict, jitter_override=None):
    block = _require(config, "kinship")
    if not isinstance(block, dict):
        raise ValidationError("'kinship' must be an object")
    variant = block.get("variant")
    jitter = block.get("jitter", 0.0)

    def _sigma2_alpha(K: int, m: int) -> float:
        raw = block.get("sigma2_alpha", 1.0)
        if raw == "unit_asv":
            return sigma2_alpha_for_unit_asv(K, m, number(block["r"], "r"))
        return number(raw, "sigma2_alpha")

    def _count(name: str) -> int:
        return int(integers(block[name], name))

    try:
        if variant == "identity":
            spec = Identity(K=block["K"], jitter=jitter)
        elif variant == "cs":
            K = _count("K")
            spec = CompoundSymmetry(K=K, sigma2_alpha=_sigma2_alpha(K, K),
                                    r=block["r"], jitter=jitter)
        elif variant == "block_cs":
            f, m = _count("f"), _count("m")
            spec = BlockCompoundSymmetry(f=f, m=m,
                                         sigma2_alpha=_sigma2_alpha(f * m, m),
                                         r=block["r"], jitter=jitter)
        elif variant == "dense":
            if "csv" in block:
                if not isinstance(block["csv"], str):
                    raise ValidationError(f"kinship csv must be a path, got {block['csv']!r}")
                csv_path = _FsPath(block["csv"])
                if not csv_path.is_absolute() and config.get("_base_dir"):
                    csv_path = _FsPath(config["_base_dir"]) / csv_path
                spec = load_kinship_csv(csv_path, jitter=jitter)
            elif "matrix" in block:
                spec = DenseKinship(matrix=block["matrix"], jitter=jitter)
            else:
                raise ValidationError("dense kinship needs a 'csv' path or a 'matrix'")
        else:
            raise ValidationError(
                f"unknown kinship variant {variant!r}; "
                "expected identity, cs, block_cs or dense"
            )
    except KeyError as exc:
        raise ValidationError(f"kinship block is missing the {exc.args[0]!r} field")
    return _resolve_jitter(spec, jitter_override)


def _build_criterion(config: dict) -> CriterionSpec:
    block = config.get("criterion", {})
    if not isinstance(block, dict):
        raise ValidationError("'criterion' must be an object")
    try:
        return CriterionSpec(target=block.get("target", "effects"),
                             weighting=block.get("weighting", "standard"),
                             path=block.get("path", "auto"))
    except ValueError as exc:
        raise ValidationError(f"criterion.{exc}") from exc


def _j_grid(config: dict) -> list:
    raw = _require(config, "J")
    values = raw if isinstance(raw, list) else [raw]
    if not values:
        raise ValidationError("'J' grid is empty")
    grid = integers(values, "J", len(values))
    if np.any(grid < 1):
        raise ValidationError(f"J values must be integers >= 1, got {raw!r}")
    return grid.tolist()


def _build_constraints(config: dict, J: int, P: int) -> ConstraintSet:
    block = config.get("constraints", {})
    if not isinstance(block, dict):
        raise ValidationError("'constraints' must be an object")
    return ConstraintSet(J=J, P=P,
                         min_per_region=block.get("min_per_region", 1),
                         max_per_region=block.get("max_per_region"),
                         costs=block.get("costs"),
                         budget=block.get("budget"))


def _build_problem(config: dict, jitter_override=None) -> DesignProblem:
    return DesignProblem(vc=_build_variance(config),
                         profile=_build_profile(config),
                         kinship=_build_kinship(config, jitter_override),
                         criterion=_build_criterion(config))


def _parse_design(raw, P: int, default_J=None, field: str = "design") -> Design:
    """Accept counts as a bare list, or {'counts': ...} / {'weights': ..., 'J': n}."""
    if isinstance(raw, list):
        raw = {"counts": raw}
    if not isinstance(raw, dict):
        raise ValidationError(f"'{field}' must be a list of counts or an object")
    if "counts" in raw:
        counts = finite(raw["counts"], field)
        if counts.shape != (P,):
            raise ValidationError(
                f"'{field}' has {counts.size} entries but the problem has {P} sub-regions"
            )
        design = Design.exact(counts)
        if default_J is not None and design.J != default_J:
            raise ValidationError(
                f"'{field}' counts sum to {design.J} but the config sets J={default_J}"
            )
        return design
    if "weights" in raw:
        if "J" in raw:
            J = count(raw["J"], f"{field}.J", 1)
        elif default_J is None:
            raise ValidationError(f"'{field}' gives weights, so a total size J is needed")
        else:
            J = default_J
        weights = finite(raw["weights"], f"{field}.weights")
        if weights.shape != (P,):
            raise ValidationError(
                f"'{field}' has {weights.size} weights but the problem has {P} sub-regions"
            )
        return Design.approximate(weights, J)
    raise ValidationError(f"'{field}' needs either 'counts' or 'weights'")


# ---------------------------------------------------------------------------
# Serialization helpers


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _design_payload(design: Design) -> dict:
    payload = {"kind": design.kind, "J": design.J,
               "weights": [float(w) for w in design.weights]}
    payload["counts"] = [int(c) for c in design.counts] if design.counts is not None else None
    return payload


def _criterion_payload(problem: DesignProblem) -> dict:
    return {"target": problem.criterion.target.value,
            "weighting": problem.criterion.weighting.value,
            "path_used": problem.path_used.value}


def _emit(payload, pretty: bool, render) -> None:
    try:
        text = json.dumps(payload, default=_json_default, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"report holds a non-finite number ({exc})") from None
    sys.stdout.write(text + "\n")
    if pretty:
        render(payload)
        sys.stderr.flush()


# ---------------------------------------------------------------------------
# Pretty rendering (stderr)


def _render_design_table(report: dict) -> None:
    err = sys.stderr
    label = f"  [{report['label']}]" if report.get("label") else ""
    head = report.get("mode", report["command"])
    err.write(f"{head}  J={report['J']}{label}\n")
    crit = report["criterion"]
    err.write(f"  criterion : {crit['target']} / {crit['weighting']}"
              f"  (path {crit['path_used']})\n")
    design = report["design"]
    rows = [("region", "weight") + (("count",) if design["counts"] else ())]
    for i, w in enumerate(design["weights"]):
        row = (str(i + 1), f"{w:.4f}")
        if design["counts"]:
            row += (str(design["counts"][i]),)
        rows.append(row)
    widths = [max(len(r[k]) for r in rows) for k in range(len(rows[0]))]
    for r in rows:
        err.write("  " + "  ".join(cell.rjust(w) for cell, w in zip(r, widths)) + "\n")
    err.write(f"  phi       : {report['phi']:.6f}\n")
    err.write(f"  MSE trace : {report['mse_trace']:.4f}\n")
    for key in ("optimality_gap", "status", "iterations", "restarts_used", "seed",
                "best_start", "starts_descended", "cost"):
        if report.get(key) is not None:
            err.write(f"  {key:<10}: {report[key]}\n")
    err.write("\n")


def _render_design_reports(payload) -> None:
    reports = payload if isinstance(payload, list) else [payload]
    for report in reports:
        _render_design_table(report)


def _render_efficiency(payload) -> None:
    err = sys.stderr
    err.write(f"efficiency: {payload['efficiency']:.6f}\n")
    for key in ("reference", "alternative"):
        block = payload[key]
        counts = block["design"]["counts"]
        shown = counts if counts else [round(w, 4) for w in block["design"]["weights"]]
        err.write(f"  {key:<12} phi={block['phi']:.6f}  "
                  f"mse_trace={block['mse_trace']:.4f}  design={shown}\n")


def _render_selftest(payload) -> None:
    err = sys.stderr
    for check in payload["checks"]:
        err.write(f"  {check['status']:<4}  {check['name']}\n")
    err.write("selftest: " + ("all checks passed\n" if payload["passed"]
                              else "FAILURES\n"))


# ---------------------------------------------------------------------------
# Subcommands


def _expand_batch(config: dict) -> list:
    batch = config.get("batch")
    if batch is None:
        return [(None, config)]
    if not isinstance(batch, list) or not all(isinstance(e, dict) for e in batch):
        raise ValidationError("'batch' must be a list of override objects")
    expanded = []
    base = {k: v for k, v in config.items() if k != "batch"}
    for entry in batch:
        label = entry.get("label")
        override = {k: v for k, v in entry.items() if k != "label"}
        expanded.append((label, _deep_merge(base, override)))
    return expanded


def _solver_settings(config: dict, args) -> dict:
    block = config.get("solver", {})
    if not isinstance(block, dict):
        raise ValidationError("'solver' must be an object")

    def setting(name, default, check):
        flag = getattr(args, name, None)
        if flag is not None:
            return check(flag, f"--{name}")
        return check(block.get(name, default), f"solver.{name}")

    return {
        "tol": setting("tol", 1e-9, positive),
        "restarts": setting("restarts", 20, count),
        "seed": setting("seed", 0, count),
        "max_iter": setting("max_iter", 5000, lambda v, name: count(v, name, 1)),
        "mode": args.mode or block.get("mode", "approx"),
    }


def _cmd_eval(args) -> int:
    config = load_config(args.config)
    reports = []
    for label, cfg in _expand_batch(config):
        problem = _build_problem(cfg, args.jitter)
        grid = _j_grid(cfg) if "J" in cfg else [None]
        raw = _require(cfg, "design")
        fixed_counts = isinstance(raw, list) or (isinstance(raw, dict) and "counts" in raw)
        if fixed_counts and len(grid) > 1:
            raise ValidationError("a counts design fixes J; use weights with a J grid")
        design = _parse_design(raw, problem.P, default_J=grid[0])
        # a design that names its own J is evaluated there on every row
        js = [design.J] * len(grid) if fixed_counts or "J" in raw else grid
        shown = _design_payload(design)
        criterion = _criterion_payload(problem)
        for J, value in zip(js, problem.values(design, js)):
            reports.append({
                "command": "eval",
                "label": label,
                "J": J,
                "criterion": criterion,
                "design": dict(shown, J=J),
                "phi": value.phi,
                "mse_trace": value.mse_trace,
                "gradient": [float(g) for g in value.gradient],
            })
    payload = reports[0] if len(reports) == 1 else reports
    _emit(payload, args.pretty, _render_design_reports)
    return 0


def _cmd_design(args) -> int:
    config = load_config(args.config)
    reports = []
    for label, cfg in _expand_batch(config):
        problem = _build_problem(cfg, args.jitter)
        solver = _solver_settings(cfg, args)
        if solver["mode"] not in ("approx", "exact"):
            raise ValidationError(f"mode must be 'approx' or 'exact', got {solver['mode']!r}")
        for J in _j_grid(cfg):
            constraints = _build_constraints(cfg, J, problem.P)
            if solver["mode"] == "exact":
                report = solve_exact(problem, constraints, seed=solver["seed"],
                                     restarts=solver["restarts"], tol=solver["tol"],
                                     max_iter=solver["max_iter"])
            else:
                report = solve_approximate(problem, constraints, tol=solver["tol"],
                                           max_iter=solver["max_iter"])
            entry = {
                "command": "design",
                "mode": solver["mode"],
                "label": label,
                "J": J,
                "criterion": _criterion_payload(problem),
                "design": _design_payload(report.design),
                "phi": report.phi,
                "mse_trace": report.mse_trace,
                "optimality_gap": report.optimality_gap,
                "status": report.status,
                "iterations": report.iterations,
                "restarts_used": report.restarts_used,
                "seed": report.seed,
            }
            if solver["mode"] == "exact":
                entry["best_start"] = report.best_start
                entry["starts_descended"] = report.starts_descended
            if constraints.costs is not None and report.design.counts is not None:
                entry["cost"] = float(constraints.cost(report.design.counts))
            reports.append(entry)
    payload = reports[0] if len(reports) == 1 else reports
    _emit(payload, args.pretty, _render_design_reports)
    return 0


def _cmd_efficiency(args) -> int:
    config = load_config(args.config)
    problem = _build_problem(config, args.jitter)
    block = _require(config, "designs")
    if not isinstance(block, dict):
        raise ValidationError("'designs' must be an object with two designs")
    aliases = (("reference", "unconstrained", "a"), ("alternative", "constrained", "b"))
    picked = []
    for names in aliases:
        match = [n for n in names if n in block]
        if not match:
            raise ValidationError(
                f"'designs' needs one of {names} (got keys {sorted(block)})"
            )
        picked.append(block[match[0]])
    default_J = None
    if "J" in config:
        grid = _j_grid(config)
        default_J = grid[0] if len(grid) == 1 else None
    ref = _parse_design(picked[0], problem.P, default_J, field="designs.reference")
    alt = _parse_design(picked[1], problem.P, default_J, field="designs.alternative")

    def _block(design: Design) -> dict:
        value = problem.value(design)
        return {"design": _design_payload(design), "phi": value.phi,
                "mse_trace": value.mse_trace}

    reference, alternative = _block(ref), _block(alt)
    payload = {
        "command": "efficiency",
        "criterion": _criterion_payload(problem),
        # optimizer.efficiency's ratio, from the one evaluation of each design
        "efficiency": reference["phi"] / alternative["phi"],
        "reference": reference,
        "alternative": alternative,
    }
    _emit(payload, args.pretty, _render_efficiency)
    return 0


# ---------------------------------------------------------------------------
# selftest


def _selftest_checks() -> list:
    from . import oracle
    from .optimizer import round_to_exact

    rng = np.random.default_rng(1789)
    checks = []

    def run(name, fn):
        try:
            fn()
            checks.append({"name": name, "status": "pass", "detail": None})
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            checks.append({"name": name, "status": "fail",
                           "detail": f"{type(exc).__name__}: {exc}"})

    def random_instance(kind: str):
        P, K = 3, 6
        a = rng.normal(size=(P, P))
        profile = SubRegionProfile(V=a @ a.T + P * np.eye(P),
                                   ell=rng.uniform(1.0, 3.0, size=P))
        vc = VarianceComponents(sigma2_omega=rng.uniform(5, 40),
                                sigma2_tau=rng.uniform(5, 40),
                                sigma2_gamma=rng.uniform(50, 200),
                                sigma2_phi_plus_err_over_L=rng.uniform(100, 400),
                                H=3)
        if kind == "cs":
            kin = CompoundSymmetry(K=K, sigma2_alpha=rng.uniform(0.5, 2.0),
                                   r=rng.uniform(0.1, 0.8))
        else:
            kin = BlockCompoundSymmetry(f=3, m=2, sigma2_alpha=rng.uniform(0.5, 2.0),
                                        r=rng.uniform(0.1, 0.8))
        counts = np.array([3, 2, 4])
        return vc, profile, kin, counts

    def check_direct_mse():
        vc, profile, kin, counts = random_instance("cs")
        problem = DesignProblem(vc, profile, kin)
        inst = oracle.OracleInstance(vc=vc, profile=profile, kinship=kin, counts=counts)
        direct = float(np.trace(oracle.mse_direct(inst)))
        mine = problem.mse_trace(Design.exact(counts))
        if abs(mine - direct) > 1e-9 * abs(direct):
            raise AssertionError(f"{mine} vs {direct}")

    def check_contrast_identity():
        vc, profile, kin, counts = random_instance("cs")
        inst = oracle.OracleInstance(vc=vc, profile=profile, kinship=kin, counts=counts)
        mse = oracle.mse_direct(inst)
        K, P = inst.K, profile.P
        t = np.eye(K) - np.full((K, K), 1.0 / K)
        contracted = float(np.trace(np.kron(t, np.eye(P)) @ mse))
        paired = float(np.trace(oracle.mse_direct_contrasts(inst)))
        if abs(paired - K * contracted) > 1e-10 * max(abs(paired), 1.0):
            raise AssertionError(f"{paired} vs {K * contracted}")

    def check_affine_reduction():
        vc, profile, kin, counts = random_instance("cs")
        design = Design.exact(counts)
        full = DesignProblem(vc, profile, kin, CriterionSpec(path="full")).phi(design)
        reduced = DesignProblem(vc, profile, kin).phi(design)
        scale = kin.a1 ** 2 * (kin.K - 1)
        const = oracle.reduction_constants(
            oracle.OracleInstance(vc=vc, profile=profile, kinship=kin, counts=counts),
            which="cs_effects")
        if abs(full - (scale * reduced + const)) > 1e-8 * max(abs(full), 1.0):
            raise AssertionError(f"{full} vs {scale * reduced + const}")

    def check_block_paths():
        vc, profile, kin, counts = random_instance("block")
        design = Design.exact(counts)
        a, b = (DesignProblem(vc, profile, kin, CriterionSpec(path=path)).phi(design)
                for path in ("auto", "full"))
        if abs(a - b) > 1e-10 * max(abs(a), 1.0):
            raise AssertionError(f"{a} vs {b}")

    def check_gradient():
        vc, profile, kin, counts = random_instance("block")
        problem = DesignProblem(vc, profile, kin)
        w = rng.uniform(0.2, 1.0, size=profile.P)
        w /= w.sum()
        J = 12
        design = Design.approximate(w, J)
        grad = problem.gradient(design)
        ev = problem.evaluator(J)
        fd = oracle.finite_difference_gradient(ev.phi, w)
        if np.max(np.abs(grad - fd)) > 1e-5 * max(np.max(np.abs(fd)), 1.0):
            raise AssertionError(f"{grad} vs {fd}")

    def check_exact_enumeration():
        vc, profile, kin, counts = random_instance("cs")
        problem = DesignProblem(vc, profile, kin)
        constraints = ConstraintSet(J=7, P=3, min_per_region=1)
        report = solve_exact(problem, constraints, seed=3, restarts=5)
        best = oracle.enumerate_exact_optimum(problem, constraints)
        if tuple(report.design.counts) != tuple(best.counts):
            raise AssertionError(f"{report.design.counts} vs {best.counts}")
        best_value = problem.phi(best)
        if abs(report.phi - best_value) > 1e-10 * max(abs(best_value), 1.0):
            raise AssertionError(f"{report.phi} vs {best_value}")

    def check_fixture_roundtrip():
        config = load_config("maize_network")
        problem = _build_problem(config)
        design = _parse_design(config["design"], problem.P, default_J=config["J"])
        value = problem.value(design)
        again = problem.phi(Design.approximate(design.weights, design.J))
        if not np.isfinite(value.phi) or value.mse_trace <= 0:
            raise AssertionError("fixture evaluation is degenerate")
        if abs(again - value.phi) > 1e-12 * max(abs(value.phi), 1.0):
            raise AssertionError(f"{again} vs {value.phi}")

    def check_rounding():
        constraints = ConstraintSet(J=11, P=3, min_per_region=1)
        design = round_to_exact(np.array([0.5, 0.3, 0.2]), constraints)
        if int(design.counts.sum()) != 11 or not constraints.satisfies(design.counts):
            raise AssertionError(f"rounded to {design.counts}")

    run("direct-mse-agreement", check_direct_mse)
    run("contrast-trace-identity", check_contrast_identity)
    run("cs-reduction-affine-link", check_affine_reduction)
    run("family-block-path-parity", check_block_paths)
    run("gradient-finite-difference", check_gradient)
    run("exact-vs-enumeration", check_exact_enumeration)
    run("fixture-roundtrip", check_fixture_roundtrip)
    run("rounding-feasibility", check_rounding)
    return checks


def _cmd_selftest(args) -> int:
    checks = _selftest_checks()
    passed = all(c["status"] == "pass" for c in checks)
    payload = {"command": "selftest", "version": __version__,
               "checks": checks, "passed": passed}
    _emit(payload, args.pretty, _render_selftest)
    return 0 if passed else 4


# ---------------------------------------------------------------------------
# Entry point


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trialalloc",
        description="Optimal allocation of crop-trial locations to sub-regions.",
    )
    parser.add_argument("--version", action="version", version=f"trialalloc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, metavar="PATH",
                           help="JSON config file or bundled fixture name "
                                f"({', '.join(available_fixtures())})")
            p.add_argument("--jitter", default=None, metavar="X",
                           help="kinship diagonal jitter: a number or 'auto'")
        p.add_argument("--pretty", action="store_true",
                       help="also print a human-readable table to stderr")

    p_eval = sub.add_parser("eval", help="evaluate the criterion for a fixed design")
    common(p_eval)

    p_design = sub.add_parser("design", help="compute an optimal design")
    common(p_design)
    p_design.add_argument("--mode", choices=("approx", "exact"), default=None,
                          help="approximate weights or exact integer counts "
                               "(default approx)")
    p_design.add_argument("--seed", type=int, default=None, help="solver seed override")
    p_design.add_argument("--tol", type=float, default=None,
                          help="approximate-solver gap tolerance override")
    p_design.add_argument("--restarts", type=int, default=None,
                          help="exact-solver restart count override")

    p_eff = sub.add_parser("efficiency", help="criterion-value ratio of two designs")
    common(p_eff)

    p_self = sub.add_parser("selftest", help="run internal consistency checks")
    common(p_self, config=False)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"eval": _cmd_eval, "design": _cmd_design,
                "efficiency": _cmd_efficiency, "selftest": _cmd_selftest}
    try:
        return handlers[args.command](args)
    except InfeasibleError as exc:
        payload = {"error": str(exc), "kind": "infeasible",
                   "certificate": getattr(exc, "certificate", None)}
        json.dump(payload, sys.stdout, default=_json_default)
        sys.stdout.write("\n")
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NumericalError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except np.linalg.LinAlgError as exc:
        sys.stderr.write(f"error: linear algebra failure: {exc}\n")
        return 4
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
