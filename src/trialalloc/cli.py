"""Command-line interface.

Three subcommands, all driven by a JSON configuration file (or the name of a
bundled fixture):

``eval``
    Evaluate the criterion for a fixed design.
``design``
    Compute an optimal design, approximate (``--mode approx``) or exact
    (``--mode exact``, certified by branch-and-bound: its rows add
    ``lower_bound``, ``certified`` and ``nodes``).
``efficiency``
    Compare two designs by their criterion-value ratio.

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
from ._checks import finite, integers, number, positive
from .criteria import CriterionSpec, DesignProblem
from .errors import InfeasibleError, NumericalError, ValidationError
from .fixtures import available_fixtures, fixture_path
from .kinship import (BlockCompoundSymmetry, CompoundSymmetry, DenseKinship,
                      Identity, load_kinship_csv, sigma2_alpha_for_unit_asv)
from .model import Design, SubRegionProfile, VarianceComponents
from .optimizer import ConstraintSet, solve_approximate, solve_exact

__all__ = ["main"]

_AUTO_JITTER_REL = 1e-8
# the keys a config may carry at its top level, in each settings block, in
# its kinship block by variant, and in a design object
_CONFIG_KEYS = ("variance", "model_variant", "subregions", "kinship", "criterion", "J",
                "design", "designs", "constraints", "solver", "description")
_SETTINGS = {"subregions": ("V", "ell"),
             "criterion": ("target", "weighting"),
             "designs": ("reference", "alternative"),
             "constraints": ("min_per_region", "max_per_region", "costs", "budget"),
             "solver": ("tol",)}
_KINSHIP_KEYS = {"identity": ("variant", "K"),
                 "cs": ("variant", "K", "r", "sigma2_alpha"),
                 "block_cs": ("variant", "f", "m", "r", "sigma2_alpha"),
                 "dense": ("variant", "csv", "matrix", "jitter")}
_DESIGN_KEYS = ("counts", "weights", "J")


# ---------------------------------------------------------------------------
# Configuration loading


def load_config(path_or_name: str) -> list:
    """Load a JSON configuration from a path or a bundled fixture name.

    Returns a checked ``(label, config)`` per ``batch`` entry merged into the
    base, or ``(None, config)`` without a batch.  Each records the file's
    resolved directory under ``_base_dir``, so that relative paths inside it
    (kinship CSVs) resolve against the config file, not the working directory.
    """
    candidate = _FsPath(path_or_name)
    if candidate.is_file():
        base_dir = str(candidate.resolve().parent)
        text = candidate.read_text()
    else:
        fixture = fixture_path(path_or_name if not path_or_name.endswith(".json")
                               else path_or_name[:-5])
        base_dir = None
        text = fixture.read_text()
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path_or_name}: invalid JSON ({exc})") from exc
    if not isinstance(config, dict):
        raise ValidationError(f"config {path_or_name}: top level must be an object")
    batch = config.pop("batch", [{}])
    if (not isinstance(batch, list) or not batch
            or not all(isinstance(e, dict) for e in batch)):
        raise ValidationError("'batch' must be a non-empty list of override objects")
    entries = []
    for i, override in enumerate(batch):
        if "label" in override and not isinstance(override["label"], str):
            raise ValidationError(f"batch[{i}].label must be a string, "
                                  f"got {override['label']!r}")
        entry = {k: v for k, v in override.items() if k != "label"}
        merged = _deep_merge(config, entry)
        _check_keys(entry, f"batch[{i}]: ", _variant(merged))
        _check_keys(merged)
        entries.append((override.get("label"), dict(merged, _base_dir=base_dir)))
    return entries


def _variant(config: dict):
    """The kinship variant a config names, or None."""
    kinship = config.get("kinship")
    return kinship.get("variant") if isinstance(kinship, dict) else None


def _check_keys(config: dict, where: str = "", variant=None) -> None:
    """Reject a key outside :data:`_CONFIG_KEYS`, a settings block's keys,
    its kinship variant's keys or, in a design given as an object,
    :data:`_DESIGN_KEYS`.  Messages start with ``where``, the place of a
    batch entry; ``variant`` is the kinship variant when the config does not
    name one itself."""
    for key in config:
        if key not in _CONFIG_KEYS:
            raise ValidationError(f"{where}{key!r} is not a config key; "
                                  f"expected one of {', '.join(_CONFIG_KEYS)}")
    variant = _variant(config) or variant
    blocks = dict(_SETTINGS)
    if isinstance(variant, str) and variant in _KINSHIP_KEYS:
        blocks["kinship"] = _KINSHIP_KEYS[variant]
    for name, keys in blocks.items():
        block = config.get(name, {})
        if not isinstance(block, dict):
            raise ValidationError(f"{where}'{name}' must be an object")
        for key in block:
            if key not in keys:
                raise ValidationError(f"{where}{name}.{key} is not a setting; "
                                      f"expected one of {', '.join(keys)}")
    designs = {"design": config.get("design"),
               **{f"designs.{k}": v for k, v in config.get("designs", {}).items()}}
    for field, design in designs.items():
        for key in design if isinstance(design, dict) else ():
            if key not in _DESIGN_KEYS:
                raise ValidationError(f"{where}{field}.{key} is not a design key; "
                                      "expected counts or weights, and J")


def _deep_merge(base: dict, override: dict) -> dict:
    """``override`` merged into ``base`` block by block; a block naming
    another ``variant`` (a kinship) replaces the base's block whole."""
    merged = dict(base)
    for key, value in override.items():
        old = merged.get(key)
        if isinstance(value, dict) and isinstance(old, dict) and (
                value.get("variant", old.get("variant")) == old.get("variant")):
            merged[key] = _deep_merge(old, value)
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
    name = "variance"
    # A map keyed by model variant lets one file carry both parameter sets.
    if "sigma2_omega" not in block:
        if not isinstance(variant, str) or variant not in block:
            raise ValidationError(
                f"'variance' has no parameters for model_variant {variant!r} "
                f"(available: {sorted(block)})"
            )
        block, name = block[variant], f"variance.{variant}"
        if not isinstance(block, dict):
            raise ValidationError(f"{name} must be an object")
    fields = dict(block)
    fields.setdefault("model_variant", variant)
    try:
        if "sigma2_phi_plus_err_over_L" in fields:
            return VarianceComponents(**fields)
        return VarianceComponents.from_separate(**fields)
    except TypeError as exc:
        raise ValidationError(f"'{name}' block: {exc} (the error variance is "
                              "sigma2_phi_plus_err_over_L, or sigma2_phi, sigma2_err "
                              "and L)") from exc


def _build_profile(config: dict) -> SubRegionProfile:
    block = _require(config, "subregions")
    if not isinstance(block, dict) or "V" not in block:
        raise ValidationError("'subregions' must be an object with a 'V' matrix")
    return SubRegionProfile(V=block["V"], ell=block.get("ell"))


def _build_kinship(config: dict):
    block = _require(config, "kinship")
    if not isinstance(block, dict):
        raise ValidationError("'kinship' must be an object")
    variant = block.get("variant")

    def _sigma2_alpha(K: int, m: int) -> float:
        raw = block.get("sigma2_alpha", 1.0)
        if raw == "unit_asv":
            return sigma2_alpha_for_unit_asv(K, m, number(block["r"], "r"))
        return number(raw, "sigma2_alpha")

    def _count(name: str, least: int) -> int:
        count = int(integers(block[name], name))
        if count < least:
            raise ValidationError(f"kinship.{name} must be >= {least}, got {count}")
        return count

    try:
        if variant == "identity":
            spec = Identity(K=block["K"])
        elif variant == "cs":
            K = _count("K", 2)
            spec = CompoundSymmetry(K=K, sigma2_alpha=_sigma2_alpha(K, K), r=block["r"])
        elif variant == "block_cs":
            f, m = _count("f", 1), _count("m", 1)
            spec = BlockCompoundSymmetry(f=f, m=m, sigma2_alpha=_sigma2_alpha(f * m, m),
                                         r=block["r"])
        elif variant == "dense":
            if "csv" in block and "matrix" in block:
                raise ValidationError("kinship.matrix cannot be given with kinship.csv")
            if "csv" in block:
                if not isinstance(block["csv"], str):
                    raise ValidationError(f"kinship csv must be a path, got {block['csv']!r}")
                csv_path = _FsPath(block["csv"])
                if not csv_path.is_absolute() and config.get("_base_dir"):
                    csv_path = _FsPath(config["_base_dir"]) / csv_path
                spec = load_kinship_csv(csv_path)
            elif "matrix" in block:
                spec = DenseKinship(matrix=block["matrix"])
            else:
                raise ValidationError("dense kinship needs a 'csv' path or a 'matrix'")
            jitter = block.get("jitter", 0.0)
            if jitter == "auto":        # relative to the matrix's mean diagonal
                jitter = _AUTO_JITTER_REL * float(np.mean(np.diag(spec.matrix)))
            if number(jitter, "kinship.jitter"):
                spec = dataclasses.replace(spec, jitter=jitter)
        else:
            raise ValidationError(
                f"unknown kinship variant {variant!r}; "
                "expected identity, cs, block_cs or dense"
            )
    except KeyError as exc:
        raise ValidationError(f"kinship block is missing the {exc.args[0]!r} field")
    return spec


def _build_criterion(config: dict) -> CriterionSpec:
    block = config.get("criterion", {})
    try:
        return CriterionSpec(target=block.get("target", "effects"),
                             weighting=block.get("weighting", "standard"))
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
    return ConstraintSet(J=J, P=P,
                         min_per_region=block.get("min_per_region", 1),
                         max_per_region=block.get("max_per_region"),
                         costs=block.get("costs"),
                         budget=block.get("budget"))


def _build_problem(config: dict) -> DesignProblem:
    return DesignProblem(vc=_build_variance(config),
                         profile=_build_profile(config),
                         kinship=_build_kinship(config),
                         criterion=_build_criterion(config))


def _parse_design(raw, P: int, default_J=None, field: str = "design") -> Design:
    """Accept counts as a bare list, or exactly one of {'counts': ...} /
    {'weights': ...}, with an optional 'J' that counts must sum to."""
    if isinstance(raw, list):
        raw = {"counts": raw}
    if not isinstance(raw, dict):
        raise ValidationError(f"'{field}' must be a list of counts or an object")
    if "counts" in raw and "weights" in raw:
        raise ValidationError(f"{field}.weights cannot be given with {field}.counts")
    J = int(integers(raw["J"], f"{field}.J")) if "J" in raw else None
    if J is not None and J < 1:
        raise ValidationError(f"{field}.J must be >= 1, got {J}")
    if "counts" in raw:
        counts = finite(raw["counts"], field)
        if counts.shape != (P,):
            raise ValidationError(
                f"'{field}' has {counts.size} entries but the problem has {P} sub-regions"
            )
        counts = integers(raw["counts"], field, P)
        if np.any(counts < 0):
            raise ValidationError(f"{field} counts must be non-negative, got {raw['counts']!r}")
        # counts of at most 2**53 each can still sum beyond it
        integers(int(counts.sum()), f"the sum of the {field} counts")
        design = Design.exact(counts)
        if J is not None and design.J != J:
            raise ValidationError(f"{field}.J is {J} but the counts sum to {design.J}")
        if default_J is not None and design.J != default_J:
            raise ValidationError(
                f"'{field}' counts sum to {design.J} but the config sets J={default_J}"
            )
        return design
    if "weights" not in raw:
        raise ValidationError(f"'{field}' needs either 'counts' or 'weights'")
    J = default_J if J is None else J
    if J is None:
        raise ValidationError(f"'{field}' gives weights, so a total size J is needed")
    weights = finite(raw["weights"], f"{field}.weights")
    if weights.shape != (P,):
        raise ValidationError(
            f"'{field}' has {weights.size} weights but the problem has {P} sub-regions"
        )
    return Design.approximate(weights, J)


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


def _emit(reports: list, pretty: bool, render) -> None:
    """Print one report as an object or several as a list, and render each."""
    payload = reports[0] if len(reports) == 1 else reports
    try:
        text = json.dumps(payload, default=_json_default, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"report holds a non-finite number ({exc})") from None
    sys.stdout.write(text + "\n")
    if pretty:
        for report in reports:
            render(report)
        sys.stderr.flush()


# ---------------------------------------------------------------------------
# Pretty rendering (stderr)


def _label(report: dict) -> str:
    return f"  [{report['label']}]" if report.get("label") else ""


def _render_design_table(report: dict) -> None:
    err = sys.stderr
    label = _label(report)
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
    for key in ("optimality_gap", "status", "iterations", "lower_bound", "certified",
                "nodes", "cost"):
        if report.get(key) is not None:
            err.write(f"  {key:<10}: {report[key]}\n")
    err.write("\n")


def _render_efficiency(report: dict) -> None:
    err = sys.stderr
    err.write(f"efficiency: {report['efficiency']:.6f}{_label(report)}\n")
    for key in ("reference", "alternative"):
        block = report[key]
        counts = block["design"]["counts"]
        shown = counts if counts else [round(w, 4) for w in block["design"]["weights"]]
        err.write(f"  {key:<12} phi={block['phi']:.6f}  "
                  f"mse_trace={block['mse_trace']:.4f}  design={shown}\n")


# ---------------------------------------------------------------------------
# Subcommands


def _eval_rows(problem: DesignProblem, config: dict, args):
    """One row per network size: the config's design evaluated on its J grid,
    or at its own J when it names one."""
    grid = _j_grid(config) if "J" in config else [None]
    raw = _require(config, "design")
    fixed_counts = isinstance(raw, list) or (isinstance(raw, dict) and "counts" in raw)
    if fixed_counts and len(grid) > 1:
        raise ValidationError("a counts design fixes J; use weights with a J grid")
    design = _parse_design(raw, problem.P, default_J=grid[0])
    js = [design.J] * len(grid) if fixed_counts or "J" in raw else grid
    shown = _design_payload(design)
    criterion = _criterion_payload(problem)
    for J, value in zip(js, problem.values(design, js)):
        yield {"J": J, "criterion": criterion, "design": dict(shown, J=J),
               "phi": value.phi, "mse_trace": value.mse_trace,
               "gradient": [float(g) for g in value.gradient]}


def _design_rows(problem: DesignProblem, config: dict, args):
    """One optimal design per network size of the J grid."""
    tol = positive(config.get("solver", {}).get("tol", 1e-9), "solver.tol")
    solve = solve_exact if args.mode == "exact" else solve_approximate
    for J in _j_grid(config):
        constraints = _build_constraints(config, J, problem.P)
        report = solve(problem, constraints, tol=tol)
        row = {
            "mode": args.mode,
            "J": J,
            "criterion": _criterion_payload(problem),
            "design": _design_payload(report.design),
            "phi": report.phi,
            "mse_trace": report.mse_trace,
            "optimality_gap": report.optimality_gap,
            "status": report.status,
            "iterations": report.iterations,
        }
        if args.mode == "exact":
            row.update(lower_bound=report.lower_bound, certified=report.certified,
                       nodes=report.nodes)
        if constraints.costs is not None and report.design.counts is not None:
            row["cost"] = float(constraints.cost(report.design.counts))
        yield row


def _efficiency_rows(problem: DesignProblem, config: dict, args):
    """One row: the criterion-value ratio of the reference and alternative
    designs, optimizer.efficiency's ratio from one evaluation of each."""
    block = _require(config, "designs")
    grid = _j_grid(config) if "J" in config else [None]
    default_J = grid[0] if len(grid) == 1 else None
    pair = {}
    for key in _SETTINGS["designs"]:
        design = _parse_design(block.get(key), problem.P, default_J, field=f"designs.{key}")
        value = problem.value(design)
        pair[key] = {"design": _design_payload(design), "phi": value.phi,
                     "mse_trace": value.mse_trace}
    yield {"criterion": _criterion_payload(problem),
           "efficiency": pair["reference"]["phi"] / pair["alternative"]["phi"],
           **pair}


def _cmd_rows(args) -> int:
    """Build each config entry's problem, collect the rows the command's
    builder yields for it, headed by the command, a design row's mode and
    the entry's label, and emit them once."""
    reports = []
    for label, config in load_config(args.config):
        problem = _build_problem(config)
        for row in args.rows(problem, config, args):
            mode = {"mode": row.pop("mode")} if "mode" in row else {}
            reports.append({"command": args.command, **mode, "label": label, **row})
    _emit(reports, args.pretty, args.render)
    return 0


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

    def command(name, summary, rows, render):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, metavar="PATH",
                       help="JSON config file or bundled fixture name "
                            f"({', '.join(available_fixtures())})")
        p.add_argument("--pretty", action="store_true",
                       help="also print a human-readable table to stderr")
        p.set_defaults(rows=rows, render=render)
        return p

    command("eval", "evaluate the criterion for a fixed design",
            _eval_rows, _render_design_table)
    p_design = command("design", "compute an optimal design",
                       _design_rows, _render_design_table)
    p_design.add_argument("--mode", choices=("approx", "exact"), default="approx",
                          help="approximate weights or exact integer counts "
                               "(default approx)")

    command("efficiency", "criterion-value ratio of two designs",
            _efficiency_rows, _render_efficiency)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _cmd_rows(args)
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
