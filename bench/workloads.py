"""Seeded inputs and output checks for the benchmark workloads.

Every workload is a list of :class:`Input` objects.  One input is one
``trialalloc`` command line over a config file that this module generates
into a temporary directory, so the program under test sees only generated
files.  The seed decides the order of the inputs, the grid-evaluation
weights and the small kinship of the oracle cross-check; the same seed gives
the same files.

Each input carries a ``check`` that turns the parsed JSON report of one call
into one :class:`RowResult` per report row.  The references are the golden
rows of ``tests/helpers.py`` (family-block workloads), a recomputation of the
criterion (dense workload) and finiteness (grid evaluation).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

J_DESIGN = 40
J_GRID = list(range(10, 201, 5))
# Dense kinships: DENSE_COUNT matrices of size DENSE_K from fixed random
# streams; the seed orders them.  The approximate solver stalls after 18 to 36
# iterations depending on the matrix and even on its genotype labelling, so
# seeded matrices would change the work per run (see README.md).  K=80 costs
# about 20 s per approximate solve at the seed, which does not fit a run.
DENSE_K, DENSE_COUNT = 40, 6
DENSE_STREAM = 20260817
ORACLE_K, ORACLE_J = 8, 12

# Acceptance-1 tolerances of tests/test_acceptance.py.
EXACT_MSE_SLACK = 1e-3
APPROX_MSE_RTOL = 2e-3
APPROX_WEIGHT_ATOL = 0.01 + 1e-9
PHI_RECOMPUTE_RTOL = 1e-9


@dataclass
class RowResult:
    ok: bool
    reason: str = ""
    gap_rel: float | None = None
    unconverged: bool | None = None
    mse_excess: float | None = None


@dataclass
class Input:
    key: str
    argv: list
    rows: int
    check: Callable[[list, "Input"], list] = field(repr=False)


@dataclass
class Workload:
    name: str
    inputs: list
    warmup_argv: list
    extra_checks: list = field(default_factory=list)


def parse_strict(text: str):
    """Parse JSON, rejecting the non-standard NaN and Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _write(path: Path, config: dict) -> str:
    path.write_text(json.dumps(config))
    return str(path)


def _gap_fields(rep: dict, tol: float | None):
    gap, phi = rep["optimality_gap"], rep["phi"]
    gap_rel = gap / max(1.0, abs(phi))
    unconverged = None if tol is None else gap > tol * max(1.0, abs(phi))
    return gap_rel, unconverged


def _single(reports: list, key: str) -> dict:
    if len(reports) != 1:
        raise ValueError(f"{key}: expected one report row, got {len(reports)}")
    return reports[0]


def _design_rows(check_one):
    """Wrap a per-report check so that any malformed report fails its row."""
    def check(reports, inp):
        try:
            return [check_one(_single(reports, inp.key), inp)]
        except (KeyError, TypeError, ValueError) as exc:
            return [RowResult(False, f"{inp.key}: {type(exc).__name__}: {exc}")]
    return check


# ---------------------------------------------------------------------------
# family-block workloads


def _golden_index(golden_rows) -> dict:
    """Golden rows keyed by (f, m, 1/r); the fixture spells r = 1/3 to 12 digits."""
    return {(row[1], row[2], round(1 / row[0])): row for row in golden_rows}


def _fb_check(mode: str, golden: tuple, tol: float):
    _, _, _, weights, mse_a, _, mse_e, reliable = golden

    def check_one(rep, inp):
        if rep.get("command") != "design" or rep.get("mode") != mode or rep["J"] != J_DESIGN:
            return RowResult(False, f"{inp.key}: wrong report header")
        if not _finite(rep["phi"], rep["mse_trace"], rep["optimality_gap"]):
            return RowResult(False, f"{inp.key}: non-finite value")
        design = rep["design"]
        gap_rel, unconverged = _gap_fields(rep, tol if mode == "approx" else None)
        if mode == "exact":
            got = design["counts"]
            if got is None or sum(got) != J_DESIGN or min(got) < 1:
                return RowResult(False, f"{inp.key}: infeasible counts {got}")
            excess = rep["mse_trace"] / mse_e - 1.0
            ok = rep["mse_trace"] <= mse_e * (1.0 + EXACT_MSE_SLACK)
            reason = "" if ok else f"{inp.key}: exact MSE {rep['mse_trace']:.1f} > {mse_e} * 1.001"
            return RowResult(ok, reason, gap_rel, unconverged, excess)
        w = np.asarray(design["weights"], dtype=float)
        excess = rep["mse_trace"] / mse_a - 1.0
        if abs(w.sum() - 1.0) > 1e-8 or w.min() < 1.0 / J_DESIGN - 1e-12:
            return RowResult(False, f"{inp.key}: weights off the feasible set", gap_rel,
                             unconverged, excess)
        if abs(rep["mse_trace"] - mse_a) > APPROX_MSE_RTOL * mse_a:
            return RowResult(False, f"{inp.key}: approximate MSE {rep['mse_trace']:.1f} "
                             f"vs golden {mse_a}", gap_rel, unconverged, excess)
        if reliable and np.abs(w - np.asarray(weights)).max() > APPROX_WEIGHT_ATOL:
            return RowResult(False, f"{inp.key}: weights off golden by more than 0.01",
                             gap_rel, unconverged, excess)
        return RowResult(True, "", gap_rel, unconverged, excess)

    return _design_rows(check_one)


def _family_block_inputs(root: Path, workdir: Path, rng, mode: str, helpers) -> list:
    fixture = json.loads((root / "src/trialalloc/data/maize_family_blocks.json").read_text())
    batch = fixture.pop("batch")
    golden = _golden_index(helpers.GOLDEN_ROWS)
    tol = float(fixture["solver"]["tol"])
    inputs = []
    for i in rng.permutation(len(batch)):
        entry = batch[int(i)]
        kin = entry["kinship"]
        row = golden[(kin["f"], kin["m"], round(1 / kin["r"]))]
        path = _write(workdir / f"fb_{i:02d}.json", dict(fixture, batch=[entry]))
        inputs.append(Input(key=entry["label"],
                            argv=["design", "--config", path, "--mode", mode],
                            rows=1, check=_fb_check(mode, row, tol)))
    return inputs


# ---------------------------------------------------------------------------
# dense kinship workload


def dense_kinship(rng, K: int) -> np.ndarray:
    """A dense SPD kinship g gᵀ/(3K) + 0.3 I, as generated in the tests."""
    g = rng.normal(size=(K, 3 * K))
    return g @ g.T / (3 * K) + 0.3 * np.eye(K)


def _network_parts(root: Path):
    network = json.loads((root / "src/trialalloc/data/maize_network.json").read_text())
    base = {k: network[k] for k in ("variance", "model_variant", "subregions",
                                    "constraints", "criterion", "solver")}
    return network, base


def _maize_problem_parts(base: dict):
    from trialalloc import SubRegionProfile, VarianceComponents
    variant = base["model_variant"]
    vc = VarianceComponents(model_variant=variant, **base["variance"][variant])
    sub = base["subregions"]
    return vc, SubRegionProfile(V=sub["V"], ell=sub["ell"])


def _dense_check(matrix: np.ndarray, base: dict, tol: float):
    def check_one(rep, inp):
        from trialalloc import DenseKinship, Design, DesignProblem
        if rep.get("command") != "design" or rep["J"] != J_DESIGN:
            return RowResult(False, f"{inp.key}: wrong report header")
        if rep["criterion"]["path_used"] != "full":
            return RowResult(False, f"{inp.key}: path {rep['criterion']['path_used']}")
        if not _finite(rep["phi"], rep["mse_trace"], rep["optimality_gap"]):
            return RowResult(False, f"{inp.key}: non-finite value")
        gap_rel, unconverged = _gap_fields(rep, tol)
        w = np.asarray(rep["design"]["weights"], dtype=float)
        if abs(w.sum() - 1.0) > 1e-8 or w.min() < 1.0 / J_DESIGN - 1e-12:
            return RowResult(False, f"{inp.key}: weights off the feasible set",
                             gap_rel, unconverged)
        vc, profile = _maize_problem_parts(base)
        problem = DesignProblem(vc, profile, DenseKinship(matrix=matrix))
        phi = problem.phi(Design.approximate(w, J_DESIGN))
        if abs(phi - rep["phi"]) > PHI_RECOMPUTE_RTOL * max(1.0, abs(phi)):
            return RowResult(False, f"{inp.key}: reported phi {rep['phi']!r} but the "
                             f"weights give {phi!r}", gap_rel, unconverged)
        return RowResult(True, "", gap_rel, unconverged)

    return _design_rows(check_one)


def _oracle_check(rng, base: dict):
    """Cross-check the full path against the brute-force oracle on a small K."""
    matrix = dense_kinship(rng, ORACLE_K)
    P = len(base["subregions"]["V"])
    counts = 1 + rng.multinomial(ORACLE_J - P, np.full(P, 1.0 / P))

    def check() -> RowResult:
        from trialalloc import DenseKinship, Design, DesignProblem, oracle
        vc, profile = _maize_problem_parts(base)
        kinship = DenseKinship(matrix=matrix)
        mine = DesignProblem(vc, profile, kinship).mse_trace(Design.exact(counts))
        inst = oracle.OracleInstance(vc=vc, profile=profile, kinship=kinship,
                                     counts=tuple(int(c) for c in counts))
        direct = float(np.trace(oracle.mse_direct(inst)))
        ok = abs(mine - direct) <= 1e-9 * abs(direct)
        return RowResult(ok, "" if ok else f"oracle K={ORACLE_K}: mse_trace {mine!r} "
                         f"vs direct {direct!r}")

    return check


def _dense_inputs(root: Path, workdir: Path, rng):
    _, base = _network_parts(root)
    tol = float(base["solver"]["tol"])
    inputs = []
    for i in rng.permutation(DENSE_COUNT):
        matrix = dense_kinship(np.random.default_rng([DENSE_STREAM, int(i)]), DENSE_K)
        csv = workdir / f"dense_{i}.csv"
        csv.write_text("\n".join(",".join(repr(float(x)) for x in row) for row in matrix))
        config = dict(base, kinship={"variant": "dense", "csv": csv.name}, J=J_DESIGN)
        path = _write(workdir / f"dense_{i}.json", config)
        inputs.append(Input(key=f"K={DENSE_K} #{i}",
                            argv=["design", "--config", path, "--mode", "approx"],
                            rows=1, check=_dense_check(matrix, base, tol)))
    return inputs, [_oracle_check(rng, base)]


# ---------------------------------------------------------------------------
# grid evaluation workload


def _grid_check(weights: list):
    def check(reports, inp):
        if len(reports) != len(J_GRID):
            return [RowResult(False, f"{inp.key}: {len(reports)} rows for "
                              f"{len(J_GRID)} J values")] * inp.rows
        out = []
        for rep, J in zip(reports, J_GRID):
            try:
                ok = (rep["command"] == "eval" and rep["J"] == J
                      and np.allclose(rep["design"]["weights"], weights, rtol=0, atol=1e-12)
                      and _finite(rep["phi"], rep["mse_trace"], *rep["gradient"])
                      and rep["mse_trace"] > 0 and len(rep["gradient"]) == len(weights))
            except (KeyError, TypeError):
                ok = False
            out.append(RowResult(ok, "" if ok else f"{inp.key} J={J}: bad evaluation row"))
        return out
    return check


def _grid_inputs(root: Path, workdir: Path, rng) -> list:
    network, base = _network_parts(root)
    fixture = json.loads((root / "src/trialalloc/data/maize_family_blocks.json").read_text())
    P = len(base["subregions"]["V"])
    # (key, kinship block): identity K=31 first, then the 30 family-block rows
    kinships = [("identity K=31", network["kinship"])]
    kinships += [(entry["label"], dict(fixture["kinship"], **entry["kinship"]))
                 for entry in fixture["batch"]]
    inputs = []
    for i in rng.permutation(len(kinships)):
        key, kinship = kinships[int(i)]
        weights = [float(w) for w in rng.dirichlet(np.full(P, 4.0))]
        config = dict(base, kinship=kinship, J=J_GRID, design={"weights": weights})
        path = _write(workdir / f"grid_{i:02d}.json", config)
        inputs.append(Input(key=key, argv=["eval", "--config", path],
                            rows=len(J_GRID), check=_grid_check(weights)))
    return inputs


# ---------------------------------------------------------------------------


def _warmup_argv(inp: Input, workdir: Path) -> list:
    """An ``eval`` of uniform weights on the input's config: every layer but the solver."""
    config = json.loads(Path(inp.argv[2]).read_text())
    P = len(config["subregions"]["V"])
    config.update(J=J_DESIGN, design={"weights": [1.0 / P] * P})
    if "batch" in config:
        config["batch"] = config["batch"][:1]
    return ["eval", "--config", _write(workdir / "warmup.json", config)]


def build(name: str, seed: int, root: Path, workdir: Path, helpers) -> Workload:
    """Generate the inputs of workload ``name`` for ``seed`` into ``workdir``."""
    rng = np.random.default_rng(seed)
    extra = []
    if name in ("fb_exact", "fb_approx"):
        inputs = _family_block_inputs(root, workdir, rng, name[3:], helpers)
    elif name == "dense_approx":
        inputs, extra = _dense_inputs(root, workdir, rng)
    elif name == "grid_eval":
        inputs = _grid_inputs(root, workdir, rng)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, inputs, _warmup_argv(inputs[0], workdir), extra)
