"""Acceptance gate for the allocation library.

Eight end-to-end criteria, one test each.  Every test prints exactly one
PASS/FAIL line on the real stdout (bypassing pytest capture) so the gate is
auditable from a plain ``pytest -v`` transcript, then asserts.
"""
from __future__ import annotations

import json
import time

import numpy as np
import pytest

import helpers
from trialalloc import (ConstraintSet, CriterionSpec, Design, DesignProblem,
                        Identity, efficiency, solve_exact)
from trialalloc.cli import main
from trialalloc.oracle import (OracleInstance, enumerate_exact_optimum,
                               finite_difference_gradient, mse_direct,
                               mse_direct_contrasts, reduction_constants)


def _report(capsys, num: int, name: str, failures: list, detail: str) -> None:
    status = "FAIL" if failures else "PASS"
    note = failures[0] if failures else detail
    line = f"ACCEPTANCE {num} ({name}): {status} — {note}"
    with capsys.disabled():
        print("\n" + line, flush=True)
    assert not failures, line + (f" (+{len(failures) - 1} more)"
                                 if len(failures) > 1 else "")


def _row_label(r: float, f: int, m: int) -> str:
    return f"K={f * m} r=1/{round(1 / r)} f={f} m={m}"


def _run_cli_design(capsys, mode: str) -> list[dict]:
    code = main(["design", "--config", "maize_family_blocks", "--mode", mode])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_01_golden_family_block_designs(capsys):
    vc, profile = helpers.maize_vc(), helpers.maize_profile()
    failures = []

    # the printed exact designs reproduce their MSE values
    for r, f, m, _, _, counts, mse_e, _ in helpers.GOLDEN_ROWS:
        kin = helpers.family_block_kinship(r, f, m)
        mse = DesignProblem(vc, profile, kin).mse_trace(Design.exact(np.array(counts)))
        if abs(mse - mse_e) > 1e-3 * mse_e:
            failures.append(f"{_row_label(r, f, m)}: printed design gives "
                            f"{mse:.1f}, table says {mse_e}")

    # the exact solver does at least as well as every printed design
    t0 = time.perf_counter()
    exact = {rep["label"]: rep for rep in _run_cli_design(capsys, "exact")}
    t_exact = time.perf_counter() - t0
    for r, f, m, _, _, _, mse_e, _ in helpers.GOLDEN_ROWS:
        rep = exact[_row_label(r, f, m)]
        if rep["mse_trace"] > mse_e * 1.001:
            failures.append(f"{_row_label(r, f, m)}: exact solve "
                            f"{rep['mse_trace']:.1f} > {mse_e} * 1.001")
        if not (rep["certified"] and rep["phi"] - rep["lower_bound"] <= 1e-12 * rep["phi"]):
            failures.append(f"{_row_label(r, f, m)}: exact design not certified to 1e-12")

    # approximate mode reproduces the printed weights and MSE values
    t0 = time.perf_counter()
    approx = {rep["label"]: rep for rep in _run_cli_design(capsys, "approx")}
    t_approx = time.perf_counter() - t0
    for r, f, m, weights, mse_a, _, _, reliable in helpers.GOLDEN_ROWS:
        rep = approx[_row_label(r, f, m)]
        if abs(rep["mse_trace"] - mse_a) > 2e-3 * mse_a:
            failures.append(f"{_row_label(r, f, m)}: approximate optimum "
                            f"{rep['mse_trace']:.1f} vs printed {mse_a}")
        if not reliable:
            continue
        gap = np.abs(np.array(rep["design"]["weights"]) - np.array(weights))
        if gap.max() > 0.01 + 1e-9:
            failures.append(f"{_row_label(r, f, m)}: weight off by "
                            f"{gap.max():.4f} > 0.01")

    per_row = max(t_exact, t_approx) / len(helpers.GOLDEN_ROWS)
    if per_row > 5.0:
        failures.append(f"slowest mode averaged {per_row:.2f} s per row")
    _report(capsys, 1, "golden-family-block-designs", failures,
            f"30/30 rows; exact {t_exact:.1f} s, approximate {t_approx:.1f} s")


def test_02_identity_kinship_allocation_pattern(capsys):
    vc, profile = helpers.maize_vc(), helpers.maize_profile()
    kin = Identity(K=31)
    failures = []
    for J in (20, 40, 100):
        counts = {}
        for weighting in ("standard", "weighted"):
            problem = DesignProblem(vc, profile, kin,
                                    CriterionSpec(weighting=weighting))
            report = solve_exact(problem, ConstraintSet(J=J, P=5))
            counts[weighting] = np.asarray(report.design.counts)
            frozen = helpers.IDENTITY_OPTIMA[(weighting, J)]
            if tuple(report.design.counts) != frozen:
                failures.append(f"J={J} {weighting}: got "
                                f"{tuple(report.design.counts)}, expected "
                                f"{frozen}")
        std, wtd = counts["standard"], counts["weighted"]
        # standard criterion: most trials go where genetic variance is largest
        if min(std[0], std[3]) < max(std[1], std[2], std[4]):
            failures.append(f"J={J}: standard counts {std} do not favour "
                            "sub-regions 1 and 4")
        # weighting by sub-region size moves trials toward regions 1, 4, 5
        gains = wtd[[0, 3, 4]] - std[[0, 3, 4]]
        losses = wtd[[1, 2]] - std[[1, 2]]
        if gains.min() < 0 or losses.max() > 0 or gains.sum() <= 0:
            failures.append(f"J={J}: weighted counts {wtd} do not shift "
                            f"mass toward regions 1, 4, 5 from {std}")
    _report(capsys, 2, "identity-kinship-allocation-pattern", failures,
            "ordering predicates and frozen optima hold for J in {20, 40, 100}")


def test_03_affine_equivalence_of_reduced_criteria(capsys):
    rng = np.random.default_rng(20260817)
    failures = []
    t0 = time.perf_counter()
    for i in range(100):
        kind = "cs" if i < 50 else "block"
        target = ("effects", "contrasts")[i % 2]
        weighting = ("standard", "weighted")[(i // 2) % 2]
        P = int(rng.integers(2, 5))
        vc = helpers.random_vc(rng)
        profile = helpers.random_profile(rng, P)
        kin = helpers.random_kinship(rng, kind, K=int(rng.integers(4, 13)))
        J = int(rng.integers(P + 1, 13))
        counts = helpers.random_counts(rng, P, J)
        design = Design.exact(counts)
        inst = OracleInstance(vc=vc, profile=profile, kinship=kin,
                              counts=tuple(int(c) for c in counts))

        full = DesignProblem(vc, profile, helpers.dense(kin),
                             CriterionSpec(target=target, weighting=weighting)).phi(design)
        reduced = DesignProblem(vc, profile, kin,
                                CriterionSpec(weighting=weighting)).phi(design)
        if kind == "cs":
            scale = kin.a1 ** 2 * (kin.K - 1)
            which = f"cs_{target}"
        else:
            scale = 1.0
            which = f"block_{target}"
        const = reduction_constants(inst, which, weighting=weighting)
        err = abs(full - (scale * reduced + const))
        if err > 1e-8 * abs(full):
            failures.append(f"instance {i} ({kind}, {target}, {weighting}): "
                            f"|full - (scale*reduced + const)| = {err:.3e} "
                            f"vs phi = {full:.3e}")
    elapsed = time.perf_counter() - t0
    if elapsed > 30.0:
        failures.append(f"suite took {elapsed:.1f} s > 30 s")
    _report(capsys, 3, "affine-equivalence-of-reduced-criteria", failures,
            f"100/100 instances within 1e-8 relative in {elapsed:.1f} s")


def test_04_argmin_transfer(capsys):
    rng = np.random.default_rng(41)
    failures = []
    t0 = time.perf_counter()
    P = 3
    vc = helpers.random_vc(rng)
    profile = helpers.random_profile(rng, P)
    for kind in ("cs", "block"):
        kin = helpers.random_kinship(rng, kind, K=6)
        reduced = DesignProblem(vc, profile, kin)
        full_eff = DesignProblem(vc, profile, helpers.dense(kin))
        full_con = DesignProblem(vc, profile, helpers.dense(kin),
                                 CriterionSpec(target="contrasts"))
        for J in (6, 7, 8):
            cons = ConstraintSet(J=J, P=P)
            best = {label: tuple(enumerate_exact_optimum(problem, cons).counts)
                    for label, problem in (("reduced", reduced),
                                           ("effects", full_eff),
                                           ("contrasts", full_con))}
            if best["reduced"] != best["effects"]:
                failures.append(f"{kind} J={J}: reduced argmin "
                                f"{best['reduced']} != full effects argmin "
                                f"{best['effects']}")
            if kind == "cs" and best["effects"] != best["contrasts"]:
                failures.append(f"cs J={J}: effects argmin {best['effects']} "
                                f"!= contrasts argmin {best['contrasts']}")
    elapsed = time.perf_counter() - t0
    if elapsed > 60.0:
        failures.append(f"suite took {elapsed:.1f} s > 60 s")
    _report(capsys, 4, "argmin-transfer", failures,
            f"exhaustive P=3, J<=8 argmins coincide in {elapsed:.1f} s")


def test_05_direct_assembly_agreement(capsys):
    rng = np.random.default_rng(52)
    failures = []
    kinds = ("identity", "cs", "block", "dense")
    for i in range(100):
        P = int(rng.integers(2, 5))
        K = int(rng.integers(3, 9))
        vc = helpers.random_vc(rng)
        profile = helpers.random_profile(rng, P)
        kin = helpers.random_kinship(rng, kinds[i % 4], K=K)
        J = int(rng.integers(P + 1, 13))
        counts = helpers.random_counts(rng, P, J)
        inst = OracleInstance(vc=vc, profile=profile, kinship=kin,
                              counts=tuple(int(c) for c in counts))
        problem = DesignProblem(vc, profile, kin)
        design = Design.exact(counts)

        mse = mse_direct(inst)
        mine = problem.mse_trace(design)
        if abs(mine - np.trace(mse)) > 1e-9 * np.trace(mse):
            failures.append(f"instance {i}: main-path trace {mine:.6e} vs "
                            f"direct assembly {np.trace(mse):.6e}")

        # pairwise-contrast trace identity, unweighted and weighted
        mse_pairs = mse_direct_contrasts(inst)
        k = inst.K
        t_mat = np.eye(k) - np.ones((k, k)) / k
        n_pairs = k * (k - 1) // 2
        for lw in (np.eye(P), np.diag(profile.ell)):
            lhs = np.trace(mse_pairs @ np.kron(np.eye(n_pairs), lw))
            rhs = k * np.trace(mse @ np.kron(t_mat, lw))
            if abs(lhs - rhs) > 1e-10 * abs(rhs):
                failures.append(f"instance {i}: contrast trace {lhs:.6e} vs "
                                f"K * centered trace {rhs:.6e}")
    _report(capsys, 5, "direct-assembly-agreement", failures,
            "100/100 instances at 1e-9 (trace) and 1e-10 (contrast identity)")


def test_06_gradient_finite_difference(capsys):
    rng = np.random.default_rng(63)
    failures = []
    kinds = ("identity", "cs", "block", "dense")
    for i in range(20):
        P = 3
        vc = helpers.random_vc(rng)
        profile = helpers.random_profile(rng, P)
        kin = helpers.random_kinship(rng, kinds[i % 4], K=int(rng.integers(4, 7)))
        w = rng.uniform(0.15, 1.0, size=P)
        w /= w.sum()
        for target in ("effects", "contrasts"):
            for weighting in ("standard", "weighted"):
                problem = DesignProblem(
                    vc, profile, helpers.dense(kin),
                    CriterionSpec(target=target, weighting=weighting))
                ev = problem.evaluator(10)
                grad = problem.gradient(Design.approximate(w, 10))
                fd = finite_difference_gradient(ev.phi, w)
                rel = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
                if rel > 1e-5:
                    failures.append(f"design {i} ({target}, {weighting}): "
                                    f"gradient off by {rel:.2e} relative")
    _report(capsys, 6, "gradient-finite-difference", failures,
            "80 gradient checks (20 designs x 4 criteria) within 1e-5")


def test_07_exact_solver_enumeration_parity(capsys):
    rng = np.random.default_rng(74)
    failures = []
    for i in range(25):
        P = int(rng.integers(3, 5))
        J = int(rng.integers(P + 3, 13))
        vc = helpers.random_vc(rng)
        profile = helpers.random_profile(rng, P)
        kin = helpers.random_kinship(rng, ("identity", "cs", "block", "dense")[i % 4],
                                     K=int(rng.integers(3, 8)))
        style = i % 3
        if style == 0:
            cons = ConstraintSet(J=J, P=P)
        elif style == 1:
            cons = ConstraintSet(J=J, P=P, min_per_region=1,
                                 max_per_region=max(2, (J + 1) // 2))
        else:
            costs = rng.uniform(1.0, 10.0, size=P)
            cheapest = costs.sum() + (J - P) * costs.min()
            cons = ConstraintSet(J=J, P=P, costs=costs,
                                 budget=float(cheapest * 1.3))
        problem = DesignProblem(vc, profile, kin)
        brute = enumerate_exact_optimum(problem, cons)
        report = solve_exact(problem, cons)
        if tuple(report.design.counts) != tuple(brute.counts):
            failures.append(f"instance {i} (style {style}): solver "
                            f"{tuple(report.design.counts)} vs enumeration "
                            f"{tuple(brute.counts)}")
        if not cons.satisfies(np.asarray(report.design.counts)):
            failures.append(f"instance {i}: returned design violates "
                            "its constraints")
        if not report.certified:
            failures.append(f"instance {i}: the search did not certify its design")
    _report(capsys, 7, "exact-solver-enumeration-parity", failures,
            "25/25 instances match exhaustive enumeration exactly, each certified")


def test_08_efficiency_and_determinism(capsys):
    vc, profile = helpers.maize_vc(), helpers.maize_profile()
    kin = Identity(K=31)
    problem = DesignProblem(vc, profile, kin)
    failures = []
    J = 20
    free = solve_exact(problem, ConstraintSet(J=J, P=5)).design
    if efficiency(free, free, problem) != pytest.approx(1.0, rel=1e-12):
        failures.append("efficiency of a design against itself is not 1")

    tighter = (
        ConstraintSet(J=J, P=5, min_per_region=2),
        ConstraintSet(J=J, P=5, min_per_region=2, max_per_region=5),
        ConstraintSet(J=J, P=5, min_per_region=2,
                      costs=np.array([40.0, 44.0, 50.0, 65.0, 60.0]),
                      budget=50.0 * J),
        ConstraintSet(J=J, P=5, min_per_region=1,
                      max_per_region=(J + 2) // 3,
                      costs=np.array([40.0, 44.0, 50.0, 55.0, 60.0]),
                      budget=50.0 * J),
    )
    for idx, cons in enumerate(tighter):
        constrained = solve_exact(problem, cons).design
        eff = efficiency(free, constrained, problem)
        if not 0.0 < eff <= 1.0 + 1e-12:
            failures.append(f"constraint set {idx}: efficiency {eff:.6f} "
                            "outside (0, 1]")

    first = solve_exact(problem, ConstraintSet(J=40, P=5))
    again = solve_exact(DesignProblem(vc, profile, kin), ConstraintSet(J=40, P=5))
    for field in ("phi", "mse_trace", "optimality_gap", "iterations", "status",
                  "lower_bound", "certified", "nodes"):
        if getattr(first, field) != getattr(again, field):
            failures.append(f"repeated run changes report field {field!r}")
    if tuple(first.design.counts) != tuple(again.design.counts):
        failures.append("repeated run changes the returned design")
    _report(capsys, 8, "efficiency-and-determinism", failures,
            "efficiency in (0, 1] on 4 constraint sets; reports identical "
            "across two repeated runs")
