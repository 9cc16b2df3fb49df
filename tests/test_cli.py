from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import helpers
from trialalloc import (Design, DesignProblem, Identity, ValidationError,
                        efficiency)
from trialalloc import _linalg, cli
from trialalloc._linalg import spd_factor
from trialalloc.cli import main
from trialalloc.fixtures import available_fixtures, fixture_path, load_fixture


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


@pytest.fixture()
def network_config():
    config = load_fixture("maize_network")
    config.pop("_base_dir", None)
    return config


class TestFixtures:
    def test_bundled_names(self):
        names = available_fixtures()
        assert "maize_network" in names
        assert "maize_family_blocks" in names

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError, match="unknown fixture"):
            fixture_path("no_such_thing")

    def test_parser_is_built_once_per_process(self, capsys):
        run_cli(capsys, "eval", "--config", "maize_network")
        assert cli._build_parser() is cli._build_parser()

    def test_fixture_carries_both_variants(self):
        config = load_fixture("maize_network")
        assert set(config["variance"]) == {"cross_classified", "nested"}


class TestEval:
    def test_fixture_design(self, capsys):
        code, payload, _ = run_cli(capsys, "eval", "--config", "maize_network")
        assert code == 0
        assert payload["design"]["counts"] == [13, 6, 8, 12, 1]
        assert payload["criterion"]["path_used"] == "bayes_cs"
        assert payload["mse_trace"] > 0

    def test_reference_family_block_value(self, tmp_path, capsys):
        config = load_fixture("maize_family_blocks")
        config.pop("batch")
        config.pop("_base_dir", None)
        code, payload, _ = run_cli(
            capsys, "eval", "--config", write_config(tmp_path, config))
        assert code == 0
        assert payload["mse_trace"] == pytest.approx(8752, rel=1e-3)

    def test_symmetric_problem_has_balanced_gradient(self, tmp_path, capsys):
        config = {
            "variance": {"sigma2_omega": 31.0, "sigma2_tau": 18.0,
                         "sigma2_gamma": 160.0,
                         "sigma2_phi_plus_err_over_L": 333.0, "H": 3},
            "subregions": {"V": [[5.0, 1.0], [1.0, 5.0]]},
            "kinship": {"variant": "identity", "K": 4},
            "J": 10,
            "design": [5, 5],
        }
        code, payload, _ = run_cli(
            capsys, "eval", "--config", write_config(tmp_path, config))
        assert code == 0
        g = payload["gradient"]
        assert g[0] == pytest.approx(g[1], rel=1e-10)

    def test_wrong_sum_design_is_a_validation_error(self, tmp_path, capsys,
                                                    network_config):
        network_config["design"] = [13, 6, 8, 12, 2]
        code, payload, err = run_cli(
            capsys, "eval", "--config", write_config(tmp_path, network_config))
        assert code == 2
        assert "sum" in err

    @pytest.mark.parametrize("top_j, design, field", [
        (None, {"weights": [0.2] * 5, "J": 12.7}, "design.J"),
        (None, {"weights": [0.2] * 5, "J": True}, "design.J"),
        (40, {"weights": [0.2] * 5, "J": 0}, "design.J"),
        (12.7, {"weights": [0.2] * 5}, "J"),
        (True, {"weights": [0.2] * 5}, "J"),
        ([10, True], {"weights": [0.2] * 5}, "J"),
        (40, {"weights": [0.2, 0.2, 0.2, 0.2, True]}, "design.weights"),
        ("40", {"weights": [0.2] * 5}, "J"),
        (["10", 20], {"weights": [0.2] * 5}, "J"),
        (None, [[13, 6], [8, 12, 1]], "design"),
    ])
    def test_non_integral_or_boolean_j_exits_2(self, tmp_path, capsys, network_config,
                                               top_j, design, field):
        network_config.pop("J")
        if top_j is not None:
            network_config["J"] = top_j
        network_config["design"] = design
        code, payload, err = run_cli(
            capsys, "eval", "--config", write_config(tmp_path, network_config))
        assert code == 2 and payload is None
        assert f"error: {field} " in err

    def test_j_grid_is_one_batched_evaluation(self, tmp_path, capsys, monkeypatch,
                                              network_config):
        grid = list(range(10, 201, 5))
        network_config["J"] = grid
        network_config["design"] = {"weights": [0.3, 0.1, 0.2, 0.3, 0.1]}
        factored = []

        def recording(a, what="matrix"):
            factored.append((what, np.shape(a)))
            return spd_factor(a, what)

        monkeypatch.setattr(_linalg, "spd_factor", recording)
        code, payload, _ = run_cli(
            capsys, "eval", "--config", write_config(tmp_path, network_config))
        assert code == 0 and [r["J"] for r in payload] == grid
        # the J = 1 inner matrices once, then all 39 criterion stacks at once
        assert factored == [("criterion inner matrix", (1, 5, 5)),
                            ("criterion system", (len(grid), 1, 5, 5))]
        problem = cli._build_problem(network_config)
        for row in payload:
            want = problem.value(Design.approximate(row["design"]["weights"], row["J"]))
            assert row["phi"] == pytest.approx(want.phi, rel=1e-12)
            assert row["mse_trace"] == pytest.approx(want.mse_trace, rel=1e-12)
            np.testing.assert_allclose(row["gradient"], want.gradient, rtol=1e-12)

    def test_a_design_with_its_own_j_ignores_the_grid(self, tmp_path, capsys,
                                                      network_config):
        network_config["J"] = [10, 20]
        network_config["design"] = {"weights": [0.2] * 5, "J": 30}
        code, payload, _ = run_cli(
            capsys, "eval", "--config", write_config(tmp_path, network_config))
        assert code == 0
        assert [(r["J"], r["design"]["J"]) for r in payload] == [(30, 30)] * 2
        assert payload[0]["phi"] == payload[1]["phi"]

    def test_batch_labels_preserved(self, capsys):
        code, payload, _ = run_cli(capsys, "eval", "--config",
                                   "maize_family_blocks")
        assert code == 0
        assert len(payload) == 30
        assert payload[0]["label"] == "K=30 r=1/2 f=6 m=5"
        assert payload[-1]["label"] == "K=900 r=1/4 f=60 m=15"


class TestDesign:
    def test_exact_on_identity_network(self, capsys):
        code, payload, _ = run_cli(capsys, "design", "--config",
                                   "maize_network", "--mode", "exact")
        assert code == 0
        assert payload["design"]["counts"] == [13, 6, 8, 12, 1]
        assert payload["optimality_gap"] >= 0
        assert payload["status"] in ("converged", "max_iter", "stalled")

    def test_exact_rows_say_which_start_won(self, capsys):
        code, exact, _ = run_cli(capsys, "design", "--config", "maize_network",
                                 "--mode", "exact", "--restarts", "6")
        assert code == 0
        assert 1 <= exact["starts_descended"] <= 7
        assert 0 <= exact["best_start"] <= 6
        code, approx, _ = run_cli(capsys, "design", "--config", "maize_network")
        assert code == 0
        assert "best_start" not in approx and "starts_descended" not in approx

    @pytest.mark.parametrize("constraints, field", [
        ({"min_per_region": 1.7}, "min_per_region"),
        ({"costs": [40.0, 44.0, 50.0, 65.0, 60.0], "budget": float("nan")}, "budget"),
        ({"costs": [40.0, 44.0, 50.0, 65.0, 60.0], "budget": "2000"}, "budget"),
    ])
    def test_bad_constraint_values_exit_2(self, tmp_path, capsys, network_config,
                                          constraints, field):
        network_config["constraints"] = constraints
        code, payload, err = run_cli(
            capsys, "design", "--config", write_config(tmp_path, network_config))
        assert code == 2 and payload is None
        assert field in err

    @pytest.mark.parametrize("block, value, field", [
        ("kinship", {"variant": "identity", "K": 2.5}, "K"),
        ("kinship", {"variant": "block_cs", "f": 2, "m": 3.5, "r": 0.5}, "m"),
        ("J", 40.5, "J"),
        ("model_variant", "bogus", "model_variant"),
        ("model_variant", ["nested"], "model_variant"),
        ("variance", {"sigma2_omega": 31.0, "sigma2_tau": 18.0, "sigma2_gamma": 160.0,
                      "sigma2_phi_plus_err_over_L": 333.0, "H": 3,
                      "model_variant": "bogus"}, "model_variant"),
        ("variance", {"sigma2_omega": 31.0, "sigma2_tau": 18.0, "sigma2_gamma": 160.0,
                      "sigma2_phi_plus_err_over_L": 333.0, "H": 3,
                      "model_variant": ["nested"]}, "model_variant"),
        ("variance", {"sigma2_omega": 31.0, "sigma2_tau": "18", "sigma2_gamma": 160.0,
                      "sigma2_phi_plus_err_over_L": 333.0, "H": 3}, "sigma2_tau"),
        ("kinship", {"variant": "dense", "matrix": "abc"}, "matrix"),
        ("kinship", {"variant": "dense", "matrix": [[1.0, 0.0], [0.0]]}, "matrix"),
        ("kinship", {"variant": "dense", "matrix": [["1", 0.0], [0.0, 1.0]]}, "matrix"),
        ("kinship", {"variant": "dense", "csv": 5}, "csv"),
    ])
    def test_fractional_config_values_exit_2(self, tmp_path, capsys, network_config,
                                             block, value, field):
        network_config[block] = value
        code, payload, err = run_cli(
            capsys, "design", "--config", write_config(tmp_path, network_config))
        assert code == 2 and payload is None
        assert field in err

    @pytest.mark.parametrize("solver, flags, field", [
        ({"max_iter": 2.5}, (), "solver.max_iter"),
        ({"max_iter": 0}, (), "solver.max_iter"),
        ({"max_iter": -3}, (), "solver.max_iter"),
        ({"restarts": 1.7}, (), "solver.restarts"),
        ({"seed": 3.9}, (), "solver.seed"),
        ({"tol": float("nan")}, (), "solver.tol"),
        ({"tol": -1.0}, (), "solver.tol"),
        ({}, ("--tol", "nan"), "--tol"),
        ({}, ("--tol", "0"), "--tol"),
        ({}, ("--restarts", "-1"), "--restarts"),
    ])
    @pytest.mark.parametrize("mode", ["approx", "exact"])
    def test_bad_solver_settings_exit_2(self, tmp_path, capsys, network_config,
                                       solver, flags, field, mode):
        network_config["solver"] = solver
        code, payload, err = run_cli(
            capsys, "design", "--config", write_config(tmp_path, network_config),
            "--mode", mode, *flags)
        assert code == 2 and payload is None
        assert field in err

    @pytest.mark.parametrize("path", ["bayes_cs", "kbayes", "cbrc"])
    def test_closed_form_paths_are_not_settable(self, tmp_path, capsys, network_config,
                                                path):
        network_config["criterion"]["path"] = path
        code, payload, err = run_cli(
            capsys, "eval", "--config", write_config(tmp_path, network_config))
        assert code == 2 and payload is None
        assert "criterion.path must be 'auto' or 'full'" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", ["approx", "exact"])
    def test_a_budget_met_only_by_the_cheapest_fill_solves_cleanly(
            self, tmp_path, capsys, network_config, mode):
        # J=40: the cheapest fill (36, 1, 1, 1, 1) costs exactly the budget
        costs = [1.0, 2.0, 3.0, 4.0, 5.0]
        network_config["constraints"] = {"min_per_region": 1, "costs": costs, "budget": 50}
        code, payload, err = run_cli(
            capsys, "design", "--config", write_config(tmp_path, network_config),
            "--mode", mode)
        assert code == 0 and err == ""
        weights = np.array(payload["design"]["weights"])
        assert np.dot(costs, weights) * payload["J"] <= 50 + 1e-9

    def test_exact_mode_honours_the_warm_start_settings(self, tmp_path, capsys,
                                                        network_config):
        network_config["solver"] = {"max_iter": 1}
        code, payload, _ = run_cli(
            capsys, "design", "--config", write_config(tmp_path, network_config),
            "--mode", "exact")
        assert code == 0 and payload["status"] == "max_iter"
        code, payload, _ = run_cli(capsys, "design", "--config", "maize_network",
                                   "--mode", "exact", "--tol", "0.5")
        assert code == 0 and payload["status"] == "converged"

    def test_non_finite_report_is_refused(self, capsys, monkeypatch):
        real = cli.solve_approximate

        def unbounded(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), optimality_gap=float("inf"))

        monkeypatch.setattr(cli, "solve_approximate", unbounded)
        code, payload, err = run_cli(capsys, "design", "--config", "maize_network")
        assert code == 4 and payload is None
        assert "non-finite" in err

    def test_round_trip_reproduces_phi(self, tmp_path, capsys, network_config):
        code, report, _ = run_cli(capsys, "design", "--config",
                                  "maize_network", "--mode", "approx")
        assert code == 0
        network_config["design"] = {"weights": report["design"]["weights"],
                                    "J": report["J"]}
        code, rerun, _ = run_cli(
            capsys, "eval", "--config", write_config(tmp_path, network_config))
        assert code == 0
        assert rerun["phi"] == pytest.approx(report["phi"], rel=1e-12)

    def test_j_grid_fans_out_monotonically(self, tmp_path, capsys,
                                           network_config):
        network_config.pop("design")
        network_config["J"] = [10, 20, 40, 100]
        code, payload, _ = run_cli(
            capsys, "design", "--config", write_config(tmp_path, network_config),
            "--mode", "exact")
        assert code == 0
        assert [r["J"] for r in payload] == [10, 20, 40, 100]
        traces = [r["mse_trace"] for r in payload]
        assert all(a >= b for a, b in zip(traces, traces[1:]))

    def test_cost_constrained_reports_cost(self, tmp_path, capsys,
                                           network_config):
        network_config.pop("design")
        network_config["constraints"] = {
            "min_per_region": 2,
            "costs": [40.0, 44.0, 50.0, 65.0, 60.0],
            "budget": 50.0 * 40,
        }
        code, payload, _ = run_cli(
            capsys, "design", "--config", write_config(tmp_path, network_config),
            "--mode", "exact")
        assert code == 0
        assert payload["cost"] <= 50.0 * 40 + 1e-9

    def test_infeasible_constraints_certified(self, tmp_path, capsys,
                                              network_config):
        network_config["constraints"] = {"min_per_region": 10}
        code, payload, err = run_cli(
            capsys, "design", "--config", write_config(tmp_path, network_config))
        assert code == 3
        assert payload["kind"] == "infeasible"
        assert payload["certificate"]["reason"] == "min-total-exceeds-J"
        assert "error" in payload and err

    def test_flag_overrides_win(self, capsys):
        code, a, _ = run_cli(capsys, "design", "--config", "maize_network",
                             "--mode", "exact", "--seed", "3", "--restarts", "4")
        assert code == 0
        assert a["seed"] == 3
        assert a["restarts_used"] == 4

    def test_pretty_writes_table_to_stderr(self, capsys):
        code, _, err = run_cli(capsys, "design", "--config", "maize_network",
                               "--mode", "exact", "--pretty")
        assert code == 0
        assert "MSE trace" in err
        assert "region" in err
        assert "best_start" in err and "starts_descended" in err


class TestEfficiency:
    def test_identical_designs(self, tmp_path, capsys, network_config):
        network_config["designs"] = {"a": [13, 6, 8, 12, 1],
                                     "b": [13, 6, 8, 12, 1]}
        code, payload, _ = run_cli(
            capsys, "efficiency", "--config",
            write_config(tmp_path, network_config))
        assert code == 0
        assert payload["efficiency"] == pytest.approx(1.0)

    def test_constrained_pair_and_aliases(self, tmp_path, capsys,
                                          network_config):
        network_config["designs"] = {
            "unconstrained": [13, 6, 8, 12, 1],
            "constrained": [10, 10, 10, 5, 5],
        }
        code, payload, _ = run_cli(
            capsys, "efficiency", "--config",
            write_config(tmp_path, network_config))
        assert code == 0
        assert 0.0 < payload["efficiency"] < 1.0
        # consistency with a library-side evaluation
        problem = DesignProblem(helpers.maize_vc(), helpers.maize_profile(),
                                Identity(K=31))
        expected = (problem.phi(Design.exact(np.array([13, 6, 8, 12, 1])))
                    / problem.phi(Design.exact(np.array([10, 10, 10, 5, 5]))))
        assert payload["efficiency"] == pytest.approx(expected, rel=1e-12)

    def test_each_design_is_evaluated_once(self, tmp_path, capsys, monkeypatch,
                                           network_config):
        network_config["designs"] = {"reference": [13, 6, 8, 12, 1],
                                     "alternative": [10, 10, 10, 5, 5]}
        factored = []

        def recording(a, what="matrix"):
            factored.append(what)
            return spd_factor(a, what)

        monkeypatch.setattr(_linalg, "spd_factor", recording)
        code, payload, _ = run_cli(
            capsys, "efficiency", "--config", write_config(tmp_path, network_config))
        assert code == 0
        # the J = 1 inner matrices once, then one criterion system per design
        assert factored == ["criterion inner matrix"] + ["criterion system"] * 2
        problem = cli._build_problem(network_config)
        ref, alt = (Design.exact(np.array(network_config["designs"][k]))
                    for k in ("reference", "alternative"))
        assert payload["efficiency"] == efficiency(ref, alt, problem)
        assert payload["reference"]["phi"] == problem.phi(ref)
        assert payload["alternative"]["mse_trace"] == problem.mse_trace(alt)

    def test_missing_designs_block(self, tmp_path, capsys, network_config):
        code, _, err = run_cli(
            capsys, "efficiency", "--config",
            write_config(tmp_path, network_config))
        assert code == 2
        assert "designs" in err


class TestKinshipConfig:
    def test_csv_path_resolves_relative_to_config(self, tmp_path, capsys,
                                                  network_config):
        rng = np.random.default_rng(13)
        g = rng.normal(size=(6, 18))
        np.savetxt(tmp_path / "kin.csv", g @ g.T / 18 + 0.5 * np.eye(6),
                   delimiter=",")
        network_config["kinship"] = {"variant": "dense", "csv": "kin.csv"}
        code, payload, _ = run_cli(
            capsys, "eval", "--config", write_config(tmp_path, network_config))
        assert code == 0
        assert payload["criterion"]["path_used"] == "full"

    def test_auto_jitter_rescues_singular_kinship(self, tmp_path, capsys,
                                                  network_config):
        n = np.ones((5, 5)) + np.eye(5) * 0.0   # rank one, singular
        np.savetxt(tmp_path / "kin.csv", n, delimiter=",")
        network_config["kinship"] = {"variant": "dense", "csv": "kin.csv"}
        config_path = write_config(tmp_path, network_config)
        code, _, err = run_cli(capsys, "eval", "--config", config_path)
        assert code == 2
        assert "jitter" in err
        code, payload, _ = run_cli(capsys, "eval", "--config", config_path,
                                   "--jitter", "auto")
        assert code == 0

    def test_bogus_jitter_rejected(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--config", "maize_network",
                               "--jitter", "lots")
        assert code == 2
        assert "jitter" in err

    def test_unit_asv_calibration_applied(self, tmp_path, capsys,
                                          network_config):
        network_config["kinship"] = {"variant": "block_cs", "f": 6, "m": 5,
                                     "r": 0.5, "sigma2_alpha": "unit_asv"}
        code, payload, _ = run_cli(
            capsys, "eval", "--config", write_config(tmp_path, network_config))
        assert code == 0
        # matches the library value under the same calibration
        problem = DesignProblem(helpers.maize_vc(), helpers.maize_profile(),
                                helpers.family_block_kinship(0.5, 6, 5))
        expected = problem.mse_trace(Design.exact(np.array([13, 6, 8, 12, 1])))
        assert payload["mse_trace"] == pytest.approx(expected, rel=1e-12)


class TestConfigValidation:
    def test_variance_variant_selection(self, tmp_path, capsys,
                                        network_config):
        network_config["model_variant"] = "nested"
        code, payload, _ = run_cli(
            capsys, "eval", "--config", write_config(tmp_path, network_config))
        assert code == 0
        # nested variant has a smaller effective error constant here, so the
        # scaled problem differs from the cross-classified one
        code2, cross, _ = run_cli(capsys, "eval", "--config", "maize_network")
        assert payload["mse_trace"] != pytest.approx(cross["mse_trace"])

    def test_separate_variance_fields(self, tmp_path, capsys, network_config):
        network_config["variance"] = {
            "sigma2_omega": 31.0, "sigma2_tau": 18.0, "sigma2_gamma": 160.0,
            "sigma2_phi": 300.0, "sigma2_err": 99.0, "L": 3, "H": 3,
        }
        code, payload, _ = run_cli(
            capsys, "eval", "--config", write_config(tmp_path, network_config))
        assert code == 0
        code2, fixture, _ = run_cli(capsys, "eval", "--config", "maize_network")
        assert payload["mse_trace"] == pytest.approx(fixture["mse_trace"])

    def test_missing_block_named(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--config",
            write_config(tmp_path, {"variance": {}}))
        assert code == 2

    def test_invalid_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "eval", "--config", str(path))
        assert code == 2
        assert "JSON" in err

    def test_unknown_config_name(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--config", "missing_thing")
        assert code == 2
        assert "unknown fixture" in err


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ("eval", "--config", "maize_network", "--seed", "3"),
        ("efficiency", "--config", "maize_network", "--tol", "1e-6"),
        ("eval", "--config", "maize_network", "--restarts", "4"),
        ("selftest", "--seed", "3"),
        ("selftest", "--jitter", "auto"),
    ])
    def test_flags_a_command_ignores_are_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc_info:
            main(list(argv))
        assert exc_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSelftest:
    def test_all_checks_pass(self, capsys):
        code, payload, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert payload["passed"]
        assert all(c["status"] == "pass" for c in payload["checks"])
        assert len(payload["checks"]) == 8


def test_cli_eval_leaves_scipy_optimize_unimported(tmp_path, network_config):
    network_config["designs"] = {"reference": [13, 6, 8, 12, 1],
                                 "alternative": [10, 10, 10, 5, 5]}
    script = (
        "import sys, contextlib, io\n"
        "import trialalloc.cli\n"
        "runs = [['eval', '--config', 'maize_network'],\n"
        "        ['design', '--config', 'maize_network', '--mode', 'exact'],\n"
        "        ['efficiency', '--config', sys.argv[1]]]\n"
        "for argv in runs:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert trialalloc.cli.main(argv) == 0, argv\n"
        "    for name in ('scipy.linalg', 'scipy.optimize'):\n"
        "        assert name not in sys.modules, f'{argv[0]} imported {name}'\n"
        "from trialalloc import optimizer\n"
        "assert callable(optimizer.minimize_scalar)\n"
        "assert 'scipy.optimize' in sys.modules\n"
    )
    out = subprocess.run([sys.executable, "-c", script, write_config(tmp_path, network_config)],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.returncode == 0, out.stderr


@pytest.mark.skipif(shutil.which("trialalloc") is None,
                    reason="console script not on PATH")
def test_console_script_entry_point():
    out = subprocess.run(["trialalloc", "--version"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "trialalloc" in out.stdout
