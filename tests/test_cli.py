from __future__ import annotations

import dataclasses
import importlib
import json
import os
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import helpers
from trialalloc import (Design, DesignProblem, Identity, ValidationError,
                        __version__, efficiency)
from trialalloc import _linalg, cli, optimizer
from trialalloc._linalg import spd_factor
from trialalloc.cli import main
from trialalloc.fixtures import available_fixtures, fixture_path, load_fixture


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:           # argparse refuses the command line
        code = exc.code
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

    def test_exact_rows_carry_the_certificate(self, capsys):
        code, exact, _ = run_cli(capsys, "design", "--config", "maize_network",
                                 "--mode", "exact")
        assert code == 0
        assert exact["certified"] is True and exact["nodes"] >= 1
        assert exact["lower_bound"] <= exact["phi"]
        assert exact["optimality_gap"] == exact["phi"] - exact["lower_bound"]
        code, approx, _ = run_cli(capsys, "design", "--config", "maize_network")
        assert code == 0
        assert not {"lower_bound", "certified", "nodes"} & set(approx)

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
        ("batch", [], "batch"),
        # finite, but beyond the scale the criteria can square
        ("variance", {"sigma2_omega": 1e308, "sigma2_tau": 18.0, "sigma2_gamma": 160.0,
                      "sigma2_phi_plus_err_over_L": 333.0, "H": 3}, "sigma2_omega must be"),
        ("subregions", {"V": np.diag([1e308, 1.0, 1.0, 1.0, 1.0]).tolist()}, "V must be"),
    ])
    def test_fractional_config_values_exit_2(self, tmp_path, capsys, network_config,
                                             block, value, field):
        network_config[block] = value
        code, payload, err = run_cli(
            capsys, "design", "--config", write_config(tmp_path, network_config))
        assert code == 2 and payload is None
        assert field in err

    @pytest.mark.parametrize("target", ["effects", "contrasts"])
    @pytest.mark.parametrize("kinship, field", [
        ({"variant": "cs", "K": 31, "r": 0.5, "sigma2_alpha": 1e200}, "sigma2_alpha"),
        ({"variant": "block_cs", "f": 6, "m": 5, "r": 0.5, "sigma2_alpha": 1.3e154},
         "sigma2_alpha"),
        # the identity matrix plus a jitter beyond the bound
        ({"variant": "dense", "matrix": np.eye(31).tolist(), "jitter": 1.3e154}, "jitter"),
        ({"variant": "dense", "matrix": (1.3e154 * np.eye(31)).tolist()}, "matrix"),
    ], ids=["cs", "block_cs", "identity", "dense"])
    def test_kinship_scales_beyond_the_bound_exit_2(self, tmp_path, capsys, network_config,
                                                    kinship, field, target):
        network_config["kinship"] = kinship
        network_config["criterion"] = {"target": target}
        code, payload, err = run_cli(
            capsys, "design", "--config", write_config(tmp_path, network_config))
        assert code == 2 and payload is None
        assert f"{field} gives the kinship an eigenvalue" in err

    @pytest.mark.parametrize("argv", [("eval",), ("design",), ("design", "--mode", "exact")],
                             ids=["eval", "approx", "exact"])
    @pytest.mark.parametrize("omega, code", [(4e17, 0), (5e17, 2)])
    def test_a_year_covariance_near_rank_one_exits_2(self, tmp_path, capsys, network_config,
                                                     argv, omega, code):
        # at tau = 18, omega = 5e17 leaves the criterion's inner matrix
        # indefinite at working precision; 4e17 still evaluates
        for variance in network_config["variance"].values():
            variance["sigma2_omega"] = omega
        got, payload, err = run_cli(
            capsys, *argv, "--config", write_config(tmp_path, network_config))
        assert got == code and (payload is None) == (code == 2)
        if code == 2:
            assert "sigma2_tau = 18.0" in err and "sigma2_omega = 5e+17" in err

    @pytest.mark.parametrize("argv", [("eval",), ("design",), ("design", "--mode", "exact"),
                                      ("efficiency",)],
                             ids=["eval", "approx", "exact", "efficiency"])
    @pytest.mark.parametrize("scale", [1e-300, 1e-160])
    def test_a_criterion_below_the_least_normal_float_exits_4(
            self, tmp_path, capsys, network_config, argv, scale):
        # V scaled by 1e-300 underflows phi to 0.0, by 1e-160 to a subnormal
        network_config["subregions"]["V"] = [
            [v * scale for v in row] for row in network_config["subregions"]["V"]]
        network_config["designs"] = {"reference": [13, 6, 8, 12, 1],
                                     "alternative": [12, 6, 8, 12, 2]}
        code, payload, err = run_cli(
            capsys, *argv, "--config", write_config(tmp_path, network_config))
        assert code == 4 and payload is None
        assert "error: the criterion underflows" in err

    @pytest.mark.parametrize("solver, flags, field", [
        ({"max_iter": 2.5}, (), "solver.max_iter"),
        ({"max_iter": 0}, (), "solver.max_iter"),
        ({"max_iter": -3}, (), "solver.max_iter"),
        ({"restarts": 1.7}, (), "solver.restarts"),
        ({"seed": 3.9}, (), "solver.seed"),
        ({"tol": float("nan")}, (), "solver.tol"),
        ({"tol": -1.0}, (), "solver.tol"),
        # flags that are gone exit 2 as unrecognised arguments, naming themselves
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

    @pytest.mark.parametrize("block, value, field", [
        ("constraints", {"min_per_zone": 3}, "constraints.min_per_zone"),
        ("solver", {"tolerance": 0.5}, "solver.tolerance"),
        ("criterion", {"targett": "contrasts"}, "criterion.targett"),
        ("constraint", {"min_per_region": 3}, "'constraint'"),
        ("batch", [{"label": "a"}, {"label": "b", "kinshp": {"variant": "identity"}}],
         "'kinshp'"),
        ("batch", [{"label": "a", "solver": {"tolerance": 0.5}}], "solver.tolerance"),
        # the kinship picks the evaluation path; older configs that set it exit 2
        ("criterion", {"path": "full"}, "criterion.path"),
        ("subregions", {"V": np.eye(5).tolist(), "weights": [1.0] * 5}, "subregions.weights"),
        ("kinship", {"variant": "identity", "K": 31, "jiter": 1e-3}, "kinship.jiter"),
        ("kinship", {"variant": "identity", "K": 31, "r": 0.5}, "kinship.r"),
        ("kinship", {"variant": "cs", "K": 31, "r": 0.5, "m": 5}, "kinship.m"),
        ("kinship", {"variant": "block_cs", "f": 6, "m": 5, "r": 0.5, "K": 30}, "kinship.K"),
        ("kinship", {"variant": "dense", "matrix": np.eye(4).tolist(), "K": 4}, "kinship.K"),
        ("batch", [{"label": "a", "kinship": {"K": 31, "m": 5}}], "kinship.m"),
        ("design", {"countz": [13, 6, 8, 12, 1]}, "design.countz"),
        # the exact search draws no random starts
        ("solver", {"restarts": 20}, "solver.restarts"),
        ("solver", {"seed": 0}, "solver.seed"),
    ])
    def test_unknown_settings_exit_2(self, tmp_path, capsys, network_config, block, value,
                                     field):
        network_config[block] = value
        network_config["designs"] = {"reference": [13, 6, 8, 12, 1],
                                     "alternative": [10, 10, 10, 5, 5]}
        path = write_config(tmp_path, network_config)
        for command in ("design", "eval", "efficiency"):
            code, payload, err = run_cli(capsys, command, "--config", path)
            assert code == 2 and payload is None, command
            assert field in err, command

    @pytest.mark.parametrize("path", ["bayes_cs", "kbayes", "cbrc"])
    def test_closed_form_paths_are_not_settable(self, tmp_path, capsys, network_config,
                                                path):
        network_config["criterion"]["path"] = path
        code, payload, err = run_cli(
            capsys, "eval", "--config", write_config(tmp_path, network_config))
        assert code == 2 and payload is None
        assert "criterion.path is not a setting" in err

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

    def test_tied_costs_at_a_budget_of_the_cheapest_fill_are_certified(
            self, tmp_path, capsys, network_config):
        network_config["subregions"] = {"V": helpers.V5[:4, :4].tolist(),
                                        "ell": helpers.ELL5[:4].tolist()}
        network_config.update(J=22, constraints={"min_per_region": 1,
                                                 "costs": helpers.TIED_COSTS,
                                                 "budget": helpers.TIED_BUDGET})
        network_config.pop("design")
        code, payload, err = run_cli(
            capsys, "design", "--config", write_config(tmp_path, network_config),
            "--mode", "exact")
        assert code == 0, err
        assert payload["certified"] is True
        assert payload["design"]["counts"] == [10, 1, 1, 10]

    def test_equal_costs_at_a_budget_every_design_meets(self, tmp_path, capsys,
                                                         network_config):
        # every design spends the budget exactly, so the relaxation's budget
        # row is its sum row and binds everywhere
        network_config.pop("design")
        network_config["constraints"] = {"min_per_region": 0}
        code, free, _ = run_cli(
            capsys, "design", "--config", write_config(tmp_path, network_config),
            "--mode", "exact")
        assert code == 0
        network_config["constraints"].update(costs=[1e7] * 5, budget=4e8)
        code, payload, err = run_cli(
            capsys, "design", "--config", write_config(tmp_path, network_config),
            "--mode", "exact")
        assert code == 0, err
        assert payload["certified"] is True and payload["cost"] == 4e8
        assert payload["design"] == free["design"]

    def test_exact_mode_honours_the_warm_start_settings(self, tmp_path, capsys, monkeypatch,
                                                        network_config):
        network_config["solver"] = {"tol": 0.5}
        code, payload, _ = run_cli(capsys, "design", "--config",
                                   write_config(tmp_path, network_config), "--mode", "exact")
        assert code == 0 and payload["status"] == "converged"
        monkeypatch.setattr(optimizer, "_EVALUATION_LIMIT", 1)
        code, payload, _ = run_cli(capsys, "design", "--config", "maize_network",
                                   "--mode", "exact")
        assert code == 0 and payload["status"] == "max_iter"

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

    def test_the_mode_is_a_flag_not_a_setting(self, tmp_path, capsys, network_config):
        network_config["solver"] = {"mode": "exact", "tol": 1e-9}
        code, payload, err = run_cli(
            capsys, "design", "--config", write_config(tmp_path, network_config))
        assert code == 2 and payload is None
        assert "error: solver.mode is not a setting; expected one of tol" in err
        code, payload, _ = run_cli(capsys, "design", "--config", "maize_network")
        assert code == 0 and payload["mode"] == "approx"

    def test_pretty_writes_table_to_stderr(self, capsys):
        code, _, err = run_cli(capsys, "design", "--config", "maize_network",
                               "--mode", "exact", "--pretty")
        assert code == 0
        assert "MSE trace" in err
        assert "region" in err
        assert "certified" in err and "nodes" in err and "lower_bound" in err


class TestEfficiency:
    def test_identical_designs(self, tmp_path, capsys, network_config):
        network_config["designs"] = {"reference": [13, 6, 8, 12, 1],
                                     "alternative": [13, 6, 8, 12, 1]}
        code, payload, _ = run_cli(
            capsys, "efficiency", "--config",
            write_config(tmp_path, network_config))
        assert code == 0
        assert payload["efficiency"] == pytest.approx(1.0)

    def test_constrained_pair_and_aliases(self, tmp_path, capsys,
                                          network_config):
        network_config["designs"] = {
            "reference": [13, 6, 8, 12, 1],
            "alternative": [10, 10, 10, 5, 5],
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
        # the pair has one spelling; the old aliases exit 2 naming the key
        for ref, alt in (("unconstrained", "constrained"), ("a", "b")):
            network_config["designs"] = {ref: [13, 6, 8, 12, 1], alt: [10, 10, 10, 5, 5]}
            code, payload, err = run_cli(
                capsys, "efficiency", "--config", write_config(tmp_path, network_config))
            assert code == 2 and payload is None
            assert f"designs.{ref} is not a setting" in err

    def test_batch_gives_one_labelled_row_per_entry(self, tmp_path, capsys,
                                                    network_config):
        # an entry naming another kinship variant replaces the base's block
        network_config["designs"] = {"reference": [13, 6, 8, 12, 1],
                                     "alternative": [10, 10, 10, 5, 5]}
        network_config["batch"] = [
            {"label": "identity"},
            {"label": "family blocks", "kinship": {
                "variant": "block_cs", "f": 6, "m": 5, "r": 0.5, "sigma2_alpha": "unit_asv"}}]
        code, payload, _ = run_cli(
            capsys, "efficiency", "--config", write_config(tmp_path, network_config))
        assert code == 0
        assert [row["label"] for row in payload] == ["identity", "family blocks"]
        assert [row["criterion"]["path_used"] for row in payload] == ["bayes_cs", "kbayes"]
        kinships = (Identity(K=31), helpers.family_block_kinship(0.5, 6, 5))
        for row, kin in zip(payload, kinships, strict=True):
            problem = DesignProblem(helpers.maize_vc(), helpers.maize_profile(), kin)
            assert row["efficiency"] == efficiency(
                Design.exact(np.array([13, 6, 8, 12, 1])),
                Design.exact(np.array([10, 10, 10, 5, 5])), problem)

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

    @pytest.mark.parametrize("design, field", [
        ({"counts": [13, 6, 8, 12, 1], "J": 50}, "design.J"),
        ({"weights": [0.2] * 5, "j": 30}, "design.j"),
        ({"counts": [13, 6, 8, 12, 1], "weights": [0.2] * 5}, "design.weights"),
        ({"counts": [13, 6, 8, 12, 1], "label": "x"}, "design.label"),
    ])
    def test_a_design_block_takes_counts_or_weights_and_j(self, tmp_path, capsys,
                                                           network_config, design, field):
        evaluated = dict(network_config, design=design)
        compared = dict(network_config, designs={"reference": [13, 6, 8, 12, 1],
                                                 "alternative": design})
        for command, config, name in (
                ("eval", evaluated, field),
                ("efficiency", compared, "designs.alternative" + field[len("design"):])):
            code, payload, err = run_cli(capsys, command, "--config",
                                         write_config(tmp_path, config))
            assert code == 2 and payload is None, command
            assert f"error: {name} " in err, command

    def test_missing_designs_block(self, tmp_path, capsys, network_config):
        code, _, err = run_cli(
            capsys, "efficiency", "--config",
            write_config(tmp_path, network_config))
        assert code == 2
        assert "designs" in err

    def test_a_criterion_that_underflows_to_zero_exits_4(self, tmp_path, capsys,
                                                        network_config):
        # V scaled by 1e-300 underflows phi to 0.0, so the ratio has no value
        network_config["subregions"]["V"] = [
            [v * 1e-300 for v in row] for row in network_config["subregions"]["V"]]
        network_config["designs"] = {"reference": [13, 6, 8, 12, 1],
                                     "alternative": [12, 6, 8, 12, 2]}
        code, payload, err = run_cli(
            capsys, "efficiency", "--config", write_config(tmp_path, network_config))
        assert code == 4 and payload is None
        assert "error: the criterion underflows (phi = 0, below 2.23e-308)" in err

    @pytest.mark.parametrize("counts, message", [
        ([12.5, 6, 8, 12, 1.5], "must be integral, got [12.5, 6, 8, 12, 1.5]"),
        ([-1, 6, 8, 12, 15], "counts must be non-negative, got [-1, 6, 8, 12, 15]"),
    ], ids=["fractional", "negative"])
    @pytest.mark.parametrize("key", ["reference", "alternative"])
    def test_a_bad_count_names_its_design(self, tmp_path, capsys, network_config, key,
                                          counts, message):
        network_config["designs"] = {"reference": [13, 6, 8, 12, 1],
                                     "alternative": [12, 6, 8, 12, 2]}
        network_config["designs"][key] = counts
        code, payload, err = run_cli(
            capsys, "efficiency", "--config", write_config(tmp_path, network_config))
        assert code == 2 and payload is None
        assert f"error: designs.{key} {message}" in err


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
        code, _, err = run_cli(capsys, "eval", "--config",
                               write_config(tmp_path, network_config))
        assert code == 2
        assert "jitter" in err
        network_config["kinship"]["jitter"] = "auto"
        code, payload, _ = run_cli(capsys, "eval", "--config",
                                   write_config(tmp_path, network_config))
        assert code == 0

    def test_bogus_jitter_rejected(self, tmp_path, capsys, network_config):
        network_config["kinship"] = {"variant": "dense", "matrix": np.eye(31).tolist(),
                                     "jitter": "lots"}
        code, _, err = run_cli(capsys, "eval", "--config",
                               write_config(tmp_path, network_config))
        assert code == 2
        assert "error: kinship.jitter must be numeric, got 'lots'" in err

    @pytest.mark.parametrize("kinship", [
        {"variant": "identity", "K": 31, "jitter": 1e-6},
        {"variant": "cs", "K": 31, "r": 0.5, "jitter": "auto"},
        {"variant": "block_cs", "f": 6, "m": 5, "r": 0.5, "jitter": 0.0},
    ], ids=["identity", "cs", "block_cs"])
    def test_a_structured_kinship_takes_no_jitter(self, tmp_path, capsys, network_config,
                                                 kinship):
        network_config["kinship"] = kinship
        code, payload, err = run_cli(
            capsys, "eval", "--config", write_config(tmp_path, network_config))
        assert code == 2 and payload is None
        assert "error: kinship.jitter is not a setting" in err

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

    @pytest.mark.parametrize("value", [1e20, 2**63, 10**30], ids=["1e20", "2**63", "10**30"])
    @pytest.mark.parametrize("command, field, put", [
        ("eval", "J", lambda c, v: c.update(J=v)),
        ("eval", "design.J", lambda c, v: c.update(design={"weights": [0.2] * 5, "J": v})),
        ("eval", "design", lambda c, v: c.update(design=[v, 6, 8, 12, 1])),
        ("design", "K", lambda c, v: c["kinship"].update(K=v)),
        ("design", "f", lambda c, v: c.update(
            kinship={"variant": "block_cs", "f": v, "m": 5, "r": 0.5})),
        ("design", "H", lambda c, v: c["variance"]["cross_classified"].update(H=v)),
        ("design", "min_per_region", lambda c, v: c.update(constraints={"min_per_region": v})),
    ], ids=["J", "design.J", "counts", "kinship.K", "kinship.f", "variance.H",
            "constraints.min_per_region"])
    def test_an_integer_beyond_int64_exits_2(self, tmp_path, capsys, network_config,
                                            value, command, field, put):
        put(network_config, value)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)      # no cast out of range
            code, payload, err = run_cli(
                capsys, command, "--config", write_config(tmp_path, network_config))
        assert code == 2 and payload is None
        assert f"error: {field} must be at most 2**53 in magnitude" in err

    @pytest.mark.parametrize("command, field, put", [
        ("design", "J", lambda c: c.update(J=1e17)),
        ("design", "J", lambda c: c.update(J=2**53 + 1)),
        ("eval", "design", lambda c: c.update(design=[2**53 + 1, 6, 8, 12, 1])),
        ("eval", "design.J", lambda c: c.update(design={"weights": [0.2] * 5,
                                                          "J": 2**53 + 1})),
    ], ids=["J-1e17", "J-2**53+1", "counts-2**53+1", "design.J-2**53+1"])
    def test_a_whole_number_beyond_2_53_exits_2_naming_it(self, tmp_path, capsys,
                                                          network_config, command, field, put):
        # above 2**53 not every whole number is a float: such a count would
        # be rounded before the sum check, which then reports its own mismatch
        put(network_config)
        argv = [command, "--config", write_config(tmp_path, network_config)]
        code, payload, err = run_cli(capsys, *argv, *(["--mode", "exact"] if command == "design"
                                                      else []))
        assert code == 2 and payload is None
        assert f"error: {field} must be at most 2**53 in magnitude" in err

    def test_a_whole_number_of_2_53_is_exact(self, tmp_path, capsys, network_config):
        del network_config["J"]
        network_config["design"] = [2**53 - 4, 1, 1, 1, 1]
        code, payload, _ = run_cli(capsys, "eval", "--config",
                                   write_config(tmp_path, network_config))
        assert code == 0 and payload["design"]["counts"][0] == 2**53 - 4
        assert payload["J"] == 2**53

    @pytest.mark.parametrize("command, field, put", [
        ("eval", "J", lambda c, v: c.update(J=v)),
        ("design", "budget",
         lambda c, v: c.update(constraints={"costs": [1] * 5, "budget": v})),
    ], ids=["J", "constraints.budget"])
    def test_a_json_integer_beyond_float_range_exits_2(self, tmp_path, capsys,
                                                      network_config, command, field, put):
        put(network_config, 10**400)
        code, payload, err = run_cli(
            capsys, command, "--config", write_config(tmp_path, network_config))
        assert code == 2 and payload is None
        assert f"error: {field} must be finite" in err

    @pytest.mark.parametrize("block", [3, "x", [1, 2]], ids=["number", "text", "list"])
    def test_a_variance_block_per_variant_must_be_an_object(self, tmp_path, capsys,
                                                           network_config, block):
        network_config["variance"]["cross_classified"] = block
        code, payload, err = run_cli(
            capsys, "eval", "--config", write_config(tmp_path, network_config))
        assert code == 2 and payload is None
        assert "error: variance.cross_classified must be an object" in err

    @pytest.mark.parametrize("label", [float("nan"), {"a": 1}], ids=["nan", "object"])
    def test_a_batch_label_must_be_text(self, tmp_path, capsys, network_config, label):
        network_config["batch"] = [{"label": "a"}, {"label": label}]
        code, payload, err = run_cli(
            capsys, "eval", "--config", write_config(tmp_path, network_config))
        assert code == 2 and payload is None
        assert "error: batch[1].label must be a string" in err

    @pytest.mark.parametrize("fixture, path, value, message", [
        ("maize_network", ("subregions", "ell", 2), -477365.0,
         "error: ell, the sub-regional coefficients, must be strictly positive"),
        ("maize_family_blocks", ("batch", 1, "kinship", "f"), -6, "error: kinship.f must be >= 1"),
        ("maize_family_blocks", ("batch", 1, "kinship", "m"), 0, "error: kinship.m must be >= 1"),
        ("maize_family_blocks", ("batch", 2), {"value": {"kinship": {"f": 6}}},
         "error: batch[2]: 'value' is not a config key"),
        ("maize_family_blocks", ("batch", 0, "kinship"), {"variant": "block_cs", "K": 30},
         "error: batch[0]: kinship.K is not a setting"),
        ("maize_network", ("variance", "cross_classified"), {},
         "error: 'variance.cross_classified' block:"),
        ("maize_network", ("design", 0), 2 ** 53,
         "error: the sum of the design counts must be at most 2**53"),
    ], ids=["ell", "f", "m", "batch-entry", "batch-kinship", "variance-variant", "count-sum"])
    def test_exit_2_names_the_field(self, tmp_path, capsys, fixture, path, value, message):
        config = load_fixture(fixture)
        config.pop("_base_dir", None)
        parent = config
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        code, payload, err = run_cli(capsys, "eval", "--config", write_config(tmp_path, config))
        assert code == 2 and payload is None
        assert message in err


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ("eval", "--config", "maize_network", "--seed", "3"),
        ("efficiency", "--config", "maize_network", "--tol", "1e-6"),
        ("eval", "--config", "maize_network", "--restarts", "4"),
        ("design", "--config", "maize_network", "--mode", "exact", "--seed", "3"),
        ("design", "--config", "maize_network", "--mode", "exact", "--restarts", "4"),
        ("design", "--config", "maize_network", "--tol", "1e-6"),
        ("eval", "--config", "maize_network", "--jitter", "auto"),
    ])
    def test_flags_a_command_ignores_are_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc_info:
            main(list(argv))
        assert exc_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


    @pytest.mark.parametrize("command, flags", [
        ("eval", ["--config", "--pretty"]),
        ("design", ["--config", "--mode", "--pretty"]),
        ("efficiency", ["--config", "--pretty"]),
    ])
    def test_each_command_offers_only_its_flags(self, capsys, command, flags):
        with pytest.raises(SystemExit) as exc_info:
            main([command, "--help"])
        assert exc_info.value.code == 0
        offered = re.findall(r"(?<![\w-])--[a-z]+", capsys.readouterr().out)
        assert sorted(set(offered) - {"--help"}) == flags

    def test_only_the_three_row_commands_exist(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--help"])
        assert exc_info.value.code == 0
        assert "{eval,design,efficiency}" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc_info:
            main(["selftest"])
        assert exc_info.value.code == 2
        assert "invalid choice: 'selftest'" in capsys.readouterr().err


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
        "    for name in ('scipy.linalg', 'scipy.optimize', 'trialalloc.oracle'):\n"
        "        assert name not in sys.modules, f'{argv[0]} imported {name}'\n"
        "from trialalloc import optimizer\n"
        "assert callable(optimizer.minimize_scalar)\n"
        "assert 'scipy.optimize' in sys.modules\n"
    )
    out = subprocess.run([sys.executable, "-c", script, write_config(tmp_path, network_config)],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.returncode == 0, out.stderr


def test_the_cli_runs_with_scipy_blocked(tmp_path, network_config):
    # scipy is a test dependency only: the commands run where importing it fails
    network_config["designs"] = {"reference": [13, 6, 8, 12, 1],
                                 "alternative": [10, 10, 10, 5, 5]}
    script = (
        "import sys, contextlib, io\n"
        "class BlockScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] == 'scipy':\n"
        "            raise ModuleNotFoundError(f'{name} is blocked')\n"
        "sys.meta_path.insert(0, BlockScipy())\n"
        "import trialalloc.cli\n"
        "for argv in (['eval', '--config', 'maize_network'],\n"
        "             ['design', '--config', 'maize_network', '--mode', 'exact'],\n"
        "             ['efficiency', '--config', sys.argv[1]]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert trialalloc.cli.main(argv) == 0, argv\n"
        "loaded = [name for name in sys.modules if name.partition('.')[0] == 'scipy']\n"
        "assert not loaded, loaded\n"
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


def test_console_script_target_prints_the_version(capsys):
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(os.path.dirname(__file__), "..", "pyproject.toml"), "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["trialalloc"]
    module, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module), attr)
    with pytest.raises(SystemExit) as exc_info:
        entry(["--version"])
    assert exc_info.value.code == 0
    assert capsys.readouterr().out == f"trialalloc {__version__}\n"


def _cli_process(*argv, env=None, timeout=120):
    """Run the CLI in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "trialalloc.cli", *argv],
                          capture_output=True, text=True, timeout=timeout,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
                               **(env or {})})


def test_exact_design_of_a_billion_locations_finishes(tmp_path, network_config):
    network_config["J"] = 1_000_000_000
    out = _cli_process("design", "--config", write_config(tmp_path, network_config),
                       "--mode", "exact", timeout=60)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert sum(report["design"]["counts"]) == 1_000_000_000
    assert report["certified"] is True


def test_exact_output_is_the_same_in_every_process():
    runs = [_cli_process("design", "--mode", "exact", "--config", "maize_family_blocks",
                         env={"PYTHONHASHSEED": seed}) for seed in ("1", "2")]
    assert all(out.returncode == 0 for out in runs), runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
