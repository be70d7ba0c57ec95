import itertools
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from otmix import cli, fitting, harness
from otmix.fitting import EmptyComponentError, FitConfig
from otmix.harness import (
    CONFIG_KEYS,
    ExperimentSpec,
    RESULT_COLUMNS,
    in_spurious_region,
    load_config,
    run_experiment,
    run_selection_sweep,
    run_spurious_demo,
    spec_from_config,
    spurious_truth,
)
from otmix.mixtures import Dataset, MixtureParams

TINY_CONFIG = """
# smallest possible sweep
master_seed = 7
K = [3]
d = [2]
sigma2 = [0.05]
N = [120]
variance_regime = ["i"]
weight_regime = "uniform"
n_replicates = 2
n_seeds = 2
methods = ["kmeans", "em", "sem"]
selection = "per-seed"
"""


# case: (files to write, CLI command, expected error text); {tmp} is the test's directory
BAD_INPUTS = {
    "grid-step": (
        {},
        "twogauss --theta-star 1 --alpha-star 0.6 --grid-step 0 --out-curves {tmp}/c.csv",
        "--grid-step must be positive",
    ),
    "short-row": (
        {"d.csv": "x0,x1,label\n0.1,0.2,0\n0.3,1\n"},
        "fit --data {tmp}/d.csv --method em --k 2",
        "{tmp}/d.csv:3: expected 3 fields, got 2",
    ),
    "bad-number": (
        {"d.csv": "x0,x1,label\n0.1,0.2,0\n0.3,abc,1\n"},
        "fit --data {tmp}/d.csv --method em --k 2",
        "{tmp}/d.csv:3: could not convert string to float",
    ),
    "config-type": (
        {"s.cfg": TINY_CONFIG.replace("K = [3]", 'K = "abc"')},
        "experiment --config {tmp}/s.cfg --out-dir {tmp}/out",
        "K must be a positive integer, got 'abc'",
    ),
    "removed-key": (
        {"s.cfg": TINY_CONFIG + "weight_update_cadence = 6\n"},
        "experiment --config {tmp}/s.cfg --out-dir {tmp}/out",
        "unknown config key 'weight_update_cadence'",
    ),
    "removed-solver-key": (
        {"s.cfg": TINY_CONFIG + "sinkhorn_tolerance = 1e-6\n"},
        "experiment --config {tmp}/s.cfg --out-dir {tmp}/out",
        "unknown config key 'sinkhorn_tolerance'",
    ),
    "gamma-uniform": (
        {"s.cfg": TINY_CONFIG + "dirichlet_gamma = 3\n"},
        "experiment --config {tmp}/s.cfg --out-dir {tmp}/out",
        "dirichlet_gamma goes only with weight_regime 'dirichlet', got 3",
    ),
    "gamma-bool": (
        {"s.cfg": TINY_CONFIG.replace('"uniform"', '"dirichlet"') + "dirichlet_gamma = true\n"},
        "experiment --config {tmp}/s.cfg --out-dir {tmp}/out",
        "dirichlet_gamma must be a positive number, got True",
    ),
    "methods-empty": (
        {"s.cfg": TINY_CONFIG.replace('["kmeans", "em", "sem"]', "[]")},
        "experiment --config {tmp}/s.cfg --out-dir {tmp}/out",
        "methods must list at least one value",
    ),
    "missing-grid-key": (
        {"s.cfg": TINY_CONFIG.replace("N = [120]", "")},
        "experiment --config {tmp}/s.cfg --out-dir {tmp}/out",
        "N must list at least one value",
    ),
    "variance-regime": (
        {"s.cfg": TINY_CONFIG.replace('["i"]', '["v"]')},
        "experiment --config {tmp}/s.cfg --out-dir {tmp}/out",
        "variance_regime must be among ('i', 'ii', 'iii', 'iv')",
    ),
    "simulate-gamma-zero": (
        {},
        "simulate --k 2 --d 1 --sigma2 0.1 --n 10 --gamma 0 "
        "--out-data {tmp}/d.csv --out-params {tmp}/p.json",
        "--gamma must be positive, got 0",
    ),
    "simulate-gamma-negative": (
        {},
        "simulate --k 2 --d 1 --sigma2 0.1 --n 10 --gamma -1 "
        "--out-data {tmp}/d.csv --out-params {tmp}/p.json",
        "--gamma must be positive, got -1",
    ),
    "simulate-k-zero": (
        {},
        "simulate --k 0 --d 1 --sigma2 0.1 --n 10 --out-data {tmp}/d.csv --out-params {tmp}/p.json",
        "k must be >= 1, got 0",
    ),
    "simulate-k-negative": (
        {},
        "simulate --k -1 --d 1 --sigma2 0.1 --n 10 --out-data {tmp}/d.csv --out-params {tmp}/p.json",
        "k must be >= 1, got -1",
    ),
    "simulate-d-negative": (
        {},
        "simulate --k 2 --d -1 --sigma2 0.1 --n 10 --out-data {tmp}/d.csv --out-params {tmp}/p.json",
        "d must be >= 1, got -1",
    ),
    "simulate-sigma2-negative": (
        {},
        "simulate --k 2 --d 1 --sigma2 -1 --n 10 --out-data {tmp}/d.csv --out-params {tmp}/p.json",
        "sigma2 must be >= 1e-06, got -1",
    ),
    "fit-sigma2-negative": (
        {"d.csv": "x0,x1\n0.1,0.2\n0.3,0.4\n0.5,0.6\n"},
        "fit --data {tmp}/d.csv --method em --k 2 --sigma2 -1",
        "sigma2 must be >= 1e-06, got -1",
    ),
    "select-k-k-true-zero": ({}, "select-k --k-true 0", "k_true must be >= 1, got 0"),
    "select-k-replicates-zero": (
        {}, "select-k --k-true 3 --replicates 0", "n_replicates must be >= 1, got 0"
    ),
    "trials": ({}, "spurious --n 50 --trials 0", "trials must be >= 1"),
    "spurious-n": ({}, "spurious --n 2 --trials 3 --seed 1", "n must be >= 3"),
    "k-zero": (
        {"m.csv": "1,2\n3,4\n5,6\n"},
        "cocluster --data {tmp}/m.csv --k 0 --g 2 --method vem --out-model {tmp}/m.json",
        "K=0 and G=2 must lie in 1..3 and 1..2",
    ),
    "sigma2-zero": (
        {"m.csv": "1,2\n3,4\n5,6\n"},
        "cocluster --data {tmp}/m.csv --k 2 --g 2 --sigma2 0 --method svem --out-model {tmp}/m.json",
        "sigma2 must be >= 1e-06, got 0",
    ),
    "cocluster-sigma2-negative": (
        {"m.csv": "1,2\n3,4\n5,6\n"},
        "cocluster --data {tmp}/m.csv --k 2 --g 2 --sigma2 -1 --method vem --out-model {tmp}/m.json",
        "sigma2 must be >= 1e-06, got -1",
    ),
    "cocluster-tol-nan": (
        {"m.csv": "1,2\n3,4\n5,6\n"},
        "cocluster --data {tmp}/m.csv --k 2 --g 2 --tol nan --method vem --out-model {tmp}/m.json",
        "param_change_tolerance must be positive, got nan",
    ),
    "fit-tol-nan": (
        {"d.csv": "x0,x1\n0.1,0.2\n0.3,0.4\n0.5,0.6\n"},
        "fit --data {tmp}/d.csv --method sem --k 2 --tol nan",
        "param_change_tolerance must be positive, got nan",
    ),
    "fit-sinkhorn-tol-nan": (
        {"d.csv": "x0,x1\n0.1,0.2\n0.3,0.4\n0.5,0.6\n"},
        "fit --data {tmp}/d.csv --method sem --k 2 --sinkhorn-tol nan",
        "tolerance must be positive, got nan",
    ),
    "fit-tol-zero": (
        {"d.csv": "x0,x1\n0.1,0.2\n0.3,0.4\n0.5,0.6\n"},
        "fit --data {tmp}/d.csv --method sem --k 2 --tol 0",
        "error: --tol: param_change_tolerance must be positive, got 0",
    ),
    "fit-max-iter-zero": (
        {"d.csv": "x0,x1\n0.1,0.2\n0.3,0.4\n0.5,0.6\n"},
        "fit --data {tmp}/d.csv --method em --k 2 --max-iter 0",
        "error: --max-iter: max_outer_iterations must be >= 1, got 0",
    ),
    "fit-sinkhorn-max-iter-zero": (
        {"d.csv": "x0,x1\n0.1,0.2\n0.3,0.4\n0.5,0.6\n"},
        "fit --data {tmp}/d.csv --method sem --k 2 --sinkhorn-max-iter 0",
        "error: --sinkhorn-max-iter: max_iterations must be >= 1, got 0",
    ),
    "cocluster-max-iter-zero": (
        {"m.csv": "1,2\n3,4\n5,6\n"},
        "cocluster --data {tmp}/m.csv --k 2 --g 2 --max-iter 0 --method vem --out-model {tmp}/m.json",
        "error: --max-iter: max_outer_iterations must be >= 1, got 0",
    ),
    "cocluster-sinkhorn-max-iter-zero": (
        {"m.csv": "1,2\n3,4\n5,6\n"},
        "cocluster --data {tmp}/m.csv --k 2 --g 2 --sinkhorn-max-iter 0 --method svem "
        "--out-model {tmp}/m.json",
        "error: --sinkhorn-max-iter: max_iterations must be >= 1, got 0",
    ),
    "cocluster-sinkhorn-tol-nan": (
        {"m.csv": "1,2\n3,4\n5,6\n"},
        "cocluster --data {tmp}/m.csv --k 2 --g 2 --sinkhorn-tol nan --method svem "
        "--out-model {tmp}/m.json",
        "error: --sinkhorn-tol: tolerance must be positive, got nan",
    ),
    "headerless": (
        {"d.csv": "0.1,0.2\n0.3,0.4\n0.5,0.6\n"},
        "fit --data {tmp}/d.csv --method em --k 2",
        "{tmp}/d.csv:1: expected the header x0,...,x{{d-1}}[,label], got '0.1,0.2'",
    ),
}


@pytest.fixture
def tiny_spec(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(TINY_CONFIG)
    return spec_from_config(cfg)


class TestConfig:
    def test_round_trip_values(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text(TINY_CONFIG)
        raw = load_config(cfg)
        assert raw["K"] == [3]
        assert raw["weight_regime"] == "uniform"
        assert raw["master_seed"] == 7

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nope = 3\n")
        with pytest.raises(ValueError):
            spec_from_config(cfg)

    def test_readme_sweep_config_sets_every_key(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("A sweep config is a flat, diffable text file", 1)[1]
        cfg = tmp_path / "readme.cfg"
        cfg.write_text(section.split("```", 2)[1])
        spec_from_config(cfg)
        assert set(load_config(cfg)) == set(CONFIG_KEYS)

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just a line\n")
        with pytest.raises(ValueError):
            load_config(cfg)

    def test_protocol_defaults_come_from_fit_config(self):
        args = cli.build_parser().parse_args(["fit", "--data", "d.csv", "--method", "em", "--k", "2"])
        assert cli._fit_config(args) == FitConfig()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(ks=(3,), ds=(2,), sigma2s=(0.1,), ns=(100,), methods=("svm",))
        with pytest.raises(ValueError):
            ExperimentSpec(
                ks=(3,), ds=(2,), sigma2s=(0.1,), ns=(100,), weight_regime="dirichlet"
            )


class TestRunExperiment:
    def test_row_counting_contract(self, tmp_path):
        spec = ExperimentSpec(
            ks=(2,), ds=(1,), sigma2s=(0.05,), ns=(60,),
            n_replicates=1, n_seeds=1, methods=("kmeans", "em", "sem"), master_seed=1,
        )
        rows = run_experiment(spec)
        assert len(rows) == 3

    def test_row_accounting_full_grid(self):
        spec = ExperimentSpec(
            ks=(2, 3), ds=(1,), sigma2s=(0.05, 0.1), ns=(50,),
            n_replicates=2, n_seeds=2, methods=("em",), master_seed=3,
        )
        rows = run_experiment(spec)
        assert len(rows) == 2 * 2 * 2 * 2

    def test_best_of_seeds_takes_one_row_per_method(self):
        spec = ExperimentSpec(
            ks=(2,), ds=(1,), sigma2s=(0.05,), ns=(50,),
            n_replicates=2, n_seeds=3, methods=("em", "sem"), master_seed=3,
            selection="best-of-seeds",
        )
        rows = run_experiment(spec)
        assert len(rows) == 2 * 2

    def test_methods_share_inits(self, tiny_spec):
        rows = run_experiment(tiny_spec)
        by_key = {}
        for r in rows:
            by_key.setdefault((r["replicate"], r["seed"]), set()).add(r["init_hash"])
        for key, hashes in by_key.items():
            assert len(hashes) == 1

    def test_deterministic_output_bytes(self, tiny_spec, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_experiment(tiny_spec, out_dir=a)
        run_experiment(tiny_spec, out_dir=b)
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()

    def test_csv_columns(self, tiny_spec, tmp_path):
        run_experiment(tiny_spec, out_dir=tmp_path)
        header = (tmp_path / "results.csv").read_text().splitlines()[0]
        assert header == ",".join(RESULT_COLUMNS)

    def test_timing_fills_wall_ms_for_every_method(self, tiny_spec):
        timed = run_experiment(tiny_spec, timing=True)
        assert {r["method"] for r in timed} == {"kmeans", "em", "sem"}
        assert all(r["wall_ms"] > 0 for r in timed)
        assert all(r["wall_ms"] == 0 for r in run_experiment(tiny_spec))

    def test_every_variance_regime_fits(self):
        spec = ExperimentSpec(
            ks=(2,), ds=(2,), sigma2s=(0.05,), ns=(60,), variance_regimes=("i", "ii", "iii", "iv"),
            n_replicates=1, n_seeds=1, methods=("em", "sem"), master_seed=5,
        )
        rows = run_experiment(spec)
        assert len(rows) == 8
        assert {r["variance_regime"] for r in rows} == {"i", "ii", "iii", "iv"}
        assert all(np.isfinite(r["error"]) and np.isfinite(r["bic"]) for r in rows)

    @pytest.mark.parametrize("selection", ["per-seed", "best-of-seeds"])
    def test_failed_fit_is_a_row_and_never_the_best_seed(self, selection, monkeypatch):
        # the first of each replicate's two EM fits hits an empty component
        fails = itertools.cycle([True, False])

        def em_fit(data, init, cfg):
            if next(fails):
                raise EmptyComponentError(0, 0.0)
            return fitting.em_fit(data, init, cfg)

        monkeypatch.setattr(harness, "em_fit", em_fit)
        spec = ExperimentSpec(
            ks=(2,), ds=(1,), sigma2s=(0.05,), ns=(60,), n_replicates=2, n_seeds=2,
            methods=("em",), master_seed=1, selection=selection,
        )
        rows = run_experiment(spec)
        failed = [r for r in rows if r["seed"] == 0]
        fitted = [r for r in rows if r["seed"] == 1]
        assert len(fitted) == 2 and all(np.isfinite(r["error"]) for r in fitted)
        assert len(failed) == (2 if selection == "per-seed" else 0)
        for r in failed:
            assert r["converged"] is False
            assert [r[c] for c in ("error", "ari", "bic", "iterations")] == [None] * 4

    def test_scores_are_sane(self, tiny_spec):
        rows = run_experiment(tiny_spec)
        for r in rows:
            assert r["error"] >= 0
            assert r["ari"] <= 1.0
            assert r["method"] != "em" or r["bic"] is not None
            assert r["method"] != "kmeans" or r["bic"] is None


class TestSpuriousDemo:
    def test_region_classifier(self):
        truth = spurious_truth(3.0, 9.0, 1.0)
        assert not in_spurious_region(truth, 9.0)
        inside = MixtureParams(
            np.array([[0.0, 0.1], [8.9, 0.0], [9.2, -0.1]]),
            truth.variances,
            truth.weights,
        )
        assert in_spurious_region(inside, 9.0)

    def test_small_demo_shapes_and_summary(self, tmp_path):
        out = tmp_path / "sp.csv"
        rows, summary = run_spurious_demo(
            3.0, 9.0, 1.0, n=2000, trials=2, seed=5, out_path=out
        )
        assert len(rows) == 4
        assert set(summary) == {"em", "sem"}
        assert 0.0 <= summary["em"]["escape_fraction"] <= 1.0
        assert out.exists()
        # EM from the spurious start stays; SEM escapes even at modest N
        assert summary["sem"]["escape_fraction"] >= 0.5
        assert summary["em"]["escape_fraction"] <= 0.5


class TestSelectionSweep:
    def test_single_candidate_degenerate(self):
        rows = run_selection_sweep(
            k_true=3, d=1, sigma2=0.05, n=80, n_replicates=2,
            candidates=[3], n_seeds=1, master_seed=2,
        )
        assert all(r["K_hat"] == 3 and r["diff"] == 0 for r in rows)

    def test_easy_regime_recovers_k(self):
        rows = run_selection_sweep(
            k_true=3, d=2, sigma2=0.001, n=300, n_replicates=2,
            candidates=[2, 3, 4], n_seeds=1, master_seed=4,
        )
        em_rows = [r for r in rows if r["method"] == "em"]
        assert sum(r["K_hat"] == 3 for r in em_rows) >= 1
        assert all(r["K_hat"] in (2, 3, 4) for r in rows)
        assert {r["method"] for r in rows} == {"em", "sem"}

    @pytest.mark.parametrize("bad, expected", [
        ({"k_true": 0}, "k_true must be >= 1, got 0"),
        ({"d": 0}, "d must be >= 1, got 0"),
        ({"n_replicates": 0}, "n_replicates must be >= 1, got 0"),
        ({"sigma2": -1.0}, "sigma2 must be >= 1e-06, got -1"),
        ({"sigma2": float("nan")}, "sigma2 must be >= 1e-06, got nan"),
    ])
    def test_bad_arguments_rejected_before_any_fit(self, bad, expected):
        args = dict(k_true=3, d=1, sigma2=0.05, n=80, n_replicates=1) | bad
        with pytest.raises(ValueError, match=re.escape(expected)):
            run_selection_sweep(**args)


class TestCli:
    def test_simulate_fit_round_trip(self, tmp_path):
        data_csv = tmp_path / "data.csv"
        params_json = tmp_path / "truth.json"
        rc = cli.main([
            "simulate", "--k", "3", "--d", "2", "--sigma2", "0.05", "--n", "150",
            "--seed", "3", "--out-data", str(data_csv), "--out-params", str(params_json),
        ])
        assert rc == 0
        assert Dataset.load_csv(data_csv).n == 150
        truth = MixtureParams.load_json(params_json)
        assert truth.n_components == 3

        report_json = tmp_path / "report.json"
        fit_params = tmp_path / "fit.json"
        rc = cli.main([
            "fit", "--data", str(data_csv), "--method", "sem", "--k", "3",
            "--sigma2", "0.05", "--out-report", str(report_json),
            "--out-params", str(fit_params),
        ])
        assert rc == 0
        report = json.loads(report_json.read_text())
        assert "final_ell" in report
        fitted = MixtureParams.load_json(fit_params)
        assert fitted.n_components == 3

    def test_fit_report_file_is_deterministic(self, tmp_path):
        data_csv = tmp_path / "data.csv"
        cli.main(["simulate", "--k", "3", "--d", "2", "--sigma2", "0.05", "--n", "150",
                  "--seed", "3", "--out-data", str(data_csv),
                  "--out-params", str(tmp_path / "truth.json")])
        reports = [tmp_path / "a.json", tmp_path / "b.json"]
        for report_json in reports:
            rc = cli.main(["fit", "--data", str(data_csv), "--method", "sem", "--k", "3",
                           "--seed", "4", "--trace", "--out-report", str(report_json)])
            assert rc == 0
        assert reports[0].read_bytes() == reports[1].read_bytes()
        report = json.loads(reports[0].read_text())
        assert report["seed"] == 4 and "elapsed" not in report

    def test_fit_sem_update_weights_infers_the_weights(self, tmp_path):
        # classes of 30 and 90 points: the inferred weights leave the uniform
        # start for the class shares
        rng = np.random.default_rng(5)
        points = np.vstack([rng.normal(-1.0, 0.5, size=(30, 2)), rng.normal(1.0, 0.5, size=(90, 2))])
        data_csv = tmp_path / "data.csv"
        Dataset(points).save_csv(data_csv)
        fit_params = tmp_path / "fit.json"
        rc = cli.main([
            "fit", "--data", str(data_csv), "--method", "sem", "--k", "2", "--sigma2", "0.25",
            "--update-weights", "--out-params", str(fit_params), "--out-report", str(tmp_path / "r.json"),
        ])
        assert rc == 0
        weights = np.sort(MixtureParams.load_json(fit_params).weights)
        assert np.allclose(weights, [0.25, 0.75], atol=0.05)

    def test_experiment_subcommand(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(TINY_CONFIG)
        out = tmp_path / "out"
        rc = cli.main(["experiment", "--config", str(cfg), "--out-dir", str(out)])
        assert rc == 0
        assert (out / "results.csv").exists()

    def test_twogauss_subcommand(self, tmp_path):
        curves = tmp_path / "curves.csv"
        iters = tmp_path / "iters.json"
        rc = cli.main([
            "twogauss", "--theta-star", "2.0", "--alpha-star", "0.7",
            "--grid-min", "-1", "--grid-max", "1", "--grid-step", "0.5",
            "--theta0", "0.5", "--steps", "10",
            "--out-curves", str(curves), "--out-iterates", str(iters),
        ])
        assert rc == 0
        assert curves.read_text().splitlines()[0] == "theta,ell,L,dell,dL,alpha_tilt"
        traces = json.loads(iters.read_text())
        assert len(traces["sem"]["theta_trace"]) == 11

    def test_cocluster_subcommand(self, tmp_path):
        rng = np.random.default_rng(0)
        y = np.vstack([
            np.hstack([rng.normal(0, 1, (10, 8)), rng.normal(5, 1, (10, 7))]),
            np.hstack([rng.normal(5, 1, (12, 8)), rng.normal(0, 1, (12, 7))]),
        ])
        data_csv = tmp_path / "matrix.csv"
        np.savetxt(data_csv, y, delimiter=",")
        model_json = tmp_path / "model.json"
        rows_csv = tmp_path / "rows.csv"
        rc = cli.main([
            "cocluster", "--data", str(data_csv), "--k", "2", "--g", "2",
            "--method", "svem", "--sigma2", "1.0",
            "--out-model", str(model_json), "--out-row-labels", str(rows_csv),
        ])
        assert rc == 0
        model = json.loads(model_json.read_text())
        assert np.asarray(model["means"]).shape == (2, 2)
        assert rows_csv.read_text().splitlines()[0] == "index,label"

    @pytest.mark.parametrize("method", ["vem", "svem"])
    def test_cocluster_nan_input_exit_code(self, method, tmp_path, capsys):
        y = np.random.default_rng(0).normal(size=(12, 10))
        y[2, 5] = np.nan
        data_csv = tmp_path / "matrix.csv"
        np.savetxt(data_csv, y, delimiter=",")
        model_json = tmp_path / "model.json"
        rc = cli.main([
            "cocluster", "--data", str(data_csv), "--k", "2", "--g", "2",
            "--method", method, "--out-model", str(model_json),
        ])
        assert rc == 2
        assert "data contains non-finite entries" in capsys.readouterr().err
        assert not model_json.exists()

    def test_spurious_subcommand_smoke(self, tmp_path, capsys):
        rc = cli.main([
            "spurious", "--D", "3", "--R", "9", "--sigma", "1", "--n", "800",
            "--trials", "1", "--seed", "0", "--out", str(tmp_path / "sp.csv"),
        ])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert "sem" in summary

    def test_degenerate_fit_exits_1_without_traceback(self, capsys):
        # three points for three components: a component empties in some trial
        assert cli.main(["spurious", "--n", "3", "--trials", "3", "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: component ") and err.count("\n") == 1

    def test_select_k_subcommand_smoke(self, tmp_path, capsys):
        rc = cli.main([
            "select-k", "--k-true", "2", "--d", "1", "--sigma2", "0.01",
            "--n", "80", "--replicates", "1", "--seeds", "1",
            "--out", str(tmp_path / "sel.csv"),
        ])
        assert rc == 0
        assert (tmp_path / "sel.csv").exists()

    def test_bad_config_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("unknown_key = 1\n")
        rc = cli.main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_missing_file_exit_code(self, tmp_path):
        rc = cli.main([
            "fit", "--data", str(tmp_path / "absent.csv"), "--method", "em", "--k", "2",
        ])
        assert rc == 2

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_bad_input_exit_code(self, case, tmp_path, capsys):
        # each bad input exits 2 with a message naming it, never a traceback
        files, command, expected = BAD_INPUTS[case]
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        assert cli.main([arg.format(tmp=tmp_path) for arg in command.split()]) == 2
        assert expected.format(tmp=tmp_path) in capsys.readouterr().err
