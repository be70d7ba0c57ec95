"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the heavyweight Monte Carlo criteria (9, 10, 11, 12) dominate the
runtime.
"""

import itertools
import math
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from otmix import (
    BlockModel,
    EmptyComponentError,
    FitConfig,
    MixtureParams,
    SinkhornConfig,
    VarianceSpec,
    adjusted_rand_index,
    block_score,
    center_error,
    em_fit,
    grad_loss_entropic,
    loss_entropic,
    loss_entropic_semidual,
    mstep_gaussian,
    neg_loglik,
    random_block_init,
    sample_block_data,
    sample_mixture,
    sem_fit,
    sinkhorn_estep,
    solve_tilt,
    svem_fit,
    vem_fit,
)
from otmix.coclustering import EmptyBlockError
from otmix.harness import ExperimentSpec, run_experiment, run_selection_sweep, run_spurious_demo
from otmix.twogauss import TwoGaussModel, population_iterates
from conftest import random_instance

warnings.simplefilter("ignore")


@contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number:2d}: {text}")
        raise
    print(f"[PASS] criterion {number:2d}: {text}")


def test_c01_sinkhorn_feasibility():
    with criterion(1, "marginal feasibility at 1e-6 on 100 random instances in <10s"):
        rng = np.random.default_rng(101)
        cfg = SinkhornConfig(tolerance=1e-6, max_iterations=200000)
        t0 = time.perf_counter()
        for _ in range(100):
            params, data = random_instance(rng)
            sol = sinkhorn_estep(params, data, cfg)
            assert sol.converged
            assert sol.marginal_error <= 1e-6
            col = sol.responsibilities.column_means()
            assert np.max(np.abs(col - params.weights)) <= 1e-6
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_c02_descent():
    with criterion(2, "EM never increases ell (1e-10); SEM never increases L (10x tol)"):
        rng = np.random.default_rng(102)
        tol = 1e-4
        cfg = FitConfig(sinkhorn=SinkhornConfig(tolerance=tol, max_iterations=20000))
        for i in range(50):
            params, data = random_instance(rng, n=int(rng.integers(30, 250)))
            init = params.with_locations(
                params.locations + rng.normal(scale=0.5, size=params.locations.shape)
            )
            try:
                em = em_fit(data, init, cfg)
                sem = sem_fit(data, init, cfg)
            except EmptyComponentError:
                continue
            ells = [e for e, _ in em.loss_trace]
            assert all(b <= a + 1e-10 for a, b in zip(ells, ells[1:]))
            ls = [l for _, l in sem.loss_trace]
            assert all(b <= a + 10 * tol for a, b in zip(ls, ls[1:]))


def test_c03_domination_and_identity():
    with criterion(3, "L >= ell on 100 random pairs; semi-dual and tilted forms agree to 1e-8"):
        rng = np.random.default_rng(103)
        cfg = SinkhornConfig(tolerance=1e-8, max_iterations=50000)
        for _ in range(100):
            params, data = random_instance(rng, n=int(rng.integers(20, 200)))
            sol = sinkhorn_estep(params, data, cfg)
            decomposed = loss_entropic(params, data, cfg, sol)
            semidual = loss_entropic_semidual(params, data, cfg, sol)
            assert decomposed >= neg_loglik(params, data) - 1e-9
            assert abs(decomposed - semidual) <= 1e-8


def test_c04_gradient_identity():
    with criterion(4, "analytic gradient matches central differences to 1e-4 relative"):
        rng = np.random.default_rng(104)
        cfg = SinkhornConfig(tolerance=1e-10, max_iterations=100000)
        h = 1e-5
        for _ in range(20):
            params, data = random_instance(
                rng, k=int(rng.integers(2, 5)), d=int(rng.integers(1, 4)), n=40
            )
            grad = grad_loss_entropic(params, data, cfg)
            for k in range(params.n_components):
                for j in range(params.dim):
                    lp = params.locations.copy()
                    lm = params.locations.copy()
                    lp[k, j] += h
                    lm[k, j] -= h
                    fd = (
                        loss_entropic(params.with_locations(lp), data, cfg)
                        - loss_entropic(params.with_locations(lm), data, cfg)
                    ) / (2 * h)
                    assert abs(grad.locations[k, j] - fd) / max(abs(fd), 1e-6) < 1e-4


def test_c05_balance_identity():
    with criterion(5, "weighted M-step centers track the sample mean after every step"):
        rng = np.random.default_rng(105)
        tol = 1e-6
        cfg = SinkhornConfig(tolerance=tol, max_iterations=100000)
        for _ in range(20):
            params, data = random_instance(rng, n=int(rng.integers(50, 300)))
            bound = 10 * tol * np.max(np.abs(data.points))
            current = params
            for _ in range(8):
                sol = sinkhorn_estep(current, data, cfg)
                try:
                    current = mstep_gaussian(
                        data, sol.responsibilities, current.variances, current.weights
                    )
                except EmptyComponentError:
                    break
                gap = np.max(np.abs(current.weights @ current.locations - data.points.mean(axis=0)))
                assert gap <= bound


def test_c06_twogauss_rate():
    with criterion(6, "population SEM rate bound exp(-0.125 t) * 1.5 and 1e-6 in 200 steps, <1s"):
        model = TwoGaussModel(2.0, 0.7, 200)
        t0 = time.perf_counter()
        run = population_iterates(model, "sem", 0.5, 200)
        elapsed = time.perf_counter() - t0
        rho = math.exp(-0.125)
        for t in range(101):
            assert abs(run.theta_trace[t] - 2.0) <= rho**t * 1.5 + 1e-12
        assert np.min(np.abs(run.theta_trace - 2.0)) <= 1e-6
        assert any(abs(x - 2.0) <= 1e-6 for x in run.theta_trace)
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_c07_sem_never_worse():
    with criterion(7, "population SEM error <= EM error + 1e-12 from starts above the truth"):
        for alpha_star in (0.6, 0.7, 0.9):
            model = TwoGaussModel(2.0, alpha_star, 200)
            for theta0 in (2.5, 3.0, 5.0):
                sem = population_iterates(model, "sem", theta0, 200).theta_trace
                em = population_iterates(model, "em", theta0, 200).theta_trace
                assert np.all(np.abs(sem - 2.0) <= np.abs(em - 2.0) + 1e-12)


def test_c08_tilt_properties():
    with criterion(8, "tilted weight endpoints, lower bound, and balanced-case identity"):
        for alpha_star in (0.6, 0.8):
            model = TwoGaussModel(1.0, alpha_star, 200)
            assert abs(solve_tilt(model, 0.0) - alpha_star) <= 1e-10
            assert abs(solve_tilt(model, model.theta_star) - alpha_star) <= 1e-10
            for theta in np.linspace(-5.0, 5.0, 41):
                assert solve_tilt(model, float(theta)) > 0.5
        balanced = TwoGaussModel(1.0, 0.5, 200)
        for theta in np.linspace(-5.0, 5.0, 21):
            assert abs(solve_tilt(balanced, float(theta)) - 0.5) <= 1e-12


def test_c09_spurious_demo():
    with criterion(9, "SEM escapes the many-fit-one start >=18/20; EM stays >=18/20; <5min"):
        t0 = time.perf_counter()
        rows, summary = run_spurious_demo(3.0, 9.0, 1.0, n=20000, trials=20, seed=109)
        elapsed = time.perf_counter() - t0
        sem_rows = [r for r in rows if r["method"] == "sem"]
        em_rows = [r for r in rows if r["method"] == "em"]
        sem_recovered = sum(r["error"] < 0.5 for r in sem_rows)
        em_stayed = sum(not r["escaped"] for r in em_rows)
        assert sem_recovered >= 18, f"SEM recovered {sem_recovered}/20"
        assert em_stayed >= 18, f"EM stayed {em_stayed}/20"
        assert elapsed < 300.0, f"took {elapsed:.0f}s"


def test_c10_sweep_trend():
    with criterion(10, "best-of-seeds medians: sem < em <= kmeans (+10% slack), <15min"):
        t0 = time.perf_counter()
        spec = ExperimentSpec(
            ks=(20,), ds=(2,), sigma2s=(0.1,), ns=(1000,),
            variance_regimes=("i",), n_replicates=20, n_seeds=5,
            methods=("kmeans", "em", "sem"), selection="best-of-seeds", master_seed=110,
        )
        rows = run_experiment(spec)
        elapsed = time.perf_counter() - t0
        med = {
            m: float(np.median([r["error"] for r in rows if r["method"] == m]))
            for m in ("kmeans", "em", "sem")
        }
        print(f"  medians: {med} ({elapsed:.0f}s)")
        assert med["sem"] < med["em"], med
        assert med["em"] <= med["kmeans"] * 1.10 + 1e-3, med
        assert elapsed < 900.0, f"took {elapsed:.0f}s"


def test_c11_model_selection():
    with criterion(11, "SEM never overestimates K and matches EM's recovery rate"):
        rows = run_selection_sweep(
            k_true=10, d=2, sigma2=0.01, n=1000, n_replicates=20, n_seeds=2,
            master_seed=111,
        )
        sem_rows = [r for r in rows if r["method"] == "sem"]
        em_rows = [r for r in rows if r["method"] == "em"]
        assert all(r["K_hat"] <= 10 for r in sem_rows), "Sinkhorn-EM K_hat > 10: " + ", ".join(
            f"replicate {r['replicate']} -> {r['K_hat']}" for r in sem_rows if r["K_hat"] > 10
        )
        sem_exact = sum(r["K_hat"] == 10 for r in sem_rows)
        em_exact = sum(r["K_hat"] == 10 for r in em_rows)
        print(f"  exact recovery: sem {sem_exact}/20, em {em_exact}/20")
        assert sem_exact >= em_exact


def test_c12_coclustering():
    with criterion(12, "SVEM matches/beats VEM at every noise level with feasible plans, <10min"):
        t0 = time.perf_counter()
        cfg = FitConfig(
            max_outer_iterations=20,
            sinkhorn=SinkhornConfig(tolerance=1e-3, max_iterations=50000),
        )
        for sigma2 in (1.0, 2.5, 5.0):
            scores = {"vem": [], "svem": []}
            for rep in range(20):
                rng = np.random.default_rng((112, int(sigma2 * 10), rep))
                model = BlockModel(
                    rng.uniform(-5.0, 5.0, size=(5, 5)),
                    np.full((5, 5), sigma2),
                    np.full(5, 0.2),
                    np.full(5, 0.2),
                )
                y, _, _ = sample_block_data(model, 100, 100, rng)
                for s in range(5):
                    init = random_block_init(100, 100, 5, 5, rng)
                    for name, fit in (("vem", vem_fit), ("svem", svem_fit)):
                        try:
                            fitted, _, report = fit(
                                y, 5, 5, init, cfg,
                                variances=model.variances,
                                row_weights=model.row_weights,
                                col_weights=model.col_weights,
                            )
                        except EmptyBlockError:
                            scores[name].append(float("inf"))
                            continue
                        if name == "svem":
                            assert report.max_marginal_error <= 1e-3
                        scores[name].append(block_score(fitted, model))
            med_v = float(np.median(scores["vem"]))
            med_s = float(np.median(scores["svem"]))
            print(f"  sigma2={sigma2}: svem median {med_s:.3f} vs vem median {med_v:.3f}")
            assert med_s <= med_v
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0, f"took {elapsed:.0f}s"


def test_c13_metrics_oracles():
    with criterion(13, "assignment matcher equals K! enumeration; ARI equals pair counting"):
        rng = np.random.default_rng(113)
        for _ in range(100):
            k = int(rng.integers(1, 7))
            d = int(rng.integers(1, 4))
            fitted, _ = random_instance(rng, k=k, d=d, n=20)
            truth, _ = random_instance(rng, k=k, d=d, n=20)
            brute = min(
                np.mean(
                    [
                        np.sum((fitted.locations[p[i]] - truth.locations[i]) ** 2)
                        for i in range(k)
                    ]
                )
                for p in itertools.permutations(range(k))
            )
            assert center_error(fitted, truth) == pytest.approx(brute, rel=1e-12, abs=1e-15)
        for _ in range(100):
            n = int(rng.integers(3, 40))
            a = rng.integers(0, int(rng.integers(1, 6)) + 1, size=n)
            b = rng.integers(0, int(rng.integers(1, 6)) + 1, size=n)
            same_a = np.equal.outer(a, a)
            same_b = np.equal.outer(b, b)
            iu = np.triu_indices(n, k=1)
            n11 = np.sum(same_a[iu] & same_b[iu])
            n10 = np.sum(same_a[iu] & ~same_b[iu])
            n01 = np.sum(~same_a[iu] & same_b[iu])
            total = iu[0].size
            expected = (n11 + n10) * (n11 + n01) / total
            max_index = 0.5 * ((n11 + n10) + (n11 + n01))
            oracle = 1.0 if max_index == expected else (n11 - expected) / (max_index - expected)
            assert adjusted_rand_index(a, b) == pytest.approx(oracle, abs=1e-12)


def test_c14_determinism(tmp_path):
    with criterion(14, "identical master seed reproduces output files byte for byte"):
        spec = ExperimentSpec(
            ks=(3, 4), ds=(2,), sigma2s=(0.05,), ns=(150,),
            n_replicates=2, n_seeds=2, methods=("kmeans", "em", "sem"), master_seed=114,
        )
        a, b = tmp_path / "a", tmp_path / "b"
        run_experiment(spec, out_dir=a)
        run_experiment(spec, out_dir=b)
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
        sel_a = tmp_path / "sel_a.csv"
        sel_b = tmp_path / "sel_b.csv"
        run_selection_sweep(
            k_true=3, d=1, sigma2=0.02, n=100, n_replicates=2, candidates=[2, 3, 4],
            n_seeds=1, master_seed=114, out_path=sel_a,
        )
        run_selection_sweep(
            k_true=3, d=1, sigma2=0.02, n=100, n_replicates=2, candidates=[2, 3, 4],
            n_seeds=1, master_seed=114, out_path=sel_b,
        )
        assert sel_a.read_bytes() == sel_b.read_bytes()
