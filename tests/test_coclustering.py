import itertools
import re
import warnings
from unittest.mock import patch

import numpy as np
import pytest

from otmix import (
    BlockModel,
    BlockResponsibilities,
    EmptyBlockError,
    FitConfig,
    SinkhornConfig,
    SinkhornNonConvergence,
    block_score,
    random_block_init,
    sample_block_data,
    svem_fit,
    transport_responsibilities,
    vem_fit,
)
from otmix import coclustering
from otmix.coclustering import (
    _check_block_masses,
    _initial_parameters,
    aggregate_stats,
    one_hot,
)


def make_model(rng, k=3, g=2, var=1.0, mean_scale=5.0):
    means = rng.uniform(-mean_scale, mean_scale, size=(k, g))
    return BlockModel(
        means, np.full((k, g), var), np.full(k, 1.0 / k), np.full(g, 1.0 / g)
    )


class TestSampleBlockData:
    def test_same_seed_bit_identical(self, rng):
        model = make_model(rng)
        a = sample_block_data(model, 20, 15, 99)
        b = sample_block_data(model, 20, 15, 99)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_floor_variance_entries_hug_block_means(self, rng):
        model = make_model(rng, var=1e-6)
        y, rows, cols = sample_block_data(model, 30, 25, 1)
        expected = model.means[rows][:, cols]
        assert np.max(np.abs(y - expected)) < 5 * np.sqrt(1e-6)

    def test_k1_g1_iid_gaussian(self):
        model = BlockModel(np.array([[2.0]]), np.array([[4.0]]), np.array([1.0]), np.array([1.0]))
        y, rows, cols = sample_block_data(model, 200, 100, 3)
        assert np.all(rows == 0) and np.all(cols == 0)
        assert abs(y.mean() - 2.0) < 4 * 2.0 / np.sqrt(200 * 100)

    def test_dimension_preconditions(self, rng):
        model = make_model(rng, k=3, g=2)
        with pytest.raises(ValueError):
            sample_block_data(model, 2, 10, 0)


class TestInitialization:
    def test_step2_matches_double_loop(self, rng):
        y = rng.normal(size=(10, 10))
        z = rng.dirichlet(np.ones(3), size=10)
        w = rng.dirichlet(np.ones(2), size=10)
        means, variances, pi, rho = _initial_parameters(y, z, w)
        for k in range(3):
            for g in range(2):
                num = sum(
                    z[i, k] * w[j, g] * y[i, j] for i in range(10) for j in range(10)
                )
                den = z[:, k].sum() * w[:, g].sum()
                mu = num / den
                assert means[k, g] == pytest.approx(mu, abs=1e-12)
                sq = sum(
                    z[i, k] * w[j, g] * y[i, j] ** 2 for i in range(10) for j in range(10)
                )
                assert variances[k, g] == pytest.approx(sq / den - mu**2, abs=1e-12)
        assert np.allclose(pi, z.mean(axis=0), atol=1e-12)
        assert np.allclose(rho, w.mean(axis=0), atol=1e-12)

    def test_aggregate_stats_match_definitions(self, rng):
        y = rng.normal(size=(8, 6))
        w = rng.dirichlet(np.ones(2), size=6)
        yw, uw = aggregate_stats(y, w)
        for i in range(8):
            for g in range(2):
                num = sum(w[j, g] * y[i, j] for j in range(6))
                den = w[:, g].sum()
                assert yw[i, g] == pytest.approx(num / den, abs=1e-12)
                num2 = sum(w[j, g] * y[i, j] ** 2 for j in range(6))
                assert uw[i, g] == pytest.approx(num2 / den, abs=1e-12)

    def test_empty_block_guard(self):
        with pytest.raises(EmptyBlockError):
            _check_block_masses(np.array([1.0, 0.0]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("fit", [vem_fit, svem_fit])
    def test_emptied_column_class_is_named_as_its_block(self, fit):
        # identical columns give both column classes the same cost, so the
        # column phase hands class 1 its weight, 1e-14, of every column
        y = np.repeat(np.array([0.0, 0.0, 5.0, 5.0, 10.0, 10.0])[:, None], 4, axis=1)
        init = BlockResponsibilities(
            one_hot(np.array([0, 0, 1, 1, 2, 2]), 3), one_hot(np.array([0, 0, 1, 1]), 2)
        )
        with pytest.raises(EmptyBlockError) as info:
            fit(y, 3, 2, init, FitConfig(), variances=1.0, col_weights=[1 - 1e-14, 1e-14])
        assert info.value.g == 1 and info.value.k < 3


class TestNonFiniteInput:
    def test_block_responsibilities_reject_nan(self):
        z = np.array([[0.5, 0.5], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="z contains non-finite"):
            BlockResponsibilities(z, np.ones((3, 1)))

    def test_block_model_rejects_nan(self):
        means = np.array([[0.0, np.nan]])
        with pytest.raises(ValueError, match="means contains non-finite"):
            BlockModel(means, np.ones((1, 2)), np.ones(1), np.full(2, 0.5))

    @pytest.mark.parametrize("fit", [vem_fit, svem_fit])
    def test_fit_rejects_nan_data(self, fit, rng):
        y = rng.normal(size=(12, 10))
        y[3, 4] = np.nan
        init = random_block_init(12, 10, 2, 2, 0)
        with pytest.raises(ValueError, match="data contains non-finite"):
            fit(y, 2, 2, init, FitConfig())

    @pytest.mark.parametrize("fit", [vem_fit, svem_fit])
    @pytest.mark.parametrize("shape", [(12,), (12, 10, 2)], ids=["1-D", "3-D"])
    def test_fit_rejects_non_matrix_data(self, fit, shape, rng):
        init = random_block_init(12, 10, 2, 2, 0)
        message = f"data must be an (N, M) matrix, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            fit(rng.normal(size=shape), 2, 2, init, FitConfig())


# override: (argument, value, expected error text); K = G = 2
BAD_OVERRIDES = {
    "variance-zero": ("variances", 0.0, "variances must be >= 1e-06"),
    "variance-nan": ("variances", np.nan, "variances contains non-finite entries"),
    "variance-shape": ("variances", np.ones((3, 2)), "variances of shape (3, 2) must broadcast to (2, 2)"),
    "row-sum": ("row_weights", [0.7, 0.7], "row_weights must be 2 positive numbers summing to 1"),
    "col-shape": ("col_weights", [1.0], "col_weights must be 2 positive numbers summing to 1"),
}


class TestOverrides:
    @pytest.mark.parametrize("fit", [vem_fit, svem_fit])
    @pytest.mark.parametrize("case", sorted(BAD_OVERRIDES))
    def test_bad_override_fails_before_fitting(self, case, fit, rng):
        name, value, expected = BAD_OVERRIDES[case]
        y = rng.normal(size=(12, 10))
        # an empty row class: any fitting step would raise EmptyBlockError first
        z = one_hot(np.zeros(12, dtype=int), 2)
        init = BlockResponsibilities(z, random_block_init(12, 10, 2, 2, 0).w)
        with pytest.raises(ValueError, match=re.escape(expected)):
            fit(y, 2, 2, init, FitConfig(), **{name: value})

    def test_valid_overrides_are_used(self, rng):
        y = rng.normal(size=(12, 10))
        init = random_block_init(12, 10, 2, 2, 0)
        model, _, _ = vem_fit(
            y, 2, 2, init, FitConfig(), variances=[[0.5], [0.25]], row_weights=[0.25, 0.75]
        )
        assert np.array_equal(model.variances, [[0.5, 0.5], [0.25, 0.25]])
        assert np.array_equal(model.row_weights, [0.25, 0.75])


class TestVemFit:
    def test_true_hard_init_recovers_block_means(self, rng):
        model = make_model(rng, k=3, g=2, var=0.01)
        y, rows, cols = sample_block_data(model, 60, 40, 7)
        init = BlockResponsibilities(one_hot(rows, 3), one_hot(cols, 2))
        cfg = FitConfig(update_variances=True, update_weights=True)
        fitted, resp, report = vem_fit(y, 3, 2, init, cfg)
        # per-block sample means oracle
        for k in range(3):
            for g in range(2):
                block = y[np.ix_(rows == k, cols == g)]
                assert fitted.means[k, g] == pytest.approx(block.mean(), abs=1e-6)
        assert report.converged

    def test_k1_g1_grand_moments(self):
        y = np.random.default_rng(0).normal(size=(20, 10)) * 2.0 + 1.0
        init = BlockResponsibilities(np.ones((20, 1)), np.ones((10, 1)))
        cfg = FitConfig(update_variances=True, update_weights=True)
        fitted, _, _ = vem_fit(y, 1, 1, init, cfg)
        assert fitted.means[0, 0] == pytest.approx(y.mean(), abs=1e-10)
        assert fitted.variances[0, 0] == pytest.approx(y.var(), abs=1e-10)

    def test_row_stochastic_and_floored_throughout(self, rng):
        model = make_model(rng, k=3, g=3, var=1.0)
        y, _, _ = sample_block_data(model, 50, 50, 2)
        init = random_block_init(50, 50, 3, 3, 11)
        cfg = FitConfig(update_variances=True, update_weights=True)
        fitted, resp, _ = vem_fit(y, 3, 3, init, cfg)
        assert np.max(np.abs(resp.z.sum(axis=1) - 1.0)) < 1e-10
        assert np.max(np.abs(resp.w.sum(axis=1) - 1.0)) < 1e-10
        assert np.all(fitted.variances >= 1e-6)

    def test_inner_surrogate_nonincreasing(self, rng):
        model = make_model(rng, k=3, g=3, var=2.0)
        y, _, _ = sample_block_data(model, 40, 40, 5)
        init = random_block_init(40, 40, 3, 3, 4)
        cfg = FitConfig(update_variances=True, update_weights=True)
        _, _, report = vem_fit(y, 3, 3, init, cfg)
        assert report.inner_surrogates
        for trace in report.inner_surrogates:
            for a, b in zip(trace, trace[1:]):
                assert b <= a + 1e-8

    def test_last_surrogate_is_the_objective_at_the_returned_fit(self, rng):
        # the last entry closes the column phase: its objective over the
        # column assignments w at the returned parameters, fit term - prior
        # term + sum w log w, with the fit term from its definition
        from scipy.special import xlogy

        model = make_model(rng, k=3, g=2, var=1.5)
        y, _, _ = sample_block_data(model, 30, 25, 6)
        init = random_block_init(30, 25, 3, 2, 9)
        cfg = FitConfig(update_variances=True, update_weights=True)
        fitted, resp, report = vem_fit(y, 3, 2, init, cfg)
        mu, var = fitted.means, fitted.variances
        sq_err = (y[:, None, :, None] - mu[None, :, None, :]) ** 2  # (i, k, j, g)
        cost = 0.5 * np.einsum("ik,ikjg->jg", resp.z, np.log(var)[None, :, None, :]
                               + sq_err / var[None, :, None, :])
        objective = (np.sum(resp.w * cost) - np.sum(resp.w @ np.log(fitted.col_weights))
                     + np.sum(xlogy(resp.w, resp.w)))
        assert report.inner_surrogates[-1][-1] == pytest.approx(objective, rel=1e-9)


class TestSvemFit:
    def test_k1_g1_identical_to_vem(self):
        y = np.random.default_rng(1).normal(size=(15, 12)) + 3.0
        init = BlockResponsibilities(np.ones((15, 1)), np.ones((12, 1)))
        cfg = FitConfig(update_variances=True)
        a, _, _ = vem_fit(y, 1, 1, init, cfg)
        b, _, _ = svem_fit(y, 1, 1, init, cfg)
        assert a.means[0, 0] == pytest.approx(b.means[0, 0], abs=1e-12)
        assert a.variances[0, 0] == pytest.approx(b.variances[0, 0], abs=1e-12)

    def test_marginal_feasibility_reported(self, rng):
        model = make_model(rng, k=4, g=3, var=1.0)
        y, _, _ = sample_block_data(model, 60, 45, 8)
        init = random_block_init(60, 45, 4, 3, 21)
        cfg = FitConfig(
            max_outer_iterations=20,
            sinkhorn=SinkhornConfig(tolerance=1e-3, max_iterations=20000),
        )
        _, resp, report = svem_fit(
            y, 4, 3, init, cfg, variances=model.variances, row_weights=model.row_weights,
            col_weights=model.col_weights,
        )
        assert report.max_marginal_error <= 1e-3
        assert np.max(np.abs(resp.z.mean(axis=0) - model.row_weights)) <= 1e-3
        assert np.max(np.abs(resp.w.mean(axis=0) - model.col_weights)) <= 1e-3

    def test_weight_updates_interleaved(self, rng):
        # with cfg.update_weights the cadence mixes plain updates in, so the
        # weights move away from their uniform initialization
        model = BlockModel(
            rng.uniform(-5, 5, size=(2, 2)),
            np.full((2, 2), 0.5),
            np.array([0.8, 0.2]),
            np.array([0.5, 0.5]),
        )
        y, rows, cols = sample_block_data(model, 80, 40, 3)
        init = BlockResponsibilities(one_hot(rows, 2), one_hot(cols, 2))
        cfg = FitConfig(update_weights=True)
        fitted, _, _ = svem_fit(y, 2, 2, init, cfg)
        observed = np.sort(np.bincount(rows, minlength=2) / 80.0)
        assert np.max(np.abs(np.sort(fitted.row_weights) - observed)) < 0.05

    def test_cold_c12_column_solve_converges(self):
        # C12 at sigma2 = 2.5, replicate 13, start 4: the column phase's first,
        # cold solve; a Newton finish without a bounded step left it at marginal
        # error 0.8 for all of C12's 50,000 iterations
        rng = np.random.default_rng((112, 25, 13))
        model = BlockModel(rng.uniform(-5.0, 5.0, size=(5, 5)), np.full((5, 5), 2.5),
                           np.full(5, 0.2), np.full(5, 0.2))
        y, _, _ = sample_block_data(model, 100, 100, rng)
        for _ in range(5):
            init = random_block_init(100, 100, 5, 5, rng)
        cfg = FitConfig(max_outer_iterations=20,
                        sinkhorn=SinkhornConfig(tolerance=1e-3, max_iterations=50000))
        cold = []

        def first_two_cold_solves(log_kernel, weights, sinkhorn, omega):
            if omega is None:
                cold.append(log_kernel)
                if len(cold) == 2:
                    raise StopIteration
            return transport_responsibilities(log_kernel, weights, sinkhorn, omega)

        with patch.object(coclustering, "transport_responsibilities", first_two_cold_solves), \
                pytest.raises(StopIteration):
            svem_fit(y, 5, 5, init, cfg, variances=model.variances,
                     row_weights=model.row_weights, col_weights=model.col_weights)
        solution = transport_responsibilities(cold[1], model.col_weights, cfg.sinkhorn)
        assert solution.converged and solution.iterations < 1000

    def test_inferred_weights_at_tight_tolerance_cap_no_solve(self):
        # the property tests' recipe from default_rng(0), with known variances:
        # near hard assignments, the weight-inference solves once stopped at the
        # iteration cap
        rng = np.random.default_rng(0)
        truth = BlockModel(rng.uniform(-3.0, 3.0, size=(3, 3)), rng.uniform(0.5, 1.5, size=(3, 3)),
                           rng.dirichlet(np.full(3, 10.0)), rng.dirichlet(np.full(3, 10.0)))
        y, _, _ = sample_block_data(truth, 35, 22, rng)
        init = random_block_init(35, 22, 3, 3, rng)
        cfg = FitConfig(sinkhorn=SinkhornConfig(tolerance=1e-10), update_weights=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", SinkhornNonConvergence)
            _, _, report = svem_fit(y, 3, 3, init, cfg, variances=truth.variances)
        assert report.max_marginal_error <= 1e-10


class TestBlockScore:
    def test_permuted_model_scores_zero(self, rng):
        model = make_model(rng, k=4, g=3)
        rp = rng.permutation(4)
        cp = rng.permutation(3)
        permuted = BlockModel(
            model.means[np.ix_(rp, cp)],
            model.variances[np.ix_(rp, cp)],
            model.row_weights[rp],
            model.col_weights[cp],
        )
        assert block_score(permuted, model) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("k", [9, 10, 11, 12])
    def test_permuted_copy_scores_zero_beyond_exact_search(self, k):
        # K > 8 takes the alternating refinement instead of full enumeration
        rng = np.random.default_rng(k)
        for g in range(2, 8):
            model = make_model(rng, k=k, g=g)
            rp, cp = rng.permutation(k), rng.permutation(g)
            permuted = BlockModel(
                model.means[np.ix_(rp, cp)],
                model.variances[np.ix_(rp, cp)],
                model.row_weights[rp],
                model.col_weights[cp],
            )
            assert block_score(permuted, model) <= 1e-12

    def test_k1_g1_squared_difference(self):
        a = BlockModel(np.array([[2.0]]), np.array([[1.0]]), np.array([1.0]), np.array([1.0]))
        b = BlockModel(np.array([[3.0]]), np.array([[1.0]]), np.array([1.0]), np.array([1.0]))
        assert block_score(a, b) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("k, g", [(2, 2), (3, 2), (2, 4), (4, 3)],
                             ids=["2x2", "3x2", "2x4", "4x3"])
    def test_matches_brute_force_enumeration(self, rng, k, g):
        for _ in range(20):
            fitted = make_model(rng, k=k, g=g)
            truth = make_model(rng, k=k, g=g)
            best = min(
                np.mean((fitted.means[np.ix_(rp, cp)] - truth.means) ** 2)
                for rp in itertools.permutations(range(k))
                for cp in itertools.permutations(range(g))
            )
            assert block_score(fitted, truth) == pytest.approx(best, rel=1e-12)

    def test_shape_mismatch(self, rng):
        a = make_model(rng, k=2, g=2)
        b = make_model(rng, k=3, g=2)
        with pytest.raises(ValueError):
            block_score(a, b)


class TestSvemVsVem:
    def test_svem_not_worse_in_hard_regime(self):
        # mini version of the 5x5-block comparison where plain VEM is prone
        # to collapses and block mix-ups; the full sweep lives in the
        # acceptance suite.  Failed fits (empty classes) score infinity.
        scores = {"vem": [], "svem": []}
        cfg = FitConfig(
            max_outer_iterations=20,
            sinkhorn=SinkhornConfig(tolerance=1e-3, max_iterations=20000),
        )
        for rep in range(2):
            rng = np.random.default_rng(400 + rep)
            model = BlockModel(
                rng.uniform(-5, 5, size=(5, 5)),
                np.full((5, 5), 2.5),
                np.full(5, 0.2),
                np.full(5, 0.2),
            )
            y, _, _ = sample_block_data(model, 100, 100, rep)
            best = {"vem": np.inf, "svem": np.inf}
            for s in range(3):
                init = random_block_init(100, 100, 5, 5, 10 * rep + s)
                for name, fit in (("vem", vem_fit), ("svem", svem_fit)):
                    try:
                        fitted, _, _ = fit(
                            y, 5, 5, init, cfg,
                            variances=model.variances,
                            row_weights=model.row_weights,
                            col_weights=model.col_weights,
                        )
                    except EmptyBlockError:
                        continue
                    best[name] = min(best[name], block_score(fitted, model))
            scores["vem"].append(best["vem"])
            scores["svem"].append(best["svem"])
        assert np.median(scores["svem"]) <= np.median(scores["vem"]) + 1e-9
