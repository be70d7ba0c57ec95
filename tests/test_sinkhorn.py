import math
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from scipy.special import logsumexp

from otmix import (
    Dataset,
    MixtureParams,
    SinkhornConfig,
    SinkhornNonConvergence,
    VarianceSpec,
    component_log_densities,
    grad_loss_entropic,
    loss_entropic,
    loss_entropic_semidual,
    neg_loglik,
    sample_mixture,
    sem_fit,
    sinkhorn_estep,
    tilt_weights,
    transport_responsibilities,
)
from otmix import sinkhorn
from otmix.fitting import FitConfig
from otmix.sinkhorn import ABSORB_BOUND, SCALING_BUDGET
from conftest import random_instance

TIGHT = SinkhornConfig(tolerance=1e-10, max_iterations=50000)


def scalar_params(locs, var=1.0, weights=None):
    locs = np.asarray(locs, dtype=float)[:, None]
    k = locs.shape[0]
    w = np.full(k, 1.0 / k) if weights is None else np.asarray(weights, dtype=float)
    return MixtureParams(locs, VarianceSpec.shared(var), w)


def bisect_omega_k2(params, data, tol=1e-13):
    """Scalar oracle for K=2: solve mean Psi_1(u) = alpha_1 for u = omega_1.

    The mean first-component responsibility is strictly increasing in u, so
    plain bisection on a wide bracket pins the single free potential
    (gauge omega_2 = 0).
    """
    logq = component_log_densities(params, data.points)
    a1, a2 = params.weights

    def mean_psi1(u):
        t = np.exp(
            (np.log(a1) + u + logq[:, 0])
            - np.logaddexp(np.log(a1) + u + logq[:, 0], np.log(a2) + logq[:, 1])
        )
        return t.mean()

    lo, hi = -200.0, 200.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mean_psi1(mid) < a1:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def finishing_kernel():
    """A 100 x 5 log kernel and weights whose cold solve at tolerance 1e-8 outlasts the
    scaling budget while its potentials stay within ABSORB_BOUND of zero."""
    rng = np.random.default_rng(0)
    return rng.normal(scale=3.0, size=(100, 5)), rng.dirichlet(np.ones(5))


class TestSinkhornEstep:
    def test_single_component_trivial(self):
        params = scalar_params([1.0])
        data = Dataset(np.array([[0.0], [5.0]]))
        sol = sinkhorn_estep(params, data, SinkhornConfig())
        assert sol.iterations == 1
        assert sol.marginal_error == 0.0
        assert np.allclose(sol.potentials, 0.0)
        assert np.allclose(sol.responsibilities.matrix, 1.0)

    def test_symmetric_configuration_needs_no_tilt(self):
        params = scalar_params([-1.0, 1.0])
        data = Dataset(np.array([[-1.0], [1.0]]))
        sol = sinkhorn_estep(params, data, SinkhornConfig(tolerance=1e-12))
        assert np.allclose(sol.potentials, 0.0, atol=1e-12)
        assert np.allclose(tilt_weights(params.weights, sol.potentials), params.weights, atol=1e-12)

    @pytest.mark.parametrize(
        "weights, points",
        [(None, [0.0, 0.25, 1.0]), ([0.4, 0.6], [0.0, 0.3, 0.9, 1.4])],
        ids=["uniform", "weighted"],
    )
    def test_matches_bisection_oracle_k2(self, weights, points):
        params = scalar_params([0.0, 1.0], weights=weights)
        data = Dataset(np.array(points)[:, None])
        oracle = bisect_omega_k2(params, data)
        sol = sinkhorn_estep(params, data, SinkhornConfig(tolerance=1e-12, max_iterations=100000))
        # solver pins the last coordinate to zero, same gauge as the oracle
        assert sol.potentials[1] == 0.0
        assert sol.potentials[0] == pytest.approx(oracle, abs=1e-8)

    def test_marginal_feasibility_random_instances(self, rng):
        cfg = SinkhornConfig(tolerance=1e-8, max_iterations=20000)
        for _ in range(30):
            params, data = random_instance(rng)
            sol = sinkhorn_estep(params, data, cfg)
            assert sol.converged
            assert sol.marginal_error <= 1e-8
            col = sol.responsibilities.column_means()
            assert np.max(np.abs(col - params.weights)) <= 1e-8
            rows = sol.responsibilities.matrix.sum(axis=1)
            assert np.max(np.abs(rows - 1.0)) < 1e-10

    def test_dual_reconstruction_matches_plan(self, rng):
        # responsibilities rebuilt from omega equal the solver plan entrywise
        for _ in range(10):
            params, data = random_instance(rng, k=4)
            sol = sinkhorn_estep(params, data, TIGHT)
            logq = component_log_densities(params, data.points)
            logits = logq + np.log(params.weights) + sol.potentials
            shifted = logits - logits.max(axis=1, keepdims=True)
            rebuilt = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
            assert np.max(np.abs(rebuilt - sol.responsibilities.matrix)) < 1e-8

    def test_nonconvergence_warns_and_reports(self):
        params = scalar_params([-50.0, 50.0], var=1e-2)
        data = Dataset(np.array([[-50.0]] * 9 + [[50.0]]))
        cfg = SinkhornConfig(tolerance=1e-10, max_iterations=2)
        with pytest.warns(SinkhornNonConvergence):
            sol = sinkhorn_estep(params, data, cfg)
        assert not sol.converged
        assert sol.marginal_error > 1e-10
        assert sol.iterations == 2

    def test_capped_solve_returns_the_point_of_its_plan(self):
        # stopped at its cap, a solve returns the potentials its plan, marginal
        # error and log partition were computed from, not the next update: at a
        # cap within the scaling budget, and at caps among the Newton steps
        rng = np.random.default_rng(7)
        cases = [(rng.normal(scale=3.0, size=(200, 4)), rng.dirichlet(np.ones(4)), 5)]
        cases += [(*finishing_kernel(), cap)
                  for cap in range(SCALING_BUDGET + 1, SCALING_BUDGET + 5)]
        for log_kernel, weights, cap in cases:
            cfg = SinkhornConfig(tolerance=1e-12, max_iterations=cap)
            with pytest.warns(SinkhornNonConvergence):
                sol = transport_responsibilities(log_kernel, weights, cfg)
            assert not sol.converged and sol.iterations == cap
            logits = log_kernel + np.log(weights) + sol.potentials
            lse = logsumexp(logits, axis=1)
            plan = np.exp(logits - lse[:, None])
            assert np.max(np.abs(plan - sol.responsibilities.matrix)) <= 1e-12
            error = np.max(np.abs(plan.mean(axis=0) - weights))
            assert sol.marginal_error == pytest.approx(error, rel=0, abs=1e-12)
            assert np.max(np.abs(sol.log_partition - lse)) <= 1e-12

    def test_empty_column_takes_the_exact_sinkhorn_update(self):
        # column 0 sits 1e4 below the others, so its mass underflows to zero at
        # the start; the update takes log m from the log plan, column by column,
        # instead of flooring it, and lands on the exact log-space update
        rng = np.random.default_rng(5)
        log_kernel = rng.normal(size=(30, 3))
        log_kernel[:, 0] -= 1e4
        weights = np.array([0.2, 0.3, 0.5])
        with pytest.warns(SinkhornNonConvergence):
            sol = transport_responsibilities(log_kernel, weights, SinkhornConfig(max_iterations=2))
        logits = log_kernel + np.log(weights)
        logits -= logsumexp(logits, axis=1, keepdims=True)
        exact = np.log(weights) - (logsumexp(logits, axis=0) - np.log(30))
        exact -= exact[-1]
        assert exact[0] > 9000.0
        assert np.max(np.abs(sol.potentials - exact)) <= 1e-9

    @pytest.mark.parametrize("log_kernel, weights, initial_potentials, name", [
        (np.zeros(3), np.full(3, 1 / 3), None, "log_kernel"),
        (np.zeros((0, 3)), np.full(3, 1 / 3), None, "log_kernel"),
        (np.zeros((4, 3)), np.full(2, 0.5), None, "weights"),
        (np.zeros((4, 3)), np.array([0.5, 0.5, 0.0]), None, "weights"),
        (np.zeros((4, 3)), np.array([0.75, 0.5, -0.25]), None, "weights"),
        (np.array([[0.0, 1.0, 2.0], [0.0, np.nan, 2.0]]), np.full(3, 1 / 3), None, "log_kernel"),
        (np.zeros((4, 3)), np.full(3, 1 / 3), np.array([0.0, np.nan, 0.0]), "initial_potentials"),
        (np.where(np.arange(5) == 1, -np.inf, np.random.default_rng(0).normal(size=(100, 5))),
         np.full(5, 0.2), None, "log_kernel column 1"),
    ], ids=["1-D", "empty", "wrong-length", "zero-weight", "negative-weight", "nan-kernel",
            "nan-start", "all-inf-column"])
    def test_bad_input_names_its_argument(self, log_kernel, weights, initial_potentials, name):
        with pytest.raises(ValueError, match=name):
            transport_responsibilities(log_kernel, weights, SinkhornConfig(), initial_potentials)

    def test_first_pass_solve_is_one_log_domain_pass(self):
        # a solve that converges on its first pass returns that pass's bits:
        # the plan, log partition and error of one log-space softmax
        rng = np.random.default_rng(11)
        log_kernel = rng.normal(scale=3.0, size=(300, 4))
        weights = rng.dirichlet(np.ones(4))
        omega = transport_responsibilities(log_kernel, weights, TIGHT).potentials
        sol = transport_responsibilities(log_kernel, weights, SinkhornConfig(), omega)
        assert sol.converged and sol.iterations == 1
        logits = log_kernel + (np.log(weights) + omega)[None, :]
        row_max = logits.max(axis=1)
        shifted = np.exp(logits - row_max[:, None])
        row_sum = shifted @ np.ones(4)
        plan = shifted / row_sum[:, None]
        assert np.array_equal(sol.potentials, omega)
        assert np.array_equal(sol.responsibilities.matrix, plan)
        assert np.array_equal(sol.log_partition, row_max + np.log(row_sum))
        assert sol.marginal_error == np.abs(np.ones(300) @ plan / 300 - weights).max()

    def test_solve_within_the_scaling_budget_keeps_its_bits(self):
        # a solve that converges within SCALING_BUDGET iterations never reaches
        # the Newton finish, so a cap of SCALING_BUDGET returns the same bits.
        # Warm-started from a loose solve, a tighter one takes a few plain steps
        rng = np.random.default_rng(11)
        log_kernel = rng.normal(scale=3.0, size=(300, 4))
        weights = rng.dirichlet(np.ones(4))
        warm = transport_responsibilities(log_kernel, weights, SinkhornConfig()).potentials
        short = transport_responsibilities(
            log_kernel, weights, SinkhornConfig(tolerance=1e-4, max_iterations=SCALING_BUDGET),
            warm)
        full = transport_responsibilities(
            log_kernel, weights, SinkhornConfig(tolerance=1e-4, max_iterations=1000), warm)
        assert short.converged and 1 < short.iterations < SCALING_BUDGET
        assert short.iterations == full.iterations
        assert np.array_equal(short.potentials, full.potentials)
        assert np.array_equal(short.responsibilities.matrix, full.responsibilities.matrix)
        assert np.array_equal(short.log_partition, full.log_partition)
        assert short.marginal_error == full.marginal_error

    def test_newton_trials_within_the_bound_take_no_log_domain_pass(self):
        # the Newton finish takes each trial within ABSORB_BOUND of the absorbed
        # potentials in scaling form on the absorbed plan, so the first pass is
        # the solve's only log-space pass
        log_kernel, weights = finishing_kernel()
        with patch.object(sinkhorn, "_log_domain_pass", wraps=sinkhorn._log_domain_pass) as pass_:
            sol = transport_responsibilities(log_kernel, weights, SinkhornConfig(tolerance=1e-8))
        assert sol.converged and sol.iterations > SCALING_BUDGET
        assert np.abs(sol.potentials).max() <= ABSORB_BOUND
        assert pass_.call_count == 1

    def test_scaled_newton_finish_returns_the_log_domain_plan(self):
        # the plan built from the finish's scaling state is the log-space
        # softmax at the returned potentials, with its log partition and error
        log_kernel, weights = finishing_kernel()
        sol = transport_responsibilities(log_kernel, weights, SinkhornConfig(tolerance=1e-8))
        assert sol.converged and sol.iterations > SCALING_BUDGET
        logits = log_kernel + np.log(weights) + sol.potentials
        lse = logsumexp(logits, axis=1)
        plan = np.exp(logits - lse[:, None])
        assert np.max(np.abs(plan - sol.responsibilities.matrix)) <= 1e-12
        assert np.max(np.abs(sol.log_partition - lse)) <= 1e-12
        error = np.max(np.abs(plan.mean(axis=0) - weights))
        assert sol.marginal_error == pytest.approx(error, rel=0, abs=1e-12)

    def test_potentials_flat_at_truth_for_large_n(self):
        # population limit: at the true parameters of an overlapping mixture
        # the potentials shrink with N, so tilting by them leaves the weights
        # nearly alone.  (With nearly disjoint components the sample-level
        # potentials are genuinely large: matching marginals then requires
        # real transport.)
        truth = scalar_params([-1.0, 0.0, 1.0], var=1.0, weights=[0.3, 0.3, 0.4])
        data = sample_mixture(truth, 20000, 5)
        cfg = SinkhornConfig(tolerance=1e-8, max_iterations=20000)
        omega = sinkhorn_estep(truth, data, cfg).potentials
        assert np.max(np.abs(omega - omega.mean())) < 0.05
        assert np.max(np.abs(tilt_weights(truth.weights, -omega) - truth.weights)) < 0.02

    def test_translation_equivariance(self, rng):
        params, data = random_instance(rng, k=3, d=2, n=60)
        shift = np.array([3.7, -1.2])
        params_s = params.with_locations(params.locations + shift)
        data_s = Dataset(data.points + shift)
        a = sinkhorn_estep(params, data, TIGHT)
        b = sinkhorn_estep(params_s, data_s, TIGHT)
        assert np.max(np.abs(a.responsibilities.matrix - b.responsibilities.matrix)) < 1e-10
        assert np.max(np.abs(a.potentials - b.potentials)) < 1e-10
        gap_a = loss_entropic(params, data, TIGHT, a) - neg_loglik(params, data)
        gap_b = loss_entropic(params_s, data_s, TIGHT, b) - neg_loglik(params_s, data_s)
        assert gap_a == pytest.approx(gap_b, abs=1e-10)


class TestTiltedWeights:
    def test_zero_potentials_identity(self):
        w = np.array([0.3, 0.7])
        assert np.allclose(tilt_weights(w, np.zeros(2)), w, atol=1e-15)

    def test_constant_shift_invariance(self, rng):
        w = rng.dirichlet(np.ones(5))
        omega = rng.normal(size=5)
        assert np.allclose(
            tilt_weights(w, omega), tilt_weights(w, omega + 11.3), atol=1e-12
        )

    def test_direct_evaluation(self):
        w = np.array([0.5, 0.5])
        omega = np.array([math.log(3.0), 0.0])
        assert np.allclose(tilt_weights(w, omega), [0.75, 0.25], atol=1e-14)

    def test_constant_potentials_leave_weights_fixed(self):
        alpha = np.array([0.25, 0.35, 0.4])
        grad = np.full(3, 2.2) - 1.0
        assert np.allclose(tilt_weights(alpha, -0.7 * grad), alpha, atol=1e-15)

    def test_result_on_open_simplex(self, rng):
        for _ in range(20):
            k = int(rng.integers(2, 8))
            alpha = rng.dirichlet(np.ones(k))
            alpha = np.maximum(alpha, 1e-9)
            alpha /= alpha.sum()
            grad, eta = rng.normal(size=k), float(rng.uniform(0, 2))
            out = tilt_weights(alpha, -eta * grad)
            assert np.all(out > 0)
            assert out.sum() == pytest.approx(1.0, abs=1e-12)


class TestLossEntropic:
    def test_single_component_equals_nll(self):
        params = scalar_params([0.7])
        data = Dataset(np.array([[0.0], [1.0], [2.0]]))
        cfg = SinkhornConfig()
        assert loss_entropic(params, data, cfg) == pytest.approx(
            neg_loglik(params, data), abs=1e-12
        )

    def test_dominates_nll_on_random_instances(self, rng):
        cfg = SinkhornConfig(tolerance=1e-8, max_iterations=20000)
        for _ in range(100):
            params, data = random_instance(rng, n=int(rng.integers(20, 200)))
            sol = sinkhorn_estep(params, data, cfg)
            big_l = loss_entropic(params, data, cfg, sol)
            ell = neg_loglik(params, data)
            assert big_l >= ell - 1e-9
            if np.max(np.abs(tilt_weights(params.weights, sol.potentials) - params.weights)) > 1e-4:
                assert big_l > ell

    def test_two_forms_agree(self, rng):
        rng2 = np.random.default_rng(99)
        params, data = random_instance(rng2, k=3, d=2, n=10)
        cfg = SinkhornConfig(tolerance=1e-6)
        sol = sinkhorn_estep(params, data, cfg)
        assert loss_entropic(params, data, cfg, sol) == pytest.approx(
            loss_entropic_semidual(params, data, cfg, sol), abs=1e-8
        )

    def test_gauge_invariance_of_semidual_forms(self, rng):
        # shifting all potentials by a constant changes nothing
        params, data = random_instance(rng, k=4, n=50)
        sol = sinkhorn_estep(params, data, TIGHT)
        from dataclasses import replace

        shifted = replace(sol, potentials=sol.potentials + 5.0)
        for fn in (loss_entropic, loss_entropic_semidual):
            assert fn(params, data, TIGHT, sol) == pytest.approx(
                fn(params, data, TIGHT, shifted), abs=1e-12
            )


class TestGradLossEntropic:
    def test_single_component_closed_form(self):
        params = scalar_params([2.5], var=4.0)
        data = Dataset(np.array([[0.0], [1.0], [2.0]]))
        g = grad_loss_entropic(params, data, SinkhornConfig())
        expected = (2.5 - data.points.mean()) / 4.0
        assert g.locations[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_small_gradient_at_converged_fit(self, rng):
        params, data = random_instance(rng, k=2, d=1, n=300)
        cfg = FitConfig(
            max_outer_iterations=2000,
            param_change_tolerance=1e-12,
            sinkhorn=SinkhornConfig(tolerance=1e-12, max_iterations=50000),
        )
        report = sem_fit(data, params, cfg)
        g = grad_loss_entropic(report.final_params, data, cfg.sinkhorn)
        assert np.max(np.abs(g.locations)) <= 1e-5

    def test_finite_difference_match(self, rng):
        h = 1e-5
        for _ in range(20):
            params, data = random_instance(
                rng, k=int(rng.integers(2, 5)), d=int(rng.integers(1, 4)), n=40
            )
            g = grad_loss_entropic(params, data, TIGHT)
            k = int(rng.integers(params.n_components))
            j = int(rng.integers(params.dim))
            lp = params.locations.copy()
            lm = params.locations.copy()
            lp[k, j] += h
            lm[k, j] -= h
            fd = (
                loss_entropic(params.with_locations(lp), data, TIGHT)
                - loss_entropic(params.with_locations(lm), data, TIGHT)
            ) / (2 * h)
            denom = max(abs(fd), 1e-6)
            assert abs(g.locations[k, j] - fd) / denom < 1e-4

    def test_variance_gradient_finite_difference(self, rng):
        h = 1e-6
        params, data = random_instance(rng, k=3, d=2, n=50, kind="diagonal", fixed=False)
        g = grad_loss_entropic(params, data, TIGHT)
        vals = params.variances.values
        for k, j in [(0, 0), (2, 1)]:
            vp = vals.copy()
            vm = vals.copy()
            vp[k, j] += h
            vm[k, j] -= h
            fd = (
                loss_entropic(
                    params.with_variances(VarianceSpec.diagonal(vp, fixed=False)), data, TIGHT
                )
                - loss_entropic(
                    params.with_variances(VarianceSpec.diagonal(vm, fixed=False)), data, TIGHT
                )
            ) / (2 * h)
            assert abs(g.variances[k, j] - fd) / max(abs(fd), 1e-6) < 1e-4

    def test_fixed_variances_have_no_gradient(self, rng):
        params, data = random_instance(rng, k=2, fixed=True)
        g = grad_loss_entropic(params, data, TIGHT)
        assert g.variances is None
