import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from otmix import (
    Dataset,
    EmptyComponentError,
    FitConfig,
    MixtureParams,
    Responsibilities,
    SinkhornConfig,
    SinkhornNonConvergence,
    VarianceSpec,
    em_fit,
    grad_loss_entropic,
    kmeanspp_init,
    mstep_gaussian,
    neg_loglik,
    sample_mixture,
    sem_fit,
    sinkhorn_estep,
    tilt_weights,
    transport_responsibilities,
)
from otmix import fitting
from otmix.mixtures import (
    component_log_densities,
    neg_loglik_from_log_densities,
    responsibility_matrix,
)
from otmix.sinkhorn import semidual_value
from conftest import random_instance


def scalar_params(locs, var=1.0, weights=None, fixed=True):
    locs = np.asarray(locs, dtype=float)[:, None]
    k = locs.shape[0]
    w = np.full(k, 1.0 / k) if weights is None else np.asarray(weights, dtype=float)
    return MixtureParams(locs, VarianceSpec.shared(var, fixed=fixed), w)


def grid_params(locs_2d, var=1.0, weights=None):
    locs = np.asarray(locs_2d, dtype=float)
    k = locs.shape[0]
    w = np.full(k, 1.0 / k) if weights is None else np.asarray(weights, dtype=float)
    return MixtureParams(locs, VarianceSpec.shared(var), w)


class TestMstep:
    def test_hard_assignment_gives_cluster_means(self):
        y = np.array([[0.0, 0.0], [2.0, 2.0], [10.0, 0.0], [12.0, 0.0]])
        psi = np.array([[1.0, 0], [1.0, 0], [0, 1.0], [0, 1.0]])
        resp = Responsibilities(psi)
        out = mstep_gaussian(Dataset(y), resp, VarianceSpec.shared(1.0), np.array([0.5, 0.5]))
        assert np.array_equal(out.locations, np.array([[1.0, 1.0], [11.0, 0.0]]))

    def test_hand_computed_weighted_means(self):
        y = np.array([[0.0], [4.0]])
        psi = np.array([[0.75, 0.25], [0.25, 0.75]])
        out = mstep_gaussian(
            Dataset(y), Responsibilities(psi), VarianceSpec.shared(1.0), np.array([0.5, 0.5])
        )
        assert np.allclose(out.locations.ravel(), [1.0, 3.0], atol=1e-14)

    def test_transport_responsibilities_balance(self, rng):
        # with transport responsibilities the weighted new centers average to
        # the sample mean (within solver tolerance)
        params, data = random_instance(rng, k=4, d=2, n=200)
        cfg = SinkhornConfig(tolerance=1e-9, max_iterations=50000)
        sol = sinkhorn_estep(params, data, cfg)
        out = mstep_gaussian(data, sol.responsibilities, params.variances, params.weights)
        balance = out.weights @ out.locations
        assert np.max(np.abs(balance - data.points.mean(axis=0))) < 1e-7

    def test_empty_component_raises(self):
        y = np.array([[0.0], [1.0]])
        psi = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(EmptyComponentError):
            mstep_gaussian(
                Dataset(y), Responsibilities(psi), VarianceSpec.shared(1.0), np.array([0.5, 0.5])
            )

    # One instance for the regime tests: Bayes responsibilities of a K=3, d=2 mixture.
    @staticmethod
    def _regime_instance(rng):
        params, data = random_instance(rng, k=3, d=2, n=150)
        logq = component_log_densities(params, data.points)
        return params, data, Responsibilities(responsibility_matrix(logq, params.weights))

    REGIMES = {
        "shared": VarianceSpec.shared(1.0, fixed=False),
        "spherical": VarianceSpec.spherical(np.ones(3), fixed=False),
        "diagonal": VarianceSpec.diagonal(np.ones((3, 2)), fixed=False),
    }

    # The M-step and the gradient centre the data at its mean, so a common offset
    # costs about the rounding of the shifted points and of theta, half an ulp of
    # the offset each.  Locations, variances and gradients, all of order 1, are
    # held to 1e-12 plus two ulps of the offset (2.3e-10 at 1e6); a data pass on
    # the uncentred points, psi^T y / mass, misses the locations by 5.8e-10 here.
    OFFSETS = ((0.0, 1e-12), (1e6, 1e-12 + 2 * np.spacing(1e6)))

    def test_variance_update_regimes(self, rng):
        params, data, resp = self._regime_instance(rng)
        psi = resp.matrix
        y = data.points
        # direct double-loop oracle on the unshifted points
        mass = psi.sum(axis=0)
        mu = (psi.T @ y) / mass[:, None]
        per = np.zeros((3, 2))
        for k in range(3):
            for j in range(2):
                per[k, j] = np.sum(psi[:, k] * (y[:, j] - mu[k, j]) ** 2)
        expected = {
            "shared": per.sum() / (y.shape[0] * 2),
            "spherical": per.sum(axis=1) / (mass * 2),
            "diagonal": per / mass[:, None],
        }
        for offset, bound in self.OFFSETS:
            shifted = Dataset(y + offset)
            for kind, spec in self.REGIMES.items():
                out = mstep_gaussian(shifted, resp, spec, params.weights)
                np.testing.assert_allclose(out.locations - offset, mu, rtol=0, atol=bound)
                np.testing.assert_allclose(
                    out.variances.values, expected[kind], rtol=0, atol=bound, err_msg=kind)

    def test_entropic_gradient_matches_a_per_component_loop(self, rng):
        params, data, _ = self._regime_instance(rng)
        y, n = data.points, data.n
        for kind, spec in self.REGIMES.items():
            spec = replace(spec, values=spec.values * 0.7)  # v != 1, so the division shows
            var = params.with_variances(spec).variance_matrix()
            for offset, bound in self.OFFSETS:
                shifted = params.with_variances(spec).with_locations(params.locations + offset)
                shifted_data = Dataset(y + offset)
                solution = sinkhorn_estep(shifted, shifted_data, SinkhornConfig())
                g = grad_loss_entropic(shifted, shifted_data, SinkhornConfig(), solution)
                # the loop on the unshifted points, at the plan of the shifted problem
                psi = solution.responsibilities.matrix
                g_loc = np.zeros((3, 2))
                g_var = np.zeros((3, 2))
                for k in range(3):
                    diff = y - params.locations[k]
                    g_loc[k] = psi[:, k] @ -diff / var[k] / n
                    g_var[k] = psi[:, k] @ (1.0 / var[k] - diff**2 / var[k] ** 2) / (2 * n)
                np.testing.assert_allclose(g.locations, g_loc, rtol=0, atol=bound)
                np.testing.assert_allclose(
                    g.variances, spec.pool(g_var), rtol=0, atol=bound, err_msg=kind)

    def test_variance_floor_projection(self):
        y = np.array([[0.0], [0.0], [5.0]])
        psi = np.array([[1.0, 0], [1.0, 0], [0, 1.0]])
        out = mstep_gaussian(
            Dataset(y),
            Responsibilities(psi),
            VarianceSpec.spherical(np.ones(2), fixed=False),
            np.array([0.5, 0.5]),
        )
        assert np.all(out.variances.values >= 1e-6)


class TestEmFit:
    def test_near_fixed_point_start_converges_fast(self):
        truth = grid_params([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]], var=0.09)
        data = sample_mixture(truth, 600, 3)
        cfg = FitConfig(param_change_tolerance=1e-3)
        report = em_fit(data, truth, cfg)
        assert report.converged
        assert report.iterations <= 3
        ells = [e for e, _ in report.loss_trace]
        assert all(b <= a + 1e-10 for a, b in zip(ells, ells[1:]))

    def test_label_swap_symmetry(self):
        truth = scalar_params([-3.0, 3.0])
        data = sample_mixture(truth, 400, 9)
        cfg = FitConfig()
        swapped = truth.permuted([1, 0])
        a = em_fit(data, truth, cfg)
        b = em_fit(data, swapped, cfg)
        assert neg_loglik(a.final_params, data) == pytest.approx(
            neg_loglik(b.final_params, data), abs=1e-12
        )
        assert np.allclose(a.final_params.locations, b.final_params.locations[[1, 0]], atol=1e-12)

    def test_descent_on_random_fits(self, rng):
        for _ in range(10):
            params, data = random_instance(rng, n=150)
            init = params.with_locations(params.locations + rng.normal(scale=0.4, size=params.locations.shape))
            report = em_fit(data, init, FitConfig(update_weights=True, update_variances=False))
            ells = [e for e, _ in report.loss_trace]
            assert all(b <= a + 1e-10 for a, b in zip(ells, ells[1:]))


class TestOuterLoopContract:
    """em_fit and sem_fit share one outer loop; its report obeys one contract."""

    @pytest.mark.parametrize("fit", [em_fit, sem_fit])
    def test_trace_length_and_stop_flags(self, fit, rng):
        for cap in (1, 3, 100):
            params, data = random_instance(rng, k=3, d=2, n=120)
            init = params.with_locations(
                params.locations + rng.normal(scale=0.3, size=params.locations.shape)
            )
            cfg = FitConfig(max_outer_iterations=cap, update_variances=True)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SinkhornNonConvergence)
                report = fit(data, init, cfg)
            assert 1 <= report.iterations <= cap
            assert len(report.loss_trace) == report.iterations + 1
            ot_losses = [l for _, l in report.loss_trace]
            if fit is em_fit:
                assert all(l is None for l in ot_losses)
                assert report.sinkhorn_converged
            else:
                assert all(isinstance(l, float) for l in ot_losses)
            if not report.converged:
                assert report.iterations == cap

    @pytest.mark.parametrize("fit, update_weights", [
        (em_fit, False), (em_fit, True), (sem_fit, False), (sem_fit, True),
    ])
    def test_iterations_count_location_msteps(self, fit, update_weights, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return mstep_gaussian(*args, **kwargs)

        monkeypatch.setattr(fitting, "mstep_gaussian", counted)
        truth = grid_params([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]], var=0.5, weights=[0.2, 0.3, 0.5])
        data = sample_mixture(truth, 300, 8)
        init = truth.with_weights(np.full(3, 1.0 / 3.0))
        report = fit(data, init, FitConfig(update_weights=update_weights))
        assert report.iterations == len(calls) > 0

    def test_sinkhorn_misses_are_reported_once_per_solve(self):
        truth = grid_params([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]], var=0.5)
        data = sample_mixture(truth, 200, 5)
        cfg = FitConfig(
            max_outer_iterations=4,
            sinkhorn=SinkhornConfig(tolerance=1e-12, max_iterations=1),
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = sem_fit(data, truth, cfg)
        misses = [w for w in caught if issubclass(w.category, SinkhornNonConvergence)]
        assert not report.sinkhorn_converged
        assert len(misses) == report.iterations + 1


class TestSemFit:
    def test_k1_identical_to_em(self):
        truth = scalar_params([2.0])
        data = sample_mixture(truth, 100, 4)
        init = scalar_params([0.0])
        cfg = FitConfig(max_outer_iterations=40, param_change_tolerance=1e-9)
        a = em_fit(data, init, cfg)
        b = sem_fit(data, init, cfg)
        assert np.max(np.abs(a.final_params.locations - b.final_params.locations)) <= 1e-12
        assert a.iterations == b.iterations
        for (ea, _), (eb, lb) in zip(a.loss_trace, b.loss_trace):
            assert ea == pytest.approx(eb, abs=1e-12)
            assert lb == pytest.approx(eb, abs=1e-12)  # L = ell when K = 1

    def test_entropic_descent_with_slack(self, rng):
        tol = 1e-4
        cfg = FitConfig(sinkhorn=SinkhornConfig(tolerance=tol, max_iterations=5000))
        for _ in range(8):
            params, data = random_instance(rng, n=120)
            init = params.with_locations(
                params.locations + rng.normal(scale=0.4, size=params.locations.shape)
            )
            report = sem_fit(data, init, cfg)
            ls = [l for _, l in report.loss_trace]
            assert all(b <= a + 10 * tol for a, b in zip(ls, ls[1:]))

    def test_balance_identity_along_fit(self, rng):
        # after every M-step with fixed weights the weighted location average
        # tracks the sample mean
        tol = 1e-6
        params, data = random_instance(rng, k=5, d=2, n=300)
        cfg = FitConfig(
            max_outer_iterations=25,
            sinkhorn=SinkhornConfig(tolerance=tol, max_iterations=20000),
        )
        max_norm = np.max(np.abs(data.points))
        current = params
        for _ in range(10):
            sol = sinkhorn_estep(current, data, cfg.sinkhorn)
            current = mstep_gaussian(data, sol.responsibilities, current.variances, current.weights)
            balance = current.weights @ current.locations
            gap = np.max(np.abs(balance - data.points.mean(axis=0)))
            assert gap <= 10 * tol * max_norm

    def test_fixed_point_of_converged_fit(self, rng):
        params, data = random_instance(rng, k=3, d=1, n=200)
        tight = FitConfig(
            max_outer_iterations=5000,
            param_change_tolerance=1e-12,
            sinkhorn=SinkhornConfig(tolerance=1e-12, max_iterations=100000),
        )
        report = sem_fit(data, params, tight)
        star = report.final_params
        g = grad_loss_entropic(star, data, tight.sinkhorn)
        assert np.max(np.abs(g.locations)) <= 1e-8
        one_step = sem_fit(data, star, FitConfig(
            max_outer_iterations=1,
            param_change_tolerance=1e-15,
            sinkhorn=SinkhornConfig(tolerance=1e-12, max_iterations=100000),
        ))
        assert np.max(np.abs(one_step.final_params.locations - star.locations)) <= 1e-6

    def test_spurious_configuration_em_stuck_sem_escapes(self):
        # three components, two stacked across the second axis plus one far
        # right; both methods start from the collapsed configuration
        D, R = 3.0, 9.0
        truth = grid_params([[0.0, D], [0.0, -D], [R, 0.0]], var=1.0)
        data = sample_mixture(truth, 8000, 17)
        init = grid_params([[0.05, 0.03], [R - 0.02, 0.04], [R + 0.03, -0.05]], var=1.0)
        cfg = FitConfig(max_outer_iterations=300, param_change_tolerance=1e-4)
        em_report = em_fit(data, init, cfg)
        sem_report = sem_fit(data, init, cfg)
        from otmix import center_error

        assert center_error(em_report.final_params, truth) > 1.0
        assert center_error(sem_report.final_params, truth) < 0.5

    def test_separated_k20_cell_has_no_empty_component(self):
        # 20 components 10 standard deviations apart: the first solve from this
        # k-means++ start outlasted the protocol's 1,000 scaling iterations and
        # handed the M-step a column of mass ~1e-83
        rng = np.random.default_rng(0)
        truth = MixtureParams(rng.uniform(-10.0, 10.0, size=(20, 2)), VarianceSpec.shared(0.1),
                              np.full(20, 0.05))
        data = sample_mixture(truth, 300, rng)
        init = kmeanspp_init(data, 20, 7).with_variances(truth.variances)
        with warnings.catch_warnings():
            warnings.simplefilter("error", SinkhornNonConvergence)
            report = sem_fit(data, init, FitConfig())
        assert report.sinkhorn_converged

    def test_losses_at_potentials_past_exp_underflow(self):
        # at potentials [0, 800], e^{min omega - omega} underflows in the second
        # column, and so does Psi e^{min omega - omega} in every row whose plan mass
        # sits there; ell must still be the mixture's, with no divide warning
        rng = np.random.default_rng(5)
        log_kernel = rng.normal(scale=3.0, size=(50, 2))
        log_kernel[:10, 0] += 900.0  # these rows keep their mass in the first column
        weights = np.array([0.4, 0.6])
        with pytest.warns(SinkhornNonConvergence):
            solution = transport_responsibilities(
                log_kernel, weights, SinkhornConfig(max_iterations=1), np.array([0.0, 800.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ell, big_l = fitting._transport_losses(solution, weights, log_kernel)
        assert ell == pytest.approx(neg_loglik_from_log_densities(log_kernel, weights), rel=1e-13)
        assert big_l == pytest.approx(
            semidual_value(log_kernel, weights, solution.potentials), rel=1e-13)


class TestUpdateWeightsEg:
    """Weights tilted by a multiple of a gradient, as `tilt_weights` computes it."""

    def test_direct_evaluation(self):
        alpha = np.array([0.5, 0.5])
        grad = np.array([math.log(4.0), 0.0])
        out = tilt_weights(alpha, -1.0 * grad)
        assert np.allclose(out, [0.2, 0.8], atol=1e-14)


class TestCoordinateDescent:
    """sem_fit with update_weights infers the weights by block-coordinate descent."""

    def test_near_stationary_weights_stay_close_to_uniform(self):
        truth = grid_params([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]], var=0.25)
        n = 2500
        data = sample_mixture(truth, n, 21)
        cfg = FitConfig(update_weights=True)
        report = sem_fit(data, truth, cfg)
        assert np.max(np.abs(report.final_params.weights - 1.0 / 3.0)) < 2.0 / math.sqrt(n)

    def test_cold_first_estep_of_separated_mixture_converges(self):
        # the instance above: its cold first E-step once stopped at the cap of
        # 1,000 scaling iterations at marginal error 0.0095
        truth = grid_params([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]], var=0.25)
        data = sample_mixture(truth, 2500, 21)
        with warnings.catch_warnings():
            warnings.simplefilter("error", SinkhornNonConvergence)
            solution = sinkhorn_estep(truth, data, SinkhornConfig())
        assert solution.converged

    def test_loss_not_increased_by_alpha_phases(self, rng):
        params, data = random_instance(rng, k=3, d=2, n=200)
        init = params.with_weights(np.full(3, 1.0 / 3.0))
        cfg = FitConfig(update_weights=True, sinkhorn=SinkhornConfig(tolerance=1e-6, max_iterations=20000))
        report = sem_fit(data, init, cfg)
        ls = [l for _, l in report.loss_trace if l is not None]
        assert ls[-1] <= ls[0] + 10 * cfg.sinkhorn.tolerance
        final = report.final_params
        assert np.all(final.weights > 0)
        assert final.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_weights_reach_the_minimiser_where_losses_agree(self):
        # skewed weights from a uniform start: min over alpha of L equals min
        # over alpha of ell, so the fit ends where the two losses agree
        rng = np.random.default_rng(2)
        k, d = 5, 2
        weights = rng.dirichlet(np.ones(k))
        truth = MixtureParams(rng.uniform(-1, 1, size=(k, d)), VarianceSpec.shared(0.01), weights)
        data = sample_mixture(truth, 1000, rng)
        cfg = FitConfig(update_weights=True)
        start = time.perf_counter()
        report = sem_fit(data, truth.with_weights(np.full(k, 1.0 / k)), cfg)
        elapsed = time.perf_counter() - start
        ell, ot_loss = report.loss_trace[-1]
        assert ot_loss - ell <= 10 * cfg.sinkhorn.tolerance
        assert elapsed < 2.0

    def test_collapsed_weight_raises_empty_component(self):
        # the middle component sits between two tight clusters, where its
        # density underflows to 0: the weight phase empties it, and callers
        # such as the harness catch EmptyComponentError, not ValueError
        t = np.linspace(-0.1, 0.1, 50)
        data = Dataset(np.concatenate([-10.0 + t, 10.0 + t])[:, None])
        init = scalar_params([-10.0, 0.0, 10.0], var=0.01)
        with pytest.raises(EmptyComponentError):
            sem_fit(data, init, FitConfig(update_weights=True))

    def test_dirichlet_regime_matches_fixed_true_weights(self):
        # near-uniform true weights: inferring weights should not cost much
        # accuracy relative to fitting with the true weights held fixed
        rng = np.random.default_rng(77)
        from otmix import center_error, kmeanspp_init

        ratios = []
        for rep in range(3):
            k, d = 10, 2
            weights = rng.dirichlet(np.full(k, 1000.0 / k))
            truth = MixtureParams(
                rng.uniform(-1, 1, size=(k, d)), VarianceSpec.shared(0.02), weights
            )
            data = sample_mixture(truth, 600, rng)
            init = kmeanspp_init(data, k, rng).with_variances(VarianceSpec.shared(0.02))
            cfg_fixed = FitConfig()
            fixed = sem_fit(data, init.with_weights(truth.weights), cfg_fixed)
            cfg_cd = FitConfig(update_weights=True)
            inferred = sem_fit(data, init, cfg_cd)
            e_fixed = center_error(fixed.final_params, truth)
            e_cd = center_error(inferred.final_params, truth)
            ratios.append(e_cd / max(e_fixed, 1e-12))
        assert np.median(ratios) <= 1.5
