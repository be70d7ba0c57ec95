import itertools
import math

import numpy as np
import pytest

from otmix import (
    Dataset,
    FitConfig,
    MixtureParams,
    VarianceSpec,
    adjusted_rand_index,
    balance_residual,
    bic_score,
    center_error,
    covering_radius,
    em_fit,
    kmeanspp_init,
    lloyd_kmeans,
    many_fit_one_excluded,
    matched_center_error,
    neg_loglik,
    sample_mixture,
    select_k,
    sem_fit,
    sinkhorn_estep,
    SinkhornConfig,
)
from otmix.metrics import kmeans_labels
from conftest import random_instance


def scalar_params(locs, var=1.0, weights=None):
    locs = np.asarray(locs, dtype=float)[:, None]
    k = locs.shape[0]
    w = np.full(k, 1.0 / k) if weights is None else np.asarray(weights, dtype=float)
    return MixtureParams(locs, VarianceSpec.shared(var), w)


def enumerated_covering_radius(group, cands):
    """The smallest largest distance over every surjective map of cands onto group."""
    dist = np.linalg.norm(cands[:, None, :] - group[None, :, :], axis=2)
    m, r = dist.shape
    return min((max(dist[i, a] for i, a in enumerate(assign))
                for assign in itertools.product(range(r), repeat=m) if len(set(assign)) == r),
               default=math.inf)


def brute_force_center_error(fitted, truth):
    k = truth.n_components
    best = np.inf
    for perm in itertools.permutations(range(k)):
        val = np.mean(
            [np.sum((fitted.locations[perm[i]] - truth.locations[i]) ** 2) for i in range(k)]
        )
        best = min(best, val)
    return best


def brute_force_ari(a, b):
    n = len(a)
    same_a = np.equal.outer(a, a)
    same_b = np.equal.outer(b, b)
    iu = np.triu_indices(n, k=1)
    n11 = np.sum(same_a[iu] & same_b[iu])
    n00 = np.sum(~same_a[iu] & ~same_b[iu])
    n10 = np.sum(same_a[iu] & ~same_b[iu])
    n01 = np.sum(~same_a[iu] & same_b[iu])
    total = n11 + n00 + n10 + n01
    expected = (n11 + n10) * (n11 + n01) / total
    max_index = 0.5 * ((n11 + n10) + (n11 + n01))
    if max_index == expected:
        return 1.0
    return (n11 - expected) / (max_index - expected)


class TestKmeansPlusPlus:
    def test_k_equals_n_returns_all_points(self):
        data = Dataset(np.array([[0.0], [1.0], [5.0], [9.0]]))
        params = kmeanspp_init(data, 4, 0)
        assert np.array_equal(np.sort(params.locations.ravel()), np.array([0.0, 1.0, 5.0, 9.0]))

    def test_k1_deterministic_per_seed(self):
        data = Dataset(np.arange(10, dtype=float)[:, None])
        a = kmeanspp_init(data, 1, 42)
        b = kmeanspp_init(data, 1, 42)
        assert np.array_equal(a.locations, b.locations)
        assert a.locations[0, 0] in data.points

    def test_k_exceeding_n_rejected(self):
        data = Dataset(np.array([[0.0], [1.0]]))
        with pytest.raises(ValueError):
            kmeanspp_init(data, 3, 0)

    def test_far_cluster_gets_second_center(self):
        # two clusters 100x farther apart than their spread: the D^2 rule
        # should pick the opposite cluster nearly always
        rng = np.random.default_rng(5)
        a = rng.uniform(0, 1, size=(50, 1))
        b = rng.uniform(0, 1, size=(50, 1)) + 100.0
        data = Dataset(np.vstack([a, b]))
        hits = 0
        trials = 1000
        for t in range(trials):
            params = kmeanspp_init(data, 2, t)
            sides = np.sort(params.locations.ravel() > 50.0)
            hits += bool(sides[0] == False and sides[1] == True)
        assert hits / trials >= 0.99

    def test_uniform_weights_and_default_variance(self):
        data = Dataset(np.arange(12, dtype=float)[:, None])
        params = kmeanspp_init(data, 3, 1)
        assert np.allclose(params.weights, 1.0 / 3.0)
        assert params.variances.kind == "shared"
        assert float(params.variances.values) == 1.0


class TestLloyd:
    def test_data_equals_centers_immediate(self):
        pts = np.array([[0.0, 0.0], [5.0, 5.0]])
        data = Dataset(np.vstack([pts, pts]))
        init = MixtureParams(pts, VarianceSpec.shared(1.0), np.array([0.5, 0.5]))
        params, inertia = lloyd_kmeans(data, init)
        assert inertia == 0.0
        assert np.array_equal(np.sort(params.locations[:, 0]), np.array([0.0, 5.0]))

    def test_hand_iterated_1d(self):
        data = Dataset(np.array([[0.0], [1.0], [9.0], [10.0]]))
        init = scalar_params([0.0, 10.0])
        params, inertia = lloyd_kmeans(data, init)
        assert np.allclose(np.sort(params.locations.ravel()), [0.5, 9.5])
        assert inertia == pytest.approx(1.0, abs=1e-12)

    def test_permuted_init_same_solution(self):
        rng = np.random.default_rng(3)
        data = Dataset(rng.normal(size=(60, 2)) + rng.choice([0, 6], size=(60, 1)))
        init = kmeanspp_init(data, 2, 0)
        a, ia = lloyd_kmeans(data, init)
        b, ib = lloyd_kmeans(data, init.permuted([1, 0]))
        assert ia == pytest.approx(ib, abs=1e-12)
        assert np.allclose(np.sort(a.locations, axis=0), np.sort(b.locations, axis=0), atol=1e-12)

    def test_inertia_nonincreasing_in_iteration_cap(self):
        rng = np.random.default_rng(11)
        data = Dataset(rng.normal(size=(80, 2)))
        init = kmeanspp_init(data, 4, 2)
        inertias = [lloyd_kmeans(data, init, max_iter=t)[1] for t in range(1, 8)]
        assert all(b <= a + 1e-12 for a, b in zip(inertias, inertias[1:]))

    def test_distances_match_a_brute_force_loop(self):
        # centres 1 and 2 coincide, so every point nearest to them ties and goes
        # to 1; the inertia's GEMM rounding, ~eps (|y - ybar|^2 + |c - ybar|^2)
        # per point, is far below the relative 1e-12 it is held to
        rng = np.random.default_rng(8)
        data = Dataset(rng.normal(scale=3.0, size=(300, 3)) + 1e3)
        centers = data.points[[3, 17, 17, 42, 99]]
        params = MixtureParams(centers, VarianceSpec.shared(1.0), np.full(5, 0.2))
        nearest = []
        for y in data.points:
            best = 0
            for k in range(1, 5):
                if np.sum((y - centers[k]) ** 2) < np.sum((y - centers[best]) ** 2):
                    best = k
            nearest.append(best)
        labels = kmeans_labels(params, data)
        assert np.array_equal(labels, nearest)
        assert 1 in labels and 2 not in labels
        fitted, inertia = lloyd_kmeans(data, params)
        loop = sum(min(np.sum((y - c) ** 2) for c in fitted.locations) for y in data.points)
        assert inertia == pytest.approx(loop, rel=1e-12, abs=0)

    def test_emptied_cluster_is_reseeded(self):
        # the second of two identical centres loses every tie, so its cluster
        # starts empty and is re-seeded at the farthest point
        data = Dataset(np.array([[0.0], [1.0], [5.0], [6.0], [20.0], [21.0]]))
        init = scalar_params([0.0, 0.0, 20.0])
        params, inertia = lloyd_kmeans(data, init)
        assert np.array_equal(np.bincount(kmeans_labels(params, data), minlength=3), [2, 2, 2])
        assert inertia <= lloyd_kmeans(data, init, max_iter=0)[1]
        assert inertia == pytest.approx(1.5, abs=1e-12)


class TestCenterError:
    def test_permutation_gives_zero(self, rng):
        params, _ = random_instance(rng, k=5, d=3, n=30)
        perm = rng.permutation(5)
        assert center_error(params.permuted(perm), params) == pytest.approx(0.0, abs=1e-12)

    def test_single_component(self):
        fitted = MixtureParams(np.array([[0.0, 0.0]]), VarianceSpec.shared(1.0), np.array([1.0]))
        truth = MixtureParams(np.array([[1.0, 0.0]]), VarianceSpec.shared(1.0), np.array([1.0]))
        assert center_error(fitted, truth) == pytest.approx(1.0, abs=1e-14)

    def test_two_scalars_hand_enumerated(self):
        fitted = scalar_params([0.0, 3.0])
        truth = scalar_params([1.0, 2.0])
        assert center_error(fitted, truth) == pytest.approx(1.0, abs=1e-14)

    def test_matches_brute_force_enumeration(self, rng):
        for _ in range(100):
            k = int(rng.integers(1, 7))
            d = int(rng.integers(1, 4))
            fitted, _ = random_instance(rng, k=k, d=d, n=20)
            truth, _ = random_instance(rng, k=k, d=d, n=20)
            assert center_error(fitted, truth) == pytest.approx(
                brute_force_center_error(fitted, truth), rel=1e-12
            )

    def test_symmetry_and_shape_mismatch(self, rng):
        a, _ = random_instance(rng, k=3, d=2, n=20)
        b, _ = random_instance(rng, k=3, d=2, n=20)
        assert center_error(a, b) == pytest.approx(center_error(b, a), rel=1e-12)
        c, _ = random_instance(rng, k=4, d=2, n=20)
        with pytest.raises(ValueError):
            center_error(a, c)

    def test_matched_permutation_indices(self):
        truth = scalar_params([0.0, 10.0])
        fitted = scalar_params([10.1, 0.1])
        err, perm = matched_center_error(fitted, truth)
        assert list(perm) == [1, 0]
        assert err == pytest.approx(0.01, abs=1e-12)


class TestAdjustedRandIndex:
    def test_identical_partitions(self):
        labels = np.array([0, 0, 1, 2, 2, 2])
        assert adjusted_rand_index(labels, labels) == 1.0

    def test_singletons_vs_one_cluster(self):
        a = np.array([0, 1, 2, 3])
        b = np.array([0, 0, 0, 0])
        assert adjusted_rand_index(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_relabeling_invariance(self):
        a = np.array([0, 0, 1, 1])
        b = np.array([1, 1, 0, 0])
        assert adjusted_rand_index(a, b) == 1.0

    def test_matches_pair_counting_brute_force(self, rng):
        for _ in range(100):
            n = int(rng.integers(3, 40))
            a = rng.integers(0, int(rng.integers(1, 6)) + 1, size=n)
            b = rng.integers(0, int(rng.integers(1, 6)) + 1, size=n)
            assert adjusted_rand_index(a, b) == pytest.approx(brute_force_ari(a, b), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            adjusted_rand_index(np.array([0, 1]), np.array([0, 1, 2]))


class TestBic:
    def test_parameter_count_fixed_everything(self):
        params = scalar_params([0.0, 1.0, 2.0])
        data = Dataset(np.array([[0.5]] * 10))
        expected_p = 3 * 1
        ell = neg_loglik(params, data)
        assert bic_score(params, data) == pytest.approx(
            2 * 10 * ell + expected_p * math.log(10), rel=1e-12
        )

    def test_parameter_count_with_free_variances_and_weights(self):
        locs = np.zeros((3, 2))
        params = MixtureParams(
            locs, VarianceSpec.diagonal(np.ones((3, 2)), fixed=False), np.full(3, 1 / 3)
        )
        data = Dataset(np.zeros((7, 2)))
        p = 3 * 2 + 3 * 2 + 2
        ell = neg_loglik(params, data)
        assert bic_score(params, data, weights_estimated=True) == pytest.approx(
            2 * 7 * ell + p * math.log(7), rel=1e-12
        )

    def test_nested_models_do_not_lose_likelihood(self, rng):
        truth = scalar_params([-2.0, 2.0])
        data = sample_mixture(truth, 300, 8)
        fit2 = em_fit(data, truth, FitConfig()).final_params
        # embed the K=2 fit into a K=3 model by duplicating a component
        locs3 = np.vstack([fit2.locations, fit2.locations[[0]]])
        w3 = np.array([fit2.weights[0] / 2, fit2.weights[1], fit2.weights[0] / 2])
        fit3 = MixtureParams(locs3, VarianceSpec.shared(1.0), w3)
        assert neg_loglik(fit3, data) <= neg_loglik(fit2, data) + 1e-10
        assert bic_score(fit3, data) > bic_score(fit2, data)

    def test_direct_formula_k1(self):
        params = MixtureParams(np.array([[0.0]]), VarianceSpec.shared(1.0), np.array([1.0]))
        data = Dataset(np.linspace(-1, 1, 100)[:, None])
        ell = neg_loglik(params, data)
        assert bic_score(params, data) == pytest.approx(200 * ell + math.log(100), rel=1e-12)


class TestSelectK:
    def test_single_candidate_returned_verbatim(self, rng):
        params, data = random_instance(rng, k=3, d=2, n=80)

        def fit(d_, init, s):
            return em_fit(d_, init, FitConfig())

        k_hat, table = select_k(data, [4], fit, seeds=1)
        assert k_hat == 4
        assert len(table) == 1

    def test_recovers_true_k_in_easy_regime(self):
        hits = 0
        reps = 10
        for rep in range(reps):
            rng = np.random.default_rng(1000 + rep)
            truth = MixtureParams(
                rng.uniform(-1, 1, size=(3, 2)), VarianceSpec.shared(0.01), np.full(3, 1 / 3)
            )
            data = sample_mixture(truth, 500, rng)
            var = VarianceSpec.shared(0.01)

            def fit(d_, init, s):
                return em_fit(d_, init.with_variances(var), FitConfig())

            k_hat, _ = select_k(data, list(range(1, 7)), fit, seeds=2, seed=rep)
            hits += k_hat == 3
        assert hits >= 9

    def test_failed_candidates_skipped_and_flagged(self, rng):
        params, data = random_instance(rng, k=2, d=1, n=50)

        def fit(d_, init, s):
            if init.n_components == 3:
                raise RuntimeError("boom")
            return em_fit(d_, init, FitConfig())

        k_hat, table = select_k(data, [2, 3], fit, seeds=1)
        assert k_hat == 2
        flagged = {row["K"]: row["failed"] for row in table}
        assert flagged[3] is True

    def test_other_errors_of_the_fit_propagate(self, rng):
        _, data = random_instance(rng, k=2, d=1, n=50)

        def fit(d_, init, s):
            raise TypeError("a bug in the fit")

        with pytest.raises(TypeError, match="a bug in the fit"):
            select_k(data, [2, 3], fit, seeds=1)


class TestManyFitOne:
    def test_direct_evaluation_synthetic(self):
        # smallest true component at 0, next at 10; two candidate components
        # sit within 0.1 of the smallest one
        truth = scalar_params([0.0, 10.0, 10.5])
        candidate = scalar_params([0.0, 0.1, 10.2])
        diag = many_fit_one_excluded(truth, candidate, k1=1, candidate_indices=[0, 1], gamma=0.4)
        assert diag.delta == pytest.approx(10.0)
        assert diag.threshold == pytest.approx(3.0 / (math.sqrt(2 * math.pi) * 0.2), rel=1e-12)
        assert diag.covering_radius == pytest.approx(0.1, abs=1e-12)
        assert diag.excluded

    def test_candidate_equal_truth_not_excluded(self):
        truth = scalar_params([0.0, 5.0, 10.0])
        diag = many_fit_one_excluded(truth, truth, k1=1, candidate_indices=[0, 1], gamma=0.4)
        # the two selected components cannot tightly cover the single
        # smallest true component: delta-covering radius is the gap to the
        # second component
        assert diag.covering_radius >= 5.0
        assert not diag.excluded

    def test_rotated_spurious_construction_excluded(self):
        # far-pair configuration after rotating onto the separating axis,
        # with the group-of-one on the left; D=5, R=15 clears the bound at
        # gamma=0.45 (D=3, R=9 does not: threshold 11.97 > separation 7.59)
        D, R = 5.0, 15.0
        s = math.hypot(R, D)
        # reflected rotated coordinates: the lone far component is smallest;
        # the two close components sit at 0 and 2D^2/s
        left = -(s - 2 * D**2 / s)
        truth = scalar_params([left, 0.0, 2 * D**2 / s])
        candidate = scalar_params([left + 0.05, left - 0.03, 1.0])
        gamma = 0.45
        diag = many_fit_one_excluded(truth, candidate, k1=1, candidate_indices=[0, 1], gamma=gamma)
        delta_expected = s - 2 * D**2 / s
        assert diag.delta == pytest.approx(delta_expected, rel=1e-12)
        assert diag.delta >= diag.threshold
        assert diag.covering_radius < gamma * diag.delta
        assert diag.excluded

    def test_threshold_monotonicity(self):
        truth = scalar_params([0.0, 8.0, 9.0, 10.0])
        base = many_fit_one_excluded(truth, truth, k1=1, candidate_indices=[0, 1], gamma=0.3)
        wider = many_fit_one_excluded(truth, truth, k1=1, candidate_indices=[0, 1, 2], gamma=0.3)
        assert wider.threshold < base.threshold
        small_sigma = scalar_params([0.0, 8.0, 9.0, 10.0], var=0.25)
        low = many_fit_one_excluded(small_sigma, small_sigma, k1=1, candidate_indices=[0, 1], gamma=0.3)
        assert low.threshold < base.threshold

    def test_preconditions(self):
        truth = scalar_params([0.0, 5.0, 10.0])
        with pytest.raises(ValueError):
            many_fit_one_excluded(truth, truth, k1=0, candidate_indices=[0, 1], gamma=0.3)
        with pytest.raises(ValueError):
            many_fit_one_excluded(truth, truth, k1=1, candidate_indices=[0], gamma=0.3)
        with pytest.raises(ValueError):
            many_fit_one_excluded(truth, truth, k1=1, candidate_indices=[0, 1], gamma=0.6)
        uneven = MixtureParams(
            np.array([[0.0], [5.0], [10.0]]), VarianceSpec.shared(1.0), np.array([0.5, 0.3, 0.2])
        )
        with pytest.raises(ValueError):
            many_fit_one_excluded(uneven, truth, k1=1, candidate_indices=[0, 1], gamma=0.3)

    def test_covering_radius_brute_force_small(self):
        group = np.array([0.0, 10.0])
        cands = np.array([0.5, 9.0, 10.5])
        radius = covering_radius(group, cands)
        # best surjective assignment: {0.5}->0, {9.0, 10.5}->10 radius 1.0;
        # or {0.5, 9.0}->0?, radius 9 -- the first wins
        assert radius == pytest.approx(1.0, abs=1e-12)

    def test_covering_radius_infeasible(self):
        radius = covering_radius(np.array([0.0, 1.0]), np.array([0.5]))
        assert radius == float("inf")

    def test_covering_radius_matches_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            r, m, d = int(rng.integers(1, 4)), int(rng.integers(1, 7)), int(rng.integers(1, 3))
            group, cands = rng.normal(size=(r, d)) * 3, rng.normal(size=(m, d)) * 3
            assert covering_radius(group, cands) == enumerated_covering_radius(group, cands)

    def test_covering_radius_exact_beyond_small_groups(self):
        # 4^12 maps: exact by enumerating them all (in vectorised chunks), where
        # a nearest-assignment repair gives 2.948
        rng = np.random.default_rng(20)
        group = np.sort(rng.normal(size=4) * 3)
        cands = rng.normal(size=12) * 3
        assert covering_radius(group, cands) == 2.526857159525764


class TestBalanceResidual:
    def test_k1_zero_exactly(self):
        params = scalar_params([2.0])
        data = Dataset(np.array([[0.0], [1.0], [5.0]]))
        sol = sinkhorn_estep(params, data, SinkhornConfig())
        assert balance_residual(params, data, sol.responsibilities) == pytest.approx(0.0, abs=1e-12)

    def test_converged_sem_fit_small_residual(self, rng):
        tol = 1e-6
        params, data = random_instance(rng, k=4, d=2, n=200)
        cfg = FitConfig(sinkhorn=SinkhornConfig(tolerance=tol, max_iterations=50000))
        report = sem_fit(data, params, cfg)
        sol = sinkhorn_estep(report.final_params, data, cfg.sinkhorn)
        res = balance_residual(report.final_params, data, sol.responsibilities)
        assert res <= 10 * tol * np.max(np.abs(data.points))
