import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from otmix import (
    BlockModel,
    BlockResponsibilities,
    Dataset,
    MixtureParams,
    Responsibilities,
    VarianceSpec,
    component_log_densities,
    neg_loglik,
    sample_mixture,
)
from otmix.mixtures import _row_max, _row_sum, _softmax_rows, responsibility_matrix
from conftest import random_instance, random_params


def scalar_params(locs, var=1.0, weights=None):
    locs = np.atleast_2d(np.asarray(locs, dtype=float)).T if np.ndim(locs) == 1 else np.asarray(locs)
    k = locs.shape[0]
    w = np.full(k, 1.0 / k) if weights is None else np.asarray(weights, dtype=float)
    return MixtureParams(locs, VarianceSpec.shared(var), w)


class TestValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            scalar_params([0.0, 1.0], weights=[0.6, 0.5])

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            scalar_params([0.0, 1.0], weights=[1.0, 0.0])

    def test_variance_floor_enforced(self):
        with pytest.raises(ValueError):
            VarianceSpec.shared(1e-9)

    def test_nonfinite_points_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[0.0], [np.nan]]))

    def test_variance_shape_must_match(self):
        with pytest.raises(ValueError):
            MixtureParams(
                np.zeros((2, 3)),
                VarianceSpec.diagonal(np.ones((2, 2))),
                np.array([0.5, 0.5]),
            )

    def test_responsibility_rows_must_normalize(self):
        with pytest.raises(ValueError):
            Responsibilities(np.array([[0.5, 0.4]]))


def responsibilities(params, data):
    """Bayes responsibilities of the data under the mixture."""
    logq = component_log_densities(params, data.points)
    return Responsibilities(responsibility_matrix(logq, params.weights))


MALFORMED = {
    "nan": [[np.nan, 0.5, 0.5]],
    "1-d": [0.2, 0.3, 0.5],
    "negative": [[-0.1, 0.55, 0.55]],
    "above-one": [[1.1, 0.0, 0.0]],
    "row-sum": [[0.3, 0.3, 0.3]],
}
ROW_STOCHASTIC = np.full((2, 3), 1.0 / 3.0)


@pytest.mark.parametrize("malformed", MALFORMED)
@pytest.mark.parametrize(
    "name, build",
    [
        ("responsibilities", Responsibilities),
        ("z", lambda m: BlockResponsibilities(m, ROW_STOCHASTIC)),
        ("w", lambda m: BlockResponsibilities(ROW_STOCHASTIC, m)),
    ],
    ids=["responsibilities", "z", "w"],
)
def test_row_stochastic_containers_reject_malformed(name, build, malformed):
    m = np.array(MALFORMED[malformed])
    if m.ndim == 2:
        m = np.vstack([ROW_STOCHASTIC[:1], m])
    with pytest.raises(ValueError, match=rf"^{name} "):
        build(m)


BLOCK = {"means": np.zeros((2, 3)), "variances": np.ones((2, 3)),
         "row_weights": [0.5, 0.5], "col_weights": [0.2, 0.3, 0.5]}
# case: (constructor, its arguments, expected error text)
BAD_WEIGHTS_AND_VARIANCES = {
    "row-sum": (BlockModel, {**BLOCK, "row_weights": [0.7, 0.7]},
                "row_weights must be 2 positive numbers summing to 1"),
    "row-length": (BlockModel, {**BLOCK, "row_weights": [1.0]},
                   "row_weights must be 2 positive numbers summing to 1"),
    "col-sum": (BlockModel, {**BLOCK, "col_weights": [0.5, 0.5, 0.5]},
                "col_weights must be 3 positive numbers summing to 1"),
    "col-length": (BlockModel, {**BLOCK, "col_weights": [0.5, 0.5]},
                   "col_weights must be 3 positive numbers summing to 1"),
    "block-floor": (BlockModel, {**BLOCK, "variances": np.full((2, 3), 1e-9)},
                    "variances must be >= 1e-06"),
    "mixture-weights": (MixtureParams, {"locations": np.zeros((2, 1)),
                                        "variances": VarianceSpec.shared(1.0),
                                        "weights": [0.6, 0.5]},
                        "weights must be 2 positive numbers summing to 1"),
    "spec-floor": (VarianceSpec, {"kind": "shared", "values": 1e-9},
                   "variances must be >= 1e-06"),
}


@pytest.mark.parametrize("case", BAD_WEIGHTS_AND_VARIANCES)
def test_bad_weights_and_variances_are_named(case):
    build, kwargs, expected = BAD_WEIGHTS_AND_VARIANCES[case]
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        build(**kwargs)


class TestComponentLogpdf:
    """`component_log_densities` entry by entry, against closed forms."""

    def test_standard_normal_at_mode(self):
        p = scalar_params([0.0])
        logq = component_log_densities(p, [[0.0]])
        assert logq[0, 0] == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_two_dim_standard_normal(self):
        p = MixtureParams(np.zeros((1, 2)), VarianceSpec.shared(1.0), np.array([1.0]))
        logq = component_log_densities(p, [[0.0, 0.0]])
        assert logq[0, 0] == pytest.approx(-math.log(2 * math.pi), abs=1e-12)

    def test_hand_evaluated_gaussian(self):
        # mean 2, variance 4, evaluated at 0
        p = scalar_params([2.0], var=4.0)
        expected = -0.5 * math.log(2 * math.pi * 4.0) - 0.5
        assert component_log_densities(p, [[0.0]])[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_index_out_of_range(self):
        # one row per point, one column per component, and no more
        p = scalar_params([0.0, 3.0])
        logq = component_log_densities(p, [[0.0], [1.0], [2.0]])
        assert logq.shape == (3, 2)
        with pytest.raises(IndexError):
            logq[0, 2]

    @staticmethod
    def _per_component(params, points):
        """The kernel one component at a time, from the differences y - theta_k."""
        var = params.variance_matrix()
        columns = []
        for k in range(params.n_components):
            diff = points - params.locations[k]
            terms = diff * diff / var[k] + np.log(2 * math.pi * var[k])
            columns.append(-0.5 * np.sum(terms, axis=1))
        return np.stack(columns, axis=1)

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    @pytest.mark.parametrize("kind", ["shared", "spherical", "diagonal"])
    def test_gemm_form_matches_a_per_component_loop(self, kind, offset):
        # centring at the data mean cancels a common offset before the GEMM
        rng = np.random.default_rng(3)
        params, data = random_instance(rng, k=5, d=3, n=400, kind=kind)
        params = params.with_locations(params.locations + offset)
        points = data.points + offset
        expected = self._per_component(params, points)
        actual = component_log_densities(params, points)
        np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-10)

    def test_far_apart_clusters_stay_within_the_rounding_bound(self):
        # two unit-variance clusters 1e6 apart: the expanded square loses about
        # eps * (|y - ybar|^2 + |theta - ybar|^2) / v per entry, which is ~1e-4
        # here, so the kernel is held to that bound rather than to exactness
        locations = np.array([[-5e5, 0.0], [5e5, 0.0]])
        params = MixtureParams(locations, VarianceSpec.shared(1.0), np.array([0.5, 0.5]))
        points = sample_mixture(params, 200, seed=5).points
        expected = self._per_component(params, points)
        error = np.abs(component_log_densities(params, points) - expected)
        centre = points.mean(axis=0)
        scale = (np.sum((points - centre) ** 2, axis=1)[:, None]
                 + np.sum((locations - centre) ** 2, axis=1))
        assert np.all(error <= 4 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("kind", ["shared", "spherical", "diagonal"])
    def test_peak_allocation_is_the_output_and_the_statistics(self, kind):
        # the kernel allocates its (N, K) output and the (2d+1, N) sufficient
        # statistics, and no other N-row array; 16 KiB of slack covers the
        # parameter-sized temporaries (they took about 2.5 KB here)
        n, k, d = 2000, 20, 3
        params, data = random_instance(np.random.default_rng(4), k=k, d=d, n=n, kind=kind)
        bound = 8 * (n * k + (2 * d + 1) * n) + 16 * 1024
        component_log_densities(params, data.points)
        tracemalloc.start()
        try:
            component_log_densities(params, data.points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_nonfinite_point_rejected(self):
        # points are checked once, where they enter: the Dataset
        p = scalar_params([0.0])
        with pytest.raises(ValueError, match="points contains non-finite entries"):
            neg_loglik(p, Dataset(np.array([[np.inf]])))


class TestNegLoglik:
    def test_single_standard_normal_at_mode(self):
        p = scalar_params([0.0])
        d = Dataset(np.array([[0.0]]))
        assert neg_loglik(p, d) == pytest.approx(0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_label_symmetry(self):
        a = 1.3
        p = scalar_params([-a, a])
        d = Dataset(np.array([[-0.4], [0.4], [2.0], [-2.0]]))
        assert neg_loglik(p, d) == pytest.approx(neg_loglik(p.permuted([1, 0]), d), abs=1e-12)

    def test_direct_scalar_evaluation(self):
        # K=2, alpha=(0.7, 0.3), theta=(0, 1), sigma^2=1, data={0.5}
        p = scalar_params([0.0, 1.0], weights=[0.7, 0.3])
        d = Dataset(np.array([[0.5]]))
        q = 0.7 * math.exp(-0.125) / math.sqrt(2 * math.pi) + 0.3 * math.exp(-0.125) / math.sqrt(2 * math.pi)
        assert neg_loglik(p, d) == pytest.approx(-math.log(q), abs=1e-12)

    def test_logsumexp_stability_far_locations(self):
        # locations with norm up to 1e3 and floor variances stay finite
        locs = np.array([[1000.0, 0.0], [-1000.0, 0.0]])
        p = MixtureParams(locs, VarianceSpec.shared(1e-6), np.array([0.5, 0.5]))
        d = Dataset(np.array([[0.0, 0.0], [500.0, 0.0]]))
        value = neg_loglik(p, d)
        assert np.isfinite(value)
        resp = responsibilities(p, d)
        assert np.all(np.isfinite(resp.matrix))


class TestRowReductions:
    """The row max gives numpy's values bit for bit and the row sum numpy's
    up to rounding; the normaliser built on them matches the direct formulas
    up to rounding."""

    def _arrays(self):
        rng = np.random.default_rng(7)
        for k in range(1, 21):
            for scale in (1e-3, 1.0, 300.0):
                a = rng.normal(size=(300, k)) * scale  # tall: the column path
                a[0] = np.round(a[0])  # ties for the maximum
                a[1] = -0.0
                a[2, k // 2] = np.inf
                a[3, 0] = np.nan
                a[4] = -np.inf
                yield a

    def test_row_max_and_sum(self):
        for a in self._arrays():
            assert np.array_equal(_row_max(a), a.max(axis=1), equal_nan=True)
            with np.errstate(over="ignore"):
                positive = np.exp(a)
            bound = a.shape[1] * np.finfo(float).eps
            for x in (a, positive):
                got, want = _row_sum(x), x.sum(axis=1)
                finite = np.isfinite(want)
                assert np.array_equal(got[~finite], want[~finite], equal_nan=True)
                exact = np.array([math.fsum(row) for row in x[finite]])
                # on the all-positive exponentiated rows this is K eps relative
                assert np.all(np.abs(got[finite] - exact) <= bound * np.abs(x[finite]).sum(axis=1))

    def test_softmax_rows(self):
        rng = np.random.default_rng(11)
        for k in range(1, 21):
            a = rng.normal(size=(300, k)) * rng.choice([1e-3, 1.0, 300.0], size=(300, 1))
            e = a.copy()
            row_max, row_sum = _softmax_rows(e)
            assert np.array_equal(row_max, a.max(axis=1))
            assert np.all(e <= 1.0) and np.all(e.max(axis=1) == 1.0)
            lse = logsumexp(a, axis=1)
            np.testing.assert_allclose(e / row_sum[:, None], np.exp(a - lse[:, None]), rtol=1e-12, atol=1e-300)
            np.testing.assert_allclose(row_max + np.log(row_sum), lse, rtol=1e-14, atol=0)


class TestVanillaResponsibilities:
    """`responsibility_matrix`: plain Bayes responsibilities."""

    def test_single_component_all_ones(self):
        p = scalar_params([3.0])
        d = Dataset(np.array([[0.0], [10.0]]))
        resp = responsibilities(p, d)
        assert np.allclose(resp.matrix, 1.0)

    def test_equidistant_point_splits_evenly(self):
        p = scalar_params([-1.0, 1.0])
        d = Dataset(np.array([[0.0]]))
        resp = responsibilities(p, d)
        assert np.allclose(resp.matrix[0], [0.5, 0.5], atol=1e-14)

    def test_logistic_of_log_density_gap(self):
        # K=2, equal weights, theta=(0,1), y=0: gap is 0.5
        p = scalar_params([0.0, 1.0])
        d = Dataset(np.array([[0.0]]))
        resp = responsibilities(p, d)
        sigma = 1.0 / (1.0 + math.exp(-0.5))
        assert resp.matrix[0, 0] == pytest.approx(sigma, abs=1e-12)
        assert resp.matrix[0, 1] == pytest.approx(1.0 - sigma, abs=1e-12)

    def test_rows_sum_to_one_on_random_instances(self, rng):
        for _ in range(25):
            params, data = random_instance(rng)
            resp = responsibilities(params, data)
            assert np.max(np.abs(resp.matrix.sum(axis=1) - 1.0)) < 1e-10

    def test_permutation_equivariance(self, rng):
        for _ in range(10):
            params, data = random_instance(rng, k=4)
            perm = rng.permutation(4)
            resp = responsibilities(params, data)
            resp_p = responsibilities(params.permuted(perm), data)
            assert np.allclose(resp_p.matrix, resp.matrix[:, perm], atol=1e-12)
            assert neg_loglik(params, data) == pytest.approx(
                neg_loglik(params.permuted(perm), data), abs=1e-12
            )


class TestSampling:
    def test_zero_points_rejected(self):
        p = scalar_params([0.0])
        with pytest.raises(ValueError):
            sample_mixture(p, 0, 1)

    def test_law_of_large_numbers_at_floor_variance(self):
        p = MixtureParams(np.array([[5.0]]), VarianceSpec.shared(1e-6), np.array([1.0]))
        n = 10000
        d = sample_mixture(p, n, 7)
        assert abs(d.points.mean() - 5.0) < 4 * math.sqrt(1e-6) / math.sqrt(n)

    def test_same_seed_is_bit_identical(self):
        p = scalar_params([0.0, 4.0])
        a = sample_mixture(p, 200, 123)
        b = sample_mixture(p, 200, 123)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.true_labels, b.true_labels)

    def test_component_frequencies_match_weights(self):
        p = scalar_params([0.0, 3.0, -3.0], weights=[0.2, 0.5, 0.3])
        n = 100000
        d = sample_mixture(p, n, 11)
        freqs = np.bincount(d.true_labels, minlength=3) / n
        for k in range(3):
            assert abs(freqs[k] - p.weights[k]) < 3 * math.sqrt(p.weights[k] / n)


class TestIO:
    def test_csv_round_trip_with_labels(self, tmp_path, rng):
        params, data = random_instance(rng, k=3, d=2, n=50)
        path = tmp_path / "data.csv"
        data.save_csv(path)
        loaded = Dataset.load_csv(path)
        assert np.array_equal(loaded.points, data.points)
        assert np.array_equal(loaded.true_labels, data.true_labels)

    def test_csv_round_trip_without_labels(self, tmp_path):
        data = Dataset(np.array([[0.125, -3.5], [1e-8, 2.0]]))
        path = tmp_path / "plain.csv"
        data.save_csv(path)
        loaded = Dataset.load_csv(path)
        assert np.array_equal(loaded.points, data.points)
        assert loaded.true_labels is None

    def test_params_json_round_trip(self, tmp_path, rng):
        for kind in ("shared", "spherical", "diagonal"):
            params = random_params(rng, k=3, d=2, kind=kind)
            path = tmp_path / f"{kind}.json"
            params.save_json(path)
            loaded = MixtureParams.load_json(path)
            assert np.array_equal(loaded.locations, params.locations)
            assert np.array_equal(
                np.atleast_1d(loaded.variances.values), np.atleast_1d(params.variances.values)
            )
            assert np.array_equal(loaded.weights, params.weights)
            assert loaded.variances.kind == params.variances.kind
