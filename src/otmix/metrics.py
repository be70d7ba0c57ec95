"""Baselines and scoring: k-means++, Lloyd, center error, ARI, BIC, diagnostics.

Center matching runs through an exact assignment solve (Hungarian), which for
squared-distance costs coincides with the optimal-transport formulation of
the permutation search.  The stationary-point diagnostics implement the
many-fit-one exclusion test, whose covering radius is a bottleneck
assignment found by the same solve, and the balance residual used to tell
apart likelihood stationary points from entropic-OT ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mixtures import (
    Dataset,
    MixtureParams,
    Responsibilities,
    VarianceSpec,
    neg_loglik,
    _make_rng,
    _moments,
    _natural,
    _require_at_least,
)


@dataclass(frozen=True)
class ManyFitOneDiagnostic:
    """Outcome of the many-fit-one exclusion test.

    delta is the separation between the covered true group and the rest;
    covering_radius is the exact best surjective-assignment radius of the
    candidate set onto the group; threshold is the separation the exclusion
    bound requires.  excluded means the candidate cannot be a stationary point
    of the entropic loss.
    """

    delta: float
    threshold: float
    covering_radius: float
    excluded: bool


def kmeanspp_init(data: Dataset, k: int, seed) -> MixtureParams:
    """D^2-weighted seeding: k distinct data points, uniform weights.

    The first center is uniform over points; each later center is drawn from
    the remaining points with probability proportional to the squared
    distance to the nearest already-chosen center.  Variances default to a
    fixed unit spherical scale; callers replace them per fitting regime.
    """
    if k > data.n:
        raise ValueError(f"k={k} exceeds the number of points {data.n}")
    _require_at_least(k=(k, 1))
    rng = _make_rng(seed)
    pts = data.points
    chosen = [int(rng.integers(data.n))]
    d2 = np.sum((pts - pts[chosen[0]]) ** 2, axis=1)
    for _ in range(1, k):
        d2[chosen] = 0.0
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            idx = int(rng.choice(data.n, p=probs))
        else:
            # all remaining distances zero (duplicate points): uniform over unchosen
            remaining = np.setdiff1d(np.arange(data.n), np.asarray(chosen))
            idx = int(remaining[rng.integers(remaining.size)])
        chosen.append(idx)
        d2 = np.minimum(d2, np.sum((pts - pts[idx]) ** 2, axis=1))
    locations = pts[np.asarray(chosen)]
    weights = np.full(k, 1.0 / k)
    return MixtureParams(locations, VarianceSpec.shared(1.0), weights)


def lloyd_kmeans(
    data: Dataset, init: MixtureParams, max_iter: int = 100
) -> tuple[MixtureParams, float]:
    """Lloyd iterations from the given centers; returns (params, inertia).

    Ties in the nearest-center assignment break toward the lowest index.  An
    emptied cluster is re-seeded at the point farthest from its assigned
    center, which keeps the inertia non-increasing.
    """
    pts = data.points
    design, centre = _moments(pts)
    centers = init.locations.copy()
    k = centers.shape[0]
    assign = None
    for it in range(max_iter + 1):
        # ||y - c||^2 is -2 times `_natural`'s form at unit weights: one GEMM
        d2 = design.T @ (-2.0 * _natural(centers - centre, np.ones_like(centers)))
        new_assign = np.argmin(d2, axis=1)
        if it == max_iter or (assign is not None and np.array_equal(new_assign, assign)):
            break
        assign = new_assign
        for j in range(k):
            mask = assign == j
            if not np.any(mask):
                far = int(np.argmax(d2[np.arange(pts.shape[0]), assign]))
                centers[j] = pts[far]
                assign[far] = j
            else:
                centers[j] = pts[mask].mean(axis=0)
    inertia = float(np.min(d2, axis=1).sum())
    return init.with_locations(centers), inertia


def kmeans_labels(params: MixtureParams, data: Dataset) -> np.ndarray:
    """Nearest-center hard assignment (lowest index on ties)."""
    design, centre = _moments(data.points)
    c = params.locations - centre
    return np.argmin(design.T @ (-2.0 * _natural(c, np.ones_like(c))), axis=1)


def center_error(fitted: MixtureParams, truth: MixtureParams) -> float:
    """Mean squared center distance under the best component permutation."""
    err, _ = matched_center_error(fitted, truth)
    return err


def matched_center_error(
    fitted: MixtureParams, truth: MixtureParams
) -> tuple[float, np.ndarray]:
    """Center error together with the matching permutation pi.

    pi[k] is the fitted component matched to true component k, so the value
    is (1/K) sum_k ||fitted[pi[k]] - truth[k]||^2, minimized exactly by an
    assignment solve on the K x K squared-distance matrix.
    """
    if fitted.n_components != truth.n_components or fitted.dim != truth.dim:
        raise ValueError("fitted and true mixtures must share K and d")
    diff = truth.locations[:, None, :] - fitted.locations[None, :, :]
    cost = np.sum(diff**2, axis=2)  # cost[k, j] = ||fitted_j - truth_k||^2
    rows, cols = _assignment(cost)
    return float(cost[rows, cols].sum() / truth.n_components), cols


def _assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    from scipy.optimize import linear_sum_assignment  # loads scipy on the first call only
    return linear_sum_assignment(cost)


def adjusted_rand_index(labels_a, labels_b) -> float:
    """ARI from the pair-counting contingency table.

    1 for identical partitions (up to relabeling), about 0 for independent
    ones; by convention 1.0 when both partitions are trivial in the same way
    (degenerate denominator).
    """
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("label vectors must be 1-d and of equal length")
    n = a.size
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_cells = comb2(table).sum()
    sum_rows = comb2(table.sum(axis=1)).sum()
    sum_cols = comb2(table.sum(axis=0)).sum()
    total = comb2(n)
    expected = sum_rows * sum_cols / total if total > 0 else 0.0
    max_index = 0.5 * (sum_rows + sum_cols)
    if max_index == expected:
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))


def bic_score(params: MixtureParams, data: Dataset, weights_estimated: bool = False) -> float:
    """BIC with the 2*N*ell + p*log(N) convention (relative comparisons only).

    p counts free location coordinates, free variance parameters per the
    variance spec, and K-1 weight parameters when the weights were estimated.
    """
    k, d = params.n_components, params.dim
    p = k * d + params.variances.n_free_parameters(k, d)
    if weights_estimated:
        p += k - 1
    n = data.n
    return float(2.0 * n * neg_loglik(params, data) + p * math.log(n))


def select_k(
    data: Dataset,
    k_candidates,
    fit,
    seeds: int,
    seed=0,
):
    """Best-of-seeds fits per candidate K, then arg-min BIC (ties: smallest K).

    `fit` is called as fit(data, init_params, seed_index) and must return a
    FitReport-like object with final_params and loss_trace.  The best seed per
    candidate is chosen by in-sample negative log-likelihood, the ell of the
    fit's last trace pair; the BIC counts no weight parameters.  Candidates
    whose every fit raises a RuntimeError (the base of EmptyComponentError) are
    skipped and flagged; any other exception propagates.
    """
    k_candidates = list(k_candidates)
    if not k_candidates:
        raise ValueError("k_candidates must be non-empty")
    _require_at_least(seeds=(seeds, 1))
    table = []
    best_k = None
    best_bic = np.inf
    for ci, k in enumerate(k_candidates):
        best_ell = np.inf
        best_params = None
        for s in range(seeds):
            # per-(candidate, seed) stream: SeedSequence((base, candidate, seed))
            init = kmeanspp_init(data, k, np.random.SeedSequence((seed, ci, s)))
            try:
                report = fit(data, init, s)
            except RuntimeError:
                continue
            ell = report.loss_trace[-1][0]
            if ell < best_ell:
                best_ell = ell
                best_params = report.final_params
        if best_params is None:
            table.append({"K": k, "bic": None, "ell": None, "failed": True})
            continue
        bic = bic_score(best_params, data)
        table.append({"K": k, "bic": bic, "ell": best_ell, "failed": False})
        if best_k is None or bic < best_bic or (bic == best_bic and k < best_k):
            best_k, best_bic = k, bic
    if best_k is None:
        raise RuntimeError("all candidates failed to fit")
    return best_k, table


def covering_radius(group_points: np.ndarray, candidate_points: np.ndarray) -> float:
    """Smallest delta so the candidates cover the group surjectively.

    Every candidate is assigned to a group point within delta and every group
    point receives at least one candidate; inf when there are fewer candidates
    than group points.  Exact: delta is the larger of the largest
    nearest-group distance and the bottleneck assignment of the group to
    distinct candidates (Garfinkel, 1971), so it is the smallest distance t
    from the former at which the assignment solve on the indicator of
    distances above t costs 0, found by bisection over the distances.
    """
    g = np.atleast_2d(np.asarray(group_points, dtype=float).reshape(len(group_points), -1))
    c = np.atleast_2d(np.asarray(candidate_points, dtype=float).reshape(len(candidate_points), -1))
    m, r = len(c), len(g)
    if m < r:
        return float("inf")
    dist = np.sqrt(np.sum((c[:, None, :] - g[None, :, :]) ** 2, axis=2))  # (m, r)
    radii = np.unique(dist[dist >= dist.min(axis=1).max()])
    lo, hi = 0, len(radii) - 1  # at the largest distance any r distinct candidates do
    while lo < hi:
        mid = (lo + hi) // 2
        far = dist.T > radii[mid]
        rows, cols = _assignment(far.astype(float))
        if far[rows, cols].any():
            lo = mid + 1
        else:
            hi = mid
    return float(radii[lo])


def many_fit_one_excluded(
    truth: MixtureParams,
    candidate: MixtureParams,
    k1: int,
    candidate_indices,
    gamma: float,
) -> ManyFitOneDiagnostic:
    """Exclusion test for a candidate whose components over-cover a true group.

    Works on one-dimensional, equal-weight, shared-variance truths.  The
    group is the k1 smallest true locations; the candidate components listed
    in candidate_indices must cover it within gamma times the separation to
    the remaining true components, and the separation must clear the
    K*sigma / (sqrt(2*pi) * ((1-gamma)|I| - k1)) bound, for the candidate to
    be excluded as a stationary point of the entropic loss.
    """
    if truth.dim != 1 or candidate.dim != 1:
        raise ValueError("the exclusion test is one-dimensional; project first")
    k_total = truth.n_components
    if not np.allclose(truth.weights, 1.0 / k_total, atol=1e-9):
        raise ValueError("truth must have equal weights")
    if truth.variances.kind != "shared":
        raise ValueError("truth must have a shared spherical variance")
    if not 1 <= k1 <= k_total - 1:
        raise ValueError("k1 must lie in [1, K-1]")
    idx = np.asarray(sorted(candidate_indices), dtype=int)
    size_i = idx.size
    if size_i <= k1:
        raise ValueError("the candidate index set must be larger than k1")
    if not 0 < gamma < 1 - k1 / size_i:
        raise ValueError("gamma must lie in (0, 1 - k1/|I|)")

    order = np.argsort(truth.locations[:, 0])
    sorted_locs = truth.locations[order, 0]
    delta_sep = float(sorted_locs[k1] - sorted_locs[k1 - 1])

    sigma = math.sqrt(float(truth.variances.values))
    threshold = k_total * sigma / (math.sqrt(2.0 * math.pi) * ((1.0 - gamma) * size_i - k1))

    radius = covering_radius(sorted_locs[:k1], candidate.locations[idx, 0])
    excluded = (delta_sep >= threshold) and (radius < gamma * delta_sep)
    return ManyFitOneDiagnostic(
        delta=delta_sep,
        threshold=float(threshold),
        covering_radius=radius,
        excluded=bool(excluded),
    )


def balance_residual(params: MixtureParams, data: Dataset, resp: Responsibilities) -> float:
    """L-infinity gap between the weight-weighted M-step centers and the data mean.

    F_k is the location the next M-step would produce from the given
    responsibilities; the residual is ||sum_k alpha_k F_k - mean(Y)||_inf.
    Near zero for any converged transport solve; at a vanilla-EM stationary
    point evaluated with its own responsibilities (F_k = theta_k there) it is
    generically positive when the cluster masses are unequal.
    """
    psi = resp.matrix
    col_mass = psi.sum(axis=0)
    would_be = (psi.T @ data.points) / col_mass[:, None]  # (K, d)
    weighted_sum = params.weights @ would_be
    return float(np.max(np.abs(weighted_sum - data.points.mean(axis=0))))
