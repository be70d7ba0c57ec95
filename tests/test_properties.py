"""Property tests: whole EM and Sinkhorn-EM fits are equivariant under
relabelling the components and under translating the data; the entropic
loss agrees with its semi-dual form at any potentials and dominates the
negative log-likelihood at solved ones; every loss-trace pair of a fit equals
the standalone evaluators at its E-step's parameters and potentials; the
solver's plan stays row-stochastic on extreme kernels; a Sinkhorn-EM fit
descends its semi-dual loss within solver slack, and every Sinkhorn-EM M-step
keeps the weighted centres on the data mean (the balance identity).  A
variance spec's `expand` and `pool` are adjoint for every kind.  Co-clustering
fits are equivariant under permuting the matrix's rows and columns, and
translating the matrix translates the block means and changes nothing else.

Both symmetries hold exactly in exact arithmetic; in floating point the
fits agree up to rounding and Sinkhorn slack, hence a tight solver tolerance
and an absolute comparison at 1e-8.  The tiny outer tolerance makes every
fit run the same fixed number of outer steps.
"""

import warnings
from dataclasses import replace
from unittest.mock import patch

import numpy as np
from hypothesis import example, given, settings, strategies as st
from scipy.special import logsumexp

from otmix import (
    BlockModel,
    BlockResponsibilities,
    Dataset,
    EmptyBlockError,
    FitConfig,
    MixtureParams,
    SinkhornConfig,
    SinkhornNonConvergence,
    VarianceSpec,
    component_log_densities,
    em_fit,
    loss_entropic,
    loss_entropic_semidual,
    mstep_gaussian,
    neg_loglik,
    random_block_init,
    sample_block_data,
    sample_mixture,
    sem_fit,
    sinkhorn_estep,
    svem_fit,
    transport_responsibilities,
    vem_fit,
)
from otmix import fitting
from otmix.mixtures import neg_loglik_from_log_densities
from otmix.sinkhorn import semidual_value

OUTER_STEPS = 8
ATOL = 1e-8
PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=20)


def _config(update_variances: bool, update_weights: bool) -> FitConfig:
    return FitConfig(
        max_outer_iterations=OUTER_STEPS,
        param_change_tolerance=1e-300,
        sinkhorn=SinkhornConfig(tolerance=1e-10, max_iterations=20000),
        update_variances=update_variances,
        update_weights=update_weights,
    )


@st.composite
def problems(draw):
    """A separated mixture, data drawn from it, and a perturbed start."""
    k = draw(st.integers(2, 4))
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["shared", "spherical", "diagonal"]))
    update_variances = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    locations = rng.uniform(-3.0, 3.0, size=(k, d))
    if kind == "shared":
        spec = VarianceSpec.shared(0.3, fixed=not update_variances)
    elif kind == "spherical":
        spec = VarianceSpec.spherical(rng.uniform(0.2, 0.5, size=k), fixed=not update_variances)
    else:
        spec = VarianceSpec.diagonal(
            rng.uniform(0.2, 0.5, size=(k, d)), fixed=not update_variances
        )
    weights = rng.dirichlet(np.full(k, 10.0))
    truth = MixtureParams(locations, spec, weights)
    data = sample_mixture(truth, 120, rng)
    init = truth.with_locations(locations + rng.normal(scale=0.3, size=(k, d)))
    return data, init, update_variances


def _assert_same_fit(report, locations, variances, weights, responsibilities):
    params = report.final_params
    np.testing.assert_allclose(params.locations, locations, rtol=0, atol=ATOL)
    np.testing.assert_allclose(params.variances.values, variances, rtol=0, atol=ATOL)
    np.testing.assert_allclose(params.weights, weights, rtol=0, atol=ATOL)
    np.testing.assert_allclose(report.responsibilities.matrix, responsibilities, rtol=0, atol=ATOL)


@PROPERTY_SETTINGS
@given(problem=problems(), method=st.sampled_from(["em", "em-weights", "sem"]), data=st.data())
def test_permuting_the_init_permutes_the_fit(problem, method, data):
    dataset, init, update_variances = problem
    perm = np.array(data.draw(st.permutations(range(init.n_components))))
    cfg = _config(update_variances, update_weights=method == "em-weights")
    fit = sem_fit if method == "sem" else em_fit
    base = fit(dataset, init, cfg)
    permuted = fit(dataset, init.permuted(perm), cfg)
    expected = base.final_params.permuted(perm)
    _assert_same_fit(
        permuted,
        expected.locations,
        expected.variances.values,
        expected.weights,
        base.responsibilities.matrix[:, perm],
    )
    assert permuted.iterations == base.iterations


@PROPERTY_SETTINGS
@given(
    problem=problems(),
    method=st.sampled_from(["em", "em-weights", "sem"]),
    shift=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
)
def test_translating_data_and_init_translates_the_locations(problem, method, shift):
    dataset, init, update_variances = problem
    c = np.asarray(shift[: dataset.dim])
    cfg = _config(update_variances, update_weights=method == "em-weights")
    fit = sem_fit if method == "sem" else em_fit
    base = fit(dataset, init, cfg)
    moved = fit(Dataset(dataset.points + c), init.with_locations(init.locations + c), cfg)
    params = base.final_params
    _assert_same_fit(
        moved,
        params.locations + c,
        params.variances.values,
        params.weights,
        base.responsibilities.matrix,
    )
    assert moved.iterations == base.iterations


@PROPERTY_SETTINGS
@given(problem=problems(), data=st.data())
def test_loss_forms_agree_at_unsolved_potentials(problem, data):
    dataset, params, _ = problem
    k = params.n_components
    omega = data.draw(st.lists(st.floats(-5.0, 5.0), min_size=k, max_size=k))
    cfg = SinkhornConfig()
    solution = replace(sinkhorn_estep(params, dataset, cfg), potentials=np.asarray(omega))
    tilted = loss_entropic(params, dataset, cfg, solution)
    semidual = loss_entropic_semidual(params, dataset, cfg, solution)
    assert abs(tilted - semidual) <= 1e-9


@PROPERTY_SETTINGS
@given(problem=problems())
def test_entropic_loss_dominates_nll_at_solved_potentials(problem):
    dataset, params, _ = problem
    cfg = SinkhornConfig(tolerance=1e-10, max_iterations=20000)
    assert loss_entropic(params, dataset, cfg) >= neg_loglik(params, dataset) - 1e-9


@PROPERTY_SETTINGS
@given(
    n=st.integers(1, 40),
    k=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    tolerance=st.sampled_from([1e-3, 1e-8]),
)
def test_plan_on_extreme_kernels(n, k, seed, tolerance):
    rng = np.random.default_rng(seed)
    log_kernel = rng.uniform(-700.0, 700.0, size=(n, k))
    weights = rng.dirichlet(np.ones(k))
    cfg = SinkhornConfig(tolerance=tolerance, max_iterations=500)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SinkhornNonConvergence)
        solution = transport_responsibilities(log_kernel, weights, cfg)
    plan = solution.responsibilities
    assert np.max(np.abs(plan.matrix.sum(axis=1) - 1.0)) <= 1e-10
    if solution.converged:
        assert np.max(np.abs(plan.column_means() - weights)) <= tolerance


@PROPERTY_SETTINGS
@given(
    n=st.integers(2, 40),
    k=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1.0, 30.0, 1e3, 1e4]),
    tolerance=st.sampled_from([1e-3, 1e-8]),
)
def test_scaling_steps_keep_the_log_domain_plan(n, k, seed, scale, tolerance):
    # entries down to -1e4 saturate the rows, and weights in the reverse order
    # of the kernel's own column shares make the potentials travel thousands,
    # many absorption bounds; capped or not, the solution is the log-domain
    # plan at its potentials
    rng = np.random.default_rng(seed)
    log_kernel = -scale * rng.uniform(0.0, 1.0, size=(n, k))
    shares = np.exp(log_kernel - logsumexp(log_kernel, axis=1, keepdims=True)).mean(axis=0)
    weights = np.empty(k)
    weights[np.argsort(shares)] = np.sort(rng.dirichlet(np.ones(k)))[::-1]
    cfg = SinkhornConfig(tolerance=tolerance, max_iterations=2000)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SinkhornNonConvergence)
        solution = transport_responsibilities(log_kernel, weights, cfg)
    plan = solution.responsibilities.matrix
    assert np.all(np.isfinite(plan))
    logits = log_kernel + np.log(weights) + solution.potentials
    lse = logsumexp(logits, axis=1)
    assert np.max(np.abs(plan - np.exp(logits - lse[:, None]))) <= 1e-12
    error = np.max(np.abs(plan.mean(axis=0) - weights))
    assert abs(solution.marginal_error - error) <= 1e-15
    assert np.allclose(solution.log_partition, lse, rtol=1e-15, atol=1e-12)
    assert solution.converged == (solution.marginal_error <= tolerance)


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(
    n=st.integers(2, 40),
    k=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e3, 1e4]),
    tolerance=st.sampled_from([1e-3, 1e-8]),
)
@example(n=4, k=4, seed=3981993664, scale=1e4, tolerance=1e-3)
@example(n=10, k=5, seed=2802660611, scale=1e4, tolerance=1e-8)
def test_newton_finish_converges_on_saturated_kernels(n, k, seed, scale, tolerance):
    # the kernels above at their two largest scales: most outlast the scaling
    # budget, and the Newton finish brings every one within 2,000 iterations.
    # The two pinned draws put their potentials some 5e3 apart, a hundred clipped
    # Newton steps.  A Newton step can leave a column empty, and only the
    # finish's log-space Sinkhorn step refills it
    rng = np.random.default_rng(seed)
    log_kernel = -scale * rng.uniform(0.0, 1.0, size=(n, k))
    shares = np.exp(log_kernel - logsumexp(log_kernel, axis=1, keepdims=True)).mean(axis=0)
    weights = np.empty(k)
    weights[np.argsort(shares)] = np.sort(rng.dirichlet(np.ones(k)))[::-1]
    cfg = SinkhornConfig(tolerance=tolerance, max_iterations=2000)
    with warnings.catch_warnings():
        warnings.simplefilter("error", SinkhornNonConvergence)
        solution = transport_responsibilities(log_kernel, weights, cfg)
    assert solution.converged


@PROPERTY_SETTINGS
@given(
    problem=problems(),
    method=st.sampled_from(["em", "em-weights", "sem", "sem-weights"]),
    capped=st.booleans(),
)
def test_trace_pairs_equal_the_standalone_losses(problem, method, capped):
    # the fitters read ell and L off their E-step's softmax; each pair must be
    # the standalone evaluators' value at that E-step's parameters and
    # potentials, for converged and capped solves alike
    dataset, init, update_variances = problem
    solver = (SinkhornConfig(tolerance=1e-12, max_iterations=10) if capped
              else SinkhornConfig(tolerance=1e-8, max_iterations=20000))
    cfg = FitConfig(max_outer_iterations=4, param_change_tolerance=1e-6, sinkhorn=solver,
                    update_variances=update_variances, update_weights=method.endswith("weights"))
    kernels, solves = [], []

    def kernel(params, points):
        kernels.append(params)
        return component_log_densities(params, points)

    def solve(log_kernel, weights, sinkhorn, initial_potentials=None):
        solution = transport_responsibilities(log_kernel, weights, sinkhorn, initial_potentials)
        solves.append((kernels[-1].with_weights(weights), solution.potentials))
        return solution

    with patch.object(fitting, "component_log_densities", kernel), \
            patch.object(fitting, "transport_responsibilities", solve), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", SinkhornNonConvergence)
        report = (em_fit if method.startswith("em") else sem_fit)(dataset, init, cfg)
    points = [(params, None) for params in kernels] if method.startswith("em") else solves
    assert len(points) == len(report.loss_trace)
    for (params, omega), (ell, big_l) in zip(points, report.loss_trace):
        log_kernel = component_log_densities(params, dataset.points)
        assert abs(ell - neg_loglik_from_log_densities(log_kernel, params.weights)) <= 1e-12
        if omega is None:
            assert big_l is None
        else:
            assert abs(big_l - semidual_value(log_kernel, params.weights, omega)) <= 1e-12


@PROPERTY_SETTINGS
@given(problem=problems())
def test_sem_fit_descends_the_semidual_loss(problem):
    dataset, init, update_variances = problem
    tol = 1e-4
    cfg = FitConfig(
        max_outer_iterations=30,
        param_change_tolerance=1e-8,
        sinkhorn=SinkhornConfig(tolerance=tol, max_iterations=20000),
        update_variances=update_variances,
    )
    losses = [big_l for _, big_l in sem_fit(dataset, init, cfg).loss_trace]
    assert all(b <= a + 10 * tol for a, b in zip(losses, losses[1:]))


@PROPERTY_SETTINGS
@given(problem=problems())
def test_every_sem_mstep_balances_the_weighted_centres(problem):
    dataset, params, _ = problem
    tol = 1e-6
    cfg = SinkhornConfig(tolerance=tol, max_iterations=100000)
    bound = 10 * tol * np.max(np.abs(dataset.points))
    for _ in range(OUTER_STEPS):
        solution = sinkhorn_estep(params, dataset, cfg)
        params = mstep_gaussian(dataset, solution.responsibilities, params.variances, params.weights)
        gap = params.weights @ params.locations - dataset.points.mean(axis=0)
        assert np.max(np.abs(gap)) <= bound


@PROPERTY_SETTINGS
@given(
    kind=st.sampled_from(["shared", "spherical", "diagonal"]),
    k=st.integers(1, 6),
    d=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_expand_and_pool_are_adjoint(kind, k, d, seed):
    rng = np.random.default_rng(seed)
    spec = VarianceSpec(kind, rng.uniform(0.1, 2.0, size=VarianceSpec.value_shape(kind, k, d)))
    a = rng.normal(size=(k, d))
    pooled = spec.pool(a)
    assert np.shape(pooled) == spec.values.shape
    assert abs(np.sum(spec.expand(k, d) * a) - np.sum(spec.values * pooled)) <= 1e-12
    estimated = replace(spec, fixed=False)
    assert estimated.n_free_parameters(k, d) == spec.pool(np.ones((k, d))).size
    assert spec.n_free_parameters(k, d) == 0


@st.composite
def block_problems(draw):
    """A latent block model, a matrix drawn from it and a random hard start."""
    k = draw(st.integers(2, 3))
    g = draw(st.integers(2, 3))
    n = draw(st.integers(20, 50))
    m = draw(st.integers(15, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    truth = BlockModel(
        rng.uniform(-3.0, 3.0, size=(k, g)),
        rng.uniform(0.5, 1.5, size=(k, g)),
        rng.dirichlet(np.full(k, 10.0)),
        rng.dirichlet(np.full(g, 10.0)),
    )
    y, _, _ = sample_block_data(truth, n, m, rng)
    return y, random_block_init(n, m, k, g, rng), truth


def _block_fit_or_empty_block(fit, y, init, cfg, overrides):
    """The fit, or the (k, g) block an `EmptyBlockError` names."""
    k, g = init.z.shape[1], init.w.shape[1]
    try:
        return fit(y, k, g, init, cfg, **overrides)
    except EmptyBlockError as exc:
        return exc.k, exc.g


@PROPERTY_SETTINGS
@given(
    problem=block_problems(),
    fit=st.sampled_from([vem_fit, svem_fit]),
    known_variances=st.booleans(),
    known_weights=st.booleans(),
    data=st.data(),
)
def test_permuting_rows_and_columns_permutes_the_block_fit(
    problem, fit, known_variances, known_weights, data
):
    y, init, truth = problem
    rows = np.array(data.draw(st.permutations(range(y.shape[0]))))
    cols = np.array(data.draw(st.permutations(range(y.shape[1]))))
    # inferred weights slow the transport solves near hard assignments; the
    # default iteration cap keeps the fit cheap and still deterministic
    cfg = FitConfig(
        sinkhorn=SinkhornConfig(tolerance=1e-10),
        update_variances=not known_variances,
        update_weights=not known_weights,
    )
    overrides = {}
    if known_variances:
        overrides["variances"] = truth.variances
    if known_weights:
        overrides.update(row_weights=truth.row_weights, col_weights=truth.col_weights)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SinkhornNonConvergence)
        base = _block_fit_or_empty_block(fit, y, init, cfg, overrides)
        permuted = _block_fit_or_empty_block(
            fit, y[np.ix_(rows, cols)], BlockResponsibilities(init.z[rows], init.w[cols]),
            cfg, overrides,
        )
    if not isinstance(base[0], BlockModel):
        assert permuted == base
        return
    (model, resp, report), (p_model, p_resp, p_report) = base, permuted
    for name in ("means", "variances", "row_weights", "col_weights"):
        np.testing.assert_allclose(
            getattr(p_model, name), getattr(model, name), rtol=0, atol=ATOL
        )
    np.testing.assert_allclose(p_resp.z, resp.z[rows], rtol=0, atol=ATOL)
    np.testing.assert_allclose(p_resp.w, resp.w[cols], rtol=0, atol=ATOL)
    assert p_report.iterations == report.iterations


@PROPERTY_SETTINGS
@given(
    problem=block_problems(),
    fit=st.sampled_from([vem_fit, svem_fit]),
    known_variances=st.booleans(),
    offset=st.sampled_from([1e3, 1e6]),
)
def test_translating_the_matrix_translates_the_block_means(problem, fit, known_variances, offset):
    y, init, truth = problem
    cfg = FitConfig(
        sinkhorn=SinkhornConfig(tolerance=1e-10), update_variances=not known_variances
    )
    overrides = {"row_weights": truth.row_weights, "col_weights": truth.col_weights}
    if known_variances:
        overrides["variances"] = truth.variances
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SinkhornNonConvergence)
        base = _block_fit_or_empty_block(fit, y, init, cfg, overrides)
        shifted = _block_fit_or_empty_block(fit, y + offset, init, cfg, overrides)
    if not isinstance(base[0], BlockModel):
        assert shifted == base
        return
    (model, resp, report), (s_model, s_resp, s_report) = base, shifted
    np.testing.assert_allclose(s_model.means - offset, model.means, rtol=0, atol=ATOL)
    np.testing.assert_allclose(s_model.variances, model.variances, rtol=0, atol=ATOL)
    np.testing.assert_allclose(s_resp.z, resp.z, rtol=0, atol=ATOL)
    np.testing.assert_allclose(s_resp.w, resp.w, rtol=0, atol=ATOL)
    assert s_report.iterations == report.iterations
