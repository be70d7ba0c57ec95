"""Benchmark workloads: seeded inputs, the fits each pair runs, and output checks.

A workload is a pool of *pairs* generated from the seed during set-up.  A pair
is one dataset and one start; running it fits the workload's fixed mix of
methods from that shared start and scores each fit against the truth.  The
timed loop runs pairs back to back (closed loop, one caller).

Every fit is called through its module attribute (``fitting.em_fit``, not a
name bound here), so the tracer's patches reach the benchmark's own calls too.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from otmix import coclustering, fitting, metrics
from otmix.coclustering import BlockModel, EmptyBlockError, random_block_init, sample_block_data
from otmix.fitting import EmptyComponentError, FitConfig
from otmix.mixtures import MixtureParams, VarianceSpec, sample_mixture
from otmix.sinkhorn import SinkhornConfig, SinkhornNonConvergence

# The library's documented signals for a degenerate fit.  The studies score
# such a fit as +inf; it counts in failed_fraction but is not a wrong output.
DEGENERATE_ERRORS = (EmptyComponentError, EmptyBlockError)

ROW_TOLERANCE = 1e-10
SVEM_MARGINAL_TOLERANCE = 1e-3

# The pool holds more pairs than a run reaches at today's speed; a faster
# program cycles through it again.  Quality metrics and fractions read only the
# first `quality_pairs` pairs, so for a seed they do not depend on speed.
SIZES = {
    "full": {
        "sweep": dict(k=20, d=2, sigma2=0.1, n=1000, inits=5, replicates=40, quality_pairs=45),
        "spurious": dict(n=20000, trials=12, max_outer=300, quality_pairs=3),
        "cocluster": dict(rows=100, cols=100, k=5, g=5, reps=150, max_outer=20, cap=50000,
                          quality_pairs=45),
    },
    "tiny": {
        "sweep": dict(k=4, d=2, sigma2=0.1, n=120, inits=2, replicates=2, quality_pairs=4),
        "spurious": dict(n=600, trials=2, max_outer=30, quality_pairs=2),
        "cocluster": dict(rows=24, cols=24, k=3, g=3, reps=3, max_outer=3, cap=2000,
                          quality_pairs=3),
    },
}


@dataclass
class Fit:
    """One fit's outcome: what the timing, quality and failure metrics read."""

    pair: int
    method: str
    role: str  # "em", "sem" or "baseline"
    wall_s: float = 0.0
    error: float = math.inf
    scores: tuple = ()
    raised: str | None = None
    degenerate: bool = False
    check: str | None = None
    capped: bool | None = None
    sinkhorn_miss: bool | None = None
    iterations: int | None = None
    sinkhorn_warnings: int = 0
    # fits of one stratum (a cocluster noise level) are timed as a group; see
    # run.strata_geomean
    stratum: float = 0.0

    @property
    def failed(self) -> bool:
        return self.raised is not None or self.check is not None

    @property
    def wrong(self) -> bool:
        """Failed in a way the protocol does not define as an outcome."""
        return self.check is not None or (self.raised is not None and not self.degenerate)

    def fingerprint(self) -> tuple:
        """Everything the quality metrics and fractions read, for exact comparison."""
        return (
            self.pair, self.method, self.error, self.scores, self.raised, self.check,
            self.capped, self.sinkhorn_miss, self.iterations, self.sinkhorn_warnings,
        )


def _call(fit: Fit, fn, *args, **kwargs):
    """Time one fit call, recording Sinkhorn warnings and exceptions on `fit`."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", SinkhornNonConvergence)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed fit is counted; the run goes on
            result = None
            fit.raised = type(exc).__name__
            fit.degenerate = isinstance(exc, DEGENERATE_ERRORS)
        fit.wall_s = time.perf_counter() - t0
    fit.sinkhorn_warnings = sum(issubclass(w.category, SinkhornNonConvergence) for w in caught)
    return result


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(a)) for a in arrays)


def _rows_stochastic(m) -> bool:
    return _finite(m) and float(np.max(np.abs(m.sum(axis=1) - 1.0))) <= ROW_TOLERANCE


def check_mixture_fit(report, transport: bool, tolerance: float) -> str | None:
    """Finite parameters, row-stochastic responsibilities, and (for a Sinkhorn
    fit whose solves all converged) column means within the solver tolerance."""
    p = report.final_params
    if not _finite(p.locations, p.variances.values, p.weights):
        return "non-finite parameters"
    psi = report.responsibilities.matrix
    if not _rows_stochastic(psi):
        return "responsibility rows do not sum to 1"
    if transport and report.sinkhorn_converged:
        if float(np.max(np.abs(psi.mean(axis=0) - p.weights))) > tolerance:
            return "column means miss the weights"
    return None


def check_block_fit(model, resp, report, transport: bool) -> str | None:
    if not _finite(model.means, model.variances):
        return "non-finite block parameters"
    if not (_rows_stochastic(resp.z) and _rows_stochastic(resp.w)):
        return "block responsibility rows do not sum to 1"
    if transport and report.max_marginal_error > SVEM_MARGINAL_TOLERANCE:
        return "transport marginal error above 1e-3"
    return None


def _rng(*path) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(path))


def _mixture_fits(index: int, data, init, cfg: FitConfig):
    """Fit EM, then SEM, from one start.  Yields (fit, report); report is None
    when the fit raised or its output failed a check, and then goes unscored."""
    for method, fn in (("em", fitting.em_fit), ("sem", fitting.sem_fit)):
        fit = Fit(index, method, method)
        report = _call(fit, fn, data, init, cfg)
        if report is not None:
            transport = method == "sem"
            fit.iterations = report.iterations
            fit.capped = not report.converged
            if transport:
                fit.sinkhorn_miss = not report.sinkhorn_converged
            fit.check = check_mixture_fit(report, transport, cfg.sinkhorn.tolerance)
        yield fit, (report if fit.check is None else None)


class Sweep:
    """C10 cell: K-means, EM and SEM from shared k-means++ starts."""

    def __init__(self, size: str, diagonal: bool):
        self.p = SIZES[size]["sweep"]
        self.diagonal = diagonal
        self.cfg = FitConfig(update_variances=diagonal)

    def _truth(self, rng) -> MixtureParams:
        k, d, s2 = self.p["k"], self.p["d"], self.p["sigma2"]
        locations = rng.uniform(-1.0, 1.0, size=(k, d))
        if self.diagonal:
            spec = VarianceSpec.diagonal(rng.uniform(0.5 * s2, 1.5 * s2, size=(k, d)))
        else:
            spec = VarianceSpec.shared(s2)
        return MixtureParams(locations, spec, np.full(k, 1.0 / k))

    def make_pool(self, seed: int) -> list:
        k, d = self.p["k"], self.p["d"]
        if self.diagonal:
            start_spec = VarianceSpec.diagonal(np.ones((k, d)), fixed=False)
        else:
            start_spec = VarianceSpec.shared(self.p["sigma2"], fixed=True)
        pool = []
        for r in range(self.p["replicates"]):
            truth = self._truth(_rng(seed, r, 0))
            data = sample_mixture(truth, self.p["n"], _rng(seed, r, 1))
            for s in range(self.p["inits"]):
                init = metrics.kmeanspp_init(data, k, np.random.SeedSequence((seed, r, 2 + s)))
                pool.append((truth, data, init.with_variances(start_spec)))
        return pool

    def run_pair(self, pair, index: int) -> list:
        truth, data, init = pair
        out = []
        km = Fit(index, "kmeans", "baseline")
        result = _call(km, metrics.lloyd_kmeans, data, init, max_iter=self.cfg.max_outer_iterations)
        if result is not None:
            params, inertia = result
            if not _finite(params.locations, inertia):
                km.check = "non-finite centers"
            else:
                labels = metrics.kmeans_labels(params, data)
                km.error = metrics.center_error(params, truth)
                km.scores = (metrics.adjusted_rand_index(labels, data.true_labels),)
        out.append(km)
        for fit, report in _mixture_fits(index, data, init, self.cfg):
            if report is not None:
                params = report.final_params
                labels = np.argmax(report.responsibilities.matrix, axis=1)
                fit.error = metrics.center_error(params, truth)
                fit.scores = (
                    metrics.adjusted_rand_index(labels, data.true_labels),
                    metrics.bic_score(params, data),
                )
            out.append(fit)
        return out


class Spurious:
    """C9: EM and SEM from the many-fit-one start on the three-component truth."""

    D, R, SIGMA, JITTER = 3.0, 9.0, 1.0, 0.1

    def __init__(self, size: str):
        self.p = SIZES[size]["spurious"]
        self.cfg = FitConfig(
            max_outer_iterations=self.p["max_outer"],
            param_change_tolerance=1e-4,
            sinkhorn=SinkhornConfig(tolerance=1e-3, max_iterations=1000),
        )
        locations = np.array([[0.0, self.D], [0.0, -self.D], [self.R, 0.0]])
        self.truth = MixtureParams(
            locations, VarianceSpec.shared(self.SIGMA**2), np.full(3, 1.0 / 3.0)
        )

    def make_pool(self, seed: int) -> list:
        base = np.array([[0.0, 0.0], [self.R, 0.0], [self.R, 0.0]])
        pool = []
        for t in range(self.p["trials"]):
            data = sample_mixture(self.truth, self.p["n"], _rng(seed, t, 0))
            jitter = _rng(seed, t, 1).uniform(-self.JITTER, self.JITTER, size=(3, 2))
            init = MixtureParams(base + jitter, self.truth.variances, self.truth.weights)
            pool.append((data, init))
        return pool

    def run_pair(self, pair, index: int) -> list:
        data, init = pair
        out = []
        for fit, report in _mixture_fits(index, data, init, self.cfg):
            if report is not None:
                params = report.final_params
                fit.error = metrics.center_error(params, self.truth)
                fit.scores = (metrics.balance_residual(params, data, report.responsibilities),)
            out.append(fit)
        return out


class Cocluster:
    """C12: VEM and SVEM on a Gaussian latent block model with known variances
    and weights.  Consecutive pairs cycle through the three noise levels, so
    every run holds them in equal shares."""

    SIGMA2 = (1.0, 2.5, 5.0)

    def __init__(self, size: str):
        self.p = SIZES[size]["cocluster"]
        self.cfg = FitConfig(
            max_outer_iterations=self.p["max_outer"],
            sinkhorn=SinkhornConfig(tolerance=1e-3, max_iterations=self.p["cap"]),
        )

    def make_pool(self, seed: int) -> list:
        n, m, k, g = self.p["rows"], self.p["cols"], self.p["k"], self.p["g"]
        pool = []
        for r in range(self.p["reps"]):
            rng = _rng(seed, r)
            sigma2 = self.SIGMA2[r % len(self.SIGMA2)]
            model = BlockModel(
                rng.uniform(-5.0, 5.0, size=(k, g)),
                np.full((k, g), sigma2),
                np.full(k, 1.0 / k),
                np.full(g, 1.0 / g),
            )
            y, _, _ = sample_block_data(model, n, m, rng)
            pool.append((model, y, random_block_init(n, m, k, g, rng)))
        return pool

    def run_pair(self, pair, index: int) -> list:
        model, y, init = pair
        k, g = self.p["k"], self.p["g"]
        out = []
        for method, role, fn in (
            ("vem", "em", coclustering.vem_fit),
            ("svem", "sem", coclustering.svem_fit),
        ):
            fit = Fit(index, method, role, stratum=float(model.variances[0, 0]))
            result = _call(
                fit, fn, y, k, g, init, self.cfg,
                variances=model.variances,
                row_weights=model.row_weights,
                col_weights=model.col_weights,
            )
            if result is not None:
                fitted, resp, report = result
                fit.iterations = report.iterations
                fit.capped = not report.converged
                if role == "sem":
                    fit.sinkhorn_miss = report.max_marginal_error > SVEM_MARGINAL_TOLERANCE
                fit.check = check_block_fit(fitted, resp, report, role == "sem")
                if fit.check is None:
                    fit.error = coclustering.block_score(fitted, model)
            out.append(fit)
        return out


WORKLOADS = ("sweep", "sweep-diag", "spurious", "cocluster")


def make(name: str, size: str = "full"):
    if name == "sweep":
        return Sweep(size, diagonal=False)
    if name == "sweep-diag":
        return Sweep(size, diagonal=True)
    if name == "spurious":
        return Spurious(size)
    if name == "cocluster":
        return Cocluster(size)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
