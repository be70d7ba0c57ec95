"""Configuration-driven experiment runner for the synthetic studies.

A sweep is fully determined by one flat key = value config file plus a master
seed.  Every random draw flows through a documented stream-splitting rule on
numpy SeedSequence (PCG64 generators):

    truth of (cell c, replicate r):   SeedSequence((master, c, r, 0))
    dataset of (c, r):                SeedSequence((master, c, r, 1))
    k-means++ init of (c, r, seed s): SeedSequence((master, c, r, 2 + s))

so reruns with the same master seed are bit-identical in single-thread mode.
All methods within one (cell, replicate, seed) share the same k-means++
initialization; rows carry a hash of the init so that sharing is auditable.
Wall-clock columns are written as 0 unless timing is switched on, keeping the
default output files byte-reproducible.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import numbers
import time
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .fitting import EmptyComponentError, FitConfig, em_fit, sem_fit
from .metrics import (
    adjusted_rand_index,
    balance_residual,
    bic_score,
    center_error,
    kmeans_labels,
    kmeanspp_init,
    lloyd_kmeans,
    select_k,
)
from .mixtures import VARIANCE_FLOOR, MixtureParams, VarianceSpec, _require_at_least, sample_mixture
from .sinkhorn import SinkhornNonConvergence

# regime: (variance kind of the truth, whether the fits estimate the variances)
VARIANCE_REGIMES = {
    "i": ("shared", False),
    "ii": ("diagonal", False),
    "iii": ("shared", True),
    "iv": ("diagonal", True),
}
METHODS = ("kmeans", "em", "sem")

RESULT_COLUMNS = [
    "K",
    "d",
    "sigma2",
    "N",
    "variance_regime",
    "weight_regime",
    "dirichlet_gamma",
    "replicate",
    "method",
    "seed",
    "error",
    "ari",
    "bic",
    "iterations",
    "wall_ms",
    "converged",
    "init_hash",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """One synthetic sweep: a grid of cells, replication counts, and methods.

    Every fit runs at the protocol defaults of `FitConfig`.
    """

    ks: tuple = ()
    ds: tuple = ()
    sigma2s: tuple = ()
    ns: tuple = ()
    variance_regimes: tuple = ("i",)
    weight_regime: str = "uniform"
    dirichlet_gamma: float | None = None
    n_replicates: int = 20
    n_seeds: int = 5
    methods: tuple = METHODS
    selection: str = "per-seed"
    master_seed: int = 0

    def __post_init__(self):
        for name in _TUPLE_FIELDS:
            object.__setattr__(self, name, tuple(getattr(self, name)))
        # messages name the config-file keys, which are also the result columns
        for key, name in CONFIG_KEYS.items():
            if name in _TUPLE_FIELDS and not getattr(self, name):
                raise ValueError(f"{key} must list at least one value")
        integers = {"K": self.ks, "d": self.ds, "N": self.ns, "n_replicates": [self.n_replicates],
                    "n_seeds": [self.n_seeds]}
        reals = {"sigma2": self.sigma2s}
        if self.weight_regime not in ("uniform", "dirichlet"):
            raise ValueError("weight_regime must be 'uniform' or 'dirichlet'")
        if self.weight_regime == "dirichlet":
            reals["dirichlet_gamma"] = [self.dirichlet_gamma]
        elif self.dirichlet_gamma is not None:
            raise ValueError(f"dirichlet_gamma goes only with weight_regime 'dirichlet', "
                             f"got {self.dirichlet_gamma!r}")
        for kind, what, table in ((numbers.Integral, "integer", integers),
                                  (numbers.Real, "number", reals)):
            for key, values in table.items():
                for v in values:
                    if isinstance(v, bool) or not isinstance(v, kind) or not v > 0:
                        raise ValueError(f"{key} must be a positive {what}, got {v!r}")
        if not (isinstance(self.master_seed, numbers.Integral) and self.master_seed >= 0):
            raise ValueError(f"master_seed must be a non-negative integer, got {self.master_seed!r}")
        if not all(r in VARIANCE_REGIMES for r in self.variance_regimes):
            raise ValueError(f"variance_regime must be among {tuple(VARIANCE_REGIMES)}")
        if not all(m in METHODS for m in self.methods):
            raise ValueError(f"methods must be among {METHODS}")
        if self.selection not in ("per-seed", "best-of-seeds"):
            raise ValueError("selection must be 'per-seed' or 'best-of-seeds'")

    def cells(self) -> list[tuple]:
        return list(
            itertools.product(self.ks, self.ds, self.sigma2s, self.ns, self.variance_regimes)
        )


_TUPLE_FIELDS = tuple(f.name for f in fields(ExperimentSpec) if f.type == "tuple")
# config keys that differ from the field they set; every other key is its field's name
CONFIG_KEYS = {"K": "ks", "d": "ds", "sigma2": "sigma2s", "N": "ns",
               "variance_regime": "variance_regimes"}
CONFIG_KEYS.update((f.name, f.name) for f in fields(ExperimentSpec)
                   if f.name not in CONFIG_KEYS.values())


def parse_config_value(raw: str):
    raw = raw.strip()
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def load_config(path) -> dict:
    """Flat `key = value` file; values are JSON scalars or arrays, # comments."""
    out = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = line.split("=", 1)
        out[key.strip()] = parse_config_value(raw)
    return out


def spec_from_config(path) -> ExperimentSpec:
    raw = load_config(path)
    kwargs = {}
    for key, value in raw.items():
        if key not in CONFIG_KEYS:
            raise ValueError(f"{path}: unknown config key {key!r}")
        name = CONFIG_KEYS[key]
        if name in _TUPLE_FIELDS:
            value = value if isinstance(value, list) else [value]
        kwargs[name] = value
    try:
        return ExperimentSpec(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _task_rng(master_seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((master_seed, *path)))


def _sample_truth(rng, k, d, sigma2, regime, gamma) -> MixtureParams:
    """Truth of one cell: Dirichlet(gamma / K) weights, or uniform ones when gamma is None."""
    locations = rng.uniform(-1.0, 1.0, size=(k, d))
    kind, _ = VARIANCE_REGIMES[regime]
    values = sigma2
    if kind != "shared":
        values = rng.uniform(0.5 * sigma2, 1.5 * sigma2, size=VarianceSpec.value_shape(kind, k, d))
    weights = np.full(k, 1.0 / k)
    if gamma is not None:
        weights = np.maximum(rng.dirichlet(np.full(k, gamma / k)), 1e-8)
        weights = weights / weights.sum()
    return MixtureParams(locations, VarianceSpec(kind, values), weights)


def _init_hash(params: MixtureParams) -> str:
    return hashlib.sha1(np.ascontiguousarray(params.locations).tobytes()).hexdigest()[:10]


def _format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_rows_csv(path, rows: list[dict], columns: list[str]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_format_value(row.get(c)) for c in columns) + "\n")


def _run_one_method(method, data, init, infer_weights: bool):
    """Fit one method from a shared init; returns (params, labels, report-ish).

    The fit estimates the variances exactly when the init's are not fixed.
    elapsed is the wall time of the fit call alone; a fit's selection value is
    its report's final ell, and k-means' is its inertia.
    """
    t0 = time.perf_counter()
    if method == "kmeans":
        params, inertia = lloyd_kmeans(data, init, max_iter=FitConfig.max_outer_iterations)
    else:
        fit = em_fit if method == "em" else sem_fit
        cfg = FitConfig(update_variances=not init.variances.fixed, update_weights=infer_weights)
        report = fit(data, init, cfg)
    elapsed = time.perf_counter() - t0
    if method == "kmeans":
        return params, kmeans_labels(params, data), {
            "selection_value": inertia, "iterations": None, "elapsed": elapsed,
            "converged": True, "bic": None,
        }
    params = report.final_params
    return params, np.argmax(report.responsibilities.matrix, axis=1), {
        "selection_value": report.loss_trace[-1][0], "iterations": report.iterations,
        "elapsed": elapsed, "converged": report.converged,
        "bic": bic_score(params, data, weights_estimated=infer_weights),
    }


def run_experiment(spec: ExperimentSpec, out_dir=None, timing: bool = False) -> list[dict]:
    """Execute the sweep cell by cell; returns (and optionally writes) rows.

    Per-fit failures become rows with converged=false and empty scores; the
    sweep never aborts.  With selection='best-of-seeds' only the best seed
    per (cell, replicate, method) is emitted, chosen by in-sample negative
    log-likelihood (inertia for k-means).
    """
    rows = []
    for cell_index, (k, d, sigma2, n, regime) in enumerate(spec.cells()):
        for rep in range(spec.n_replicates):
            truth = _sample_truth(
                _task_rng(spec.master_seed, cell_index, rep, 0),
                k, d, sigma2, regime, spec.dirichlet_gamma,
            )
            data = sample_mixture(truth, n, _task_rng(spec.master_seed, cell_index, rep, 1))
            # a known regime starts from the truth's variances, an estimated one from free ones
            start = truth.variances
            if VARIANCE_REGIMES[regime][1]:
                start = replace(start, values=np.ones_like(start.values), fixed=False)
            per_method_rows = {m: [] for m in spec.methods}
            for s in range(spec.n_seeds):
                init = kmeanspp_init(data, k, _task_rng(spec.master_seed, cell_index, rep, 2 + s))
                init = init.with_variances(start)
                ihash = _init_hash(init)
                for method in spec.methods:
                    base = {
                        "K": k, "d": d, "sigma2": sigma2, "N": n,
                        "variance_regime": regime,
                        "weight_regime": spec.weight_regime,
                        "dirichlet_gamma": spec.dirichlet_gamma,
                        "replicate": rep, "method": method, "seed": s,
                        "init_hash": ihash,
                    }
                    try:
                        with warnings.catch_warnings():
                            warnings.simplefilter("ignore", SinkhornNonConvergence)
                            params, labels, info = _run_one_method(
                                method, data, init, spec.weight_regime == "dirichlet"
                            )
                    except EmptyComponentError:
                        base.update({
                            "error": None, "ari": None, "bic": None,
                            "iterations": None, "wall_ms": 0, "converged": False,
                            "_selection_value": np.inf,
                        })
                        per_method_rows[method].append(base)
                        continue
                    base.update({
                        "error": center_error(params, truth),
                        "ari": adjusted_rand_index(labels, data.true_labels),
                        "bic": info["bic"],
                        "iterations": info["iterations"],
                        "wall_ms": round(info["elapsed"] * 1000.0, 3) if timing else 0,
                        "converged": info["converged"],
                        "_selection_value": info["selection_value"],
                    })
                    per_method_rows[method].append(base)
            for method in spec.methods:
                mrows = per_method_rows[method]
                if spec.selection == "best-of-seeds":
                    mrows = [min(mrows, key=lambda r: r["_selection_value"])]
                for r in mrows:
                    r.pop("_selection_value", None)
                    rows.append(r)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_rows_csv(out / "results.csv", rows, RESULT_COLUMNS)
    return rows


SPURIOUS_COLUMNS = [
    "trial", "method", "error", "escaped", "balance_residual", "iterations", "converged",
]


def spurious_truth(D: float, R: float, sigma: float) -> MixtureParams:
    locations = np.array([[0.0, D], [0.0, -D], [R, 0.0]])
    return MixtureParams(locations, VarianceSpec.shared(sigma**2), np.full(3, 1.0 / 3.0))


def in_spurious_region(params: MixtureParams, R: float) -> bool:
    """One center left of R/3, two right of 2R/3, all second coordinates within 1 of 0."""
    x = np.sort(params.locations[:, 0])
    y_ok = bool(np.max(np.abs(params.locations[:, 1])) < 1.0)
    return bool(x[0] < R / 3 and x[1] > 2 * R / 3 and x[2] > 2 * R / 3 and y_ok)


def run_spurious_demo(
    D: float,
    R: float,
    sigma: float,
    n: int,
    trials: int,
    seed: int,
    out_path=None,
) -> tuple[list[dict], dict]:
    """Spurious-optimum escape study: EM vs SEM from a many-fit-one start.

    The truth places two components across the second axis and one far along
    the first; both fitters start with one center between the close pair and
    two stacked on the far component (uniform jitter of at most 0.1 per
    coordinate).  Both run at most 300 outer iterations to tolerance 1e-4.
    Reports per-trial errors, whether the fit escaped the spurious region, and
    the balance residual evaluated with each method's own responsibilities.
    """
    _require_at_least(trials=(trials, 1), n=(n, 3))  # n: one point per component
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    truth = spurious_truth(D, R, sigma)
    cfg = FitConfig(max_outer_iterations=300, param_change_tolerance=1e-4)
    rows = []
    for trial in range(trials):
        data = sample_mixture(truth, n, _task_rng(seed, trial, 0))
        rng = _task_rng(seed, trial, 1)
        base_locations = np.array([[0.0, 0.0], [R, 0.0], [R, 0.0]])
        init_locations = base_locations + rng.uniform(-0.1, 0.1, size=(3, 2))
        init = MixtureParams(
            init_locations, VarianceSpec.shared(sigma**2), np.full(3, 1.0 / 3.0)
        )
        for method, fit in (("em", em_fit), ("sem", sem_fit)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SinkhornNonConvergence)
                report = fit(data, init, cfg)
            params = report.final_params
            rows.append({
                "trial": trial,
                "method": method,
                "error": center_error(params, truth),
                "escaped": not in_spurious_region(params, R),
                "balance_residual": balance_residual(params, data, report.responsibilities),
                "iterations": report.iterations,
                "converged": report.converged,
            })
    summary = {}
    for method in ("em", "sem"):
        mrows = [r for r in rows if r["method"] == method]
        summary[method] = {
            "escape_fraction": sum(r["escaped"] for r in mrows) / len(mrows),
            "median_error": float(np.median([r["error"] for r in mrows])),
        }
    if out_path is not None:
        write_rows_csv(out_path, rows, SPURIOUS_COLUMNS)
    return rows, summary


SELECTION_COLUMNS = ["method", "replicate", "K_true", "K_hat", "diff"]


def run_selection_sweep(
    k_true: int,
    d: int,
    sigma2: float,
    n: int,
    n_replicates: int,
    candidates=None,
    n_seeds: int = 2,
    master_seed: int = 0,
    out_path=None,
) -> list[dict]:
    """Model selection study: K-hat via BIC over candidate K, for EM and SEM.

    Data are drawn in variance regime i with equal weights; candidates
    default to K-5 .. K+5 clipped at 1.  Every fit uses the protocol
    defaults of `FitConfig`.  Emits one row per (method, replicate) with the
    selected K and the signed error K_true - K_hat.
    """
    _require_at_least(k_true=(k_true, 1), d=(d, 1), n_replicates=(n_replicates, 1),
                      sigma2=(sigma2, VARIANCE_FLOOR))
    if candidates is None:
        candidates = [k for k in range(k_true - 5, k_true + 6) if k >= 1]
    cfg = FitConfig()
    rows = []
    for rep in range(n_replicates):
        truth = _sample_truth(
            _task_rng(master_seed, 0, rep, 0), k_true, d, sigma2, "i", None
        )
        data = sample_mixture(truth, n, _task_rng(master_seed, 0, rep, 1))
        for method in ("em", "sem"):
            fitter = em_fit if method == "em" else sem_fit

            def fit(dataset, init, seed_index):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", SinkhornNonConvergence)
                    return fitter(dataset, init.with_variances(truth.variances), cfg)

            k_hat, _ = select_k(
                data, candidates, fit, seeds=n_seeds, seed=master_seed + 7919 * rep
            )
            rows.append({
                "method": method,
                "replicate": rep,
                "K_true": k_true,
                "K_hat": k_hat,
                "diff": k_true - k_hat,
            })
    if out_path is not None:
        write_rows_csv(out_path, rows, SELECTION_COLUMNS)
    return rows
