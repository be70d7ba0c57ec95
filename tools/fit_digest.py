#!/usr/bin/env python3
"""Print a digest of otmix's fit outputs: one `key sha1` line per output.

    PYTHONPATH=src python3 tools/fit_digest.py > digest.txt

`otmix` is imported from PYTHONPATH, so running the script in two checkouts
and comparing the outputs with `diff` shows which outputs a change moved.
Every value is hashed exactly (floats by their bytes), so the digests agree
only where the outputs agree to the bit.  It covers:

- `em_fit` and `sem_fit` on random instances over the three variance kinds,
  with estimated and known variances; EM with and without weight updates,
  Sinkhorn-EM with weight updates, and Sinkhorn-EM at fixed weights at the
  default solver config and at a forced-miss one (tolerance 1e-8, 3
  iterations); each fit gives four lines: parameters, loss trace,
  responsibilities, and flags (iterations, convergence and the warnings
  raised);
- `vem_fit` and `svem_fit` with and without known-parameter overrides;
- the result files of criterion C14 (`run_experiment` and
  `run_selection_sweep` at its spec);
- a Dirichlet-weight `run_experiment` in variance regimes iii and iv, where
  Sinkhorn-EM infers the weights, and a uniform-weight one over regimes ii,
  iii and iv;
- a best-of-seeds `run_experiment` (criterion C10's selection by ell);
- the report file of `otmix fit --method sem`, and the files of
  `otmix simulate --variance-regime ii --gamma 3`, written through `cli.main`.

Only the public API and the command line are used.  Runs in well under a
minute on one core.
"""

import hashlib
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

import otmix
from otmix import cli
from otmix import (
    BlockModel,
    ExperimentSpec,
    FitConfig,
    MixtureParams,
    SinkhornConfig,
    VarianceSpec,
    em_fit,
    random_block_init,
    run_experiment,
    run_selection_sweep,
    sample_block_data,
    sample_mixture,
    sem_fit,
    svem_fit,
    vem_fit,
)

SEED = 20261018
N_INSTANCES = 20
SOLVERS = {"default": SinkhornConfig(), "miss": SinkhornConfig(tolerance=1e-8, max_iterations=3)}


def _plain(value):
    """A repr-able form of `value` in which every float keeps all its bits."""
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        return ("ndarray", str(arr.dtype), arr.shape, arr.tobytes())
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    return value


def sha1(value) -> str:
    return hashlib.sha1(repr(_plain(value)).encode()).hexdigest()


def _recorded(fit):
    """Run `fit()` and return its result (or error) and the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fit()
        except (RuntimeError, ValueError) as exc:
            result = exc
    return result, [(type(w.message).__name__, str(w.message)) for w in caught]


def _instance(index: int, kind: str, estimated: bool):
    rng = np.random.default_rng((SEED, index))
    k, d = int(rng.integers(2, 5)), int(rng.integers(1, 4))
    shape = {"shared": (), "spherical": (k,), "diagonal": (k, d)}[kind]
    values = rng.uniform(0.1, 0.6, size=shape)
    truth = MixtureParams(
        rng.uniform(-2.0, 2.0, size=(k, d)),
        VarianceSpec(kind, values, fixed=not estimated),
        rng.dirichlet(np.full(k, 10.0)),
    )
    data = sample_mixture(truth, 150, rng)
    init = truth.with_locations(truth.locations + rng.normal(scale=0.5, size=(k, d)))
    return data, init


def mixture_entries():
    for index in range(N_INSTANCES):
        for kind in ("shared", "spherical", "diagonal"):
            for estimated in (False, True):
                data, init = _instance(index, kind, estimated)
                runs = [(f"em/w-{w}", em_fit, FitConfig(update_variances=estimated,
                                                        update_weights=w))
                        for w in (False, True)]
                runs.append(("sem/w-True", sem_fit, FitConfig(update_variances=estimated,
                                                              update_weights=True)))
                runs += [(f"sem/{name}", sem_fit, FitConfig(sinkhorn=solver,
                                                            update_variances=estimated))
                         for name, solver in SOLVERS.items()]
                for label, fit, cfg in runs:
                    key = f"fit/{index:02d}/{kind}/var-{'est' if estimated else 'known'}/{label}"
                    report, caught = _recorded(lambda: fit(data, init, cfg))
                    if isinstance(report, Exception):
                        yield f"{key}/error", (type(report).__name__, str(report), caught)
                        continue
                    p = report.final_params
                    yield f"{key}/params", (p.locations, p.variances.values, p.weights)
                    yield f"{key}/trace", report.loss_trace
                    yield f"{key}/resp", report.responsibilities.matrix
                    yield f"{key}/flags", (report.iterations, report.converged,
                                           report.sinkhorn_converged, caught)


def cocluster_entries():
    truth = BlockModel(
        means=np.array([[0.0, 2.0, -1.0], [1.5, -0.5, 1.0]]),
        variances=np.full((2, 3), 0.8),
        row_weights=np.array([0.4, 0.6]),
        col_weights=np.array([0.3, 0.3, 0.4]),
    )
    y, _, _ = sample_block_data(truth, 40, 30, SEED)
    overrides = {
        "none": {},
        "known": {"variances": 0.8, "row_weights": truth.row_weights,
                  "col_weights": truth.col_weights},
    }
    configs = {"fixed": FitConfig(), "estimated": FitConfig(update_variances=True,
                                                            update_weights=True)}
    for method, fit in (("vem", vem_fit), ("svem", svem_fit)):
        for oname, kwargs in overrides.items():
            for cname, cfg in configs.items():
                for seed in range(2):
                    init = random_block_init(40, 30, 2, 3, seed)
                    out, caught = _recorded(lambda: fit(y, 2, 3, init, cfg, **kwargs))
                    key = f"cocluster/{method}/{oname}/{cname}/{seed}"
                    if isinstance(out, Exception):
                        yield key, (type(out).__name__, str(out), caught)
                        continue
                    model, resp, report = out
                    yield key, (model.means, model.variances, model.row_weights,
                                model.col_weights, resp.z, resp.w, report.converged,
                                report.iterations, report.max_marginal_error,
                                report.inner_surrogates, caught)


def file_entries(tmp: Path):
    c14 = ExperimentSpec(ks=(3, 4), ds=(2,), sigma2s=(0.05,), ns=(150,), n_replicates=2,
                         n_seeds=2, methods=("kmeans", "em", "sem"), master_seed=114)
    run_experiment(c14, out_dir=tmp / "c14")
    yield "file/c14/results.csv", (tmp / "c14" / "results.csv").read_text()
    run_selection_sweep(k_true=3, d=1, sigma2=0.02, n=100, n_replicates=2, candidates=[2, 3, 4],
                        n_seeds=1, master_seed=114, out_path=tmp / "selection.csv")
    yield "file/c14/selection.csv", (tmp / "selection.csv").read_text()
    for regime in ("iii", "iv"):
        spec = ExperimentSpec(ks=(3,), ds=(2,), sigma2s=(0.05,), ns=(120,),
                              variance_regimes=(regime,), weight_regime="dirichlet",
                              dirichlet_gamma=3.0, n_replicates=3, n_seeds=1,
                              methods=("em", "sem"), master_seed=7)
        run_experiment(spec, out_dir=tmp / regime)
        yield f"file/dirichlet-{regime}/results.csv", (tmp / regime / "results.csv").read_text()
    uniform = ExperimentSpec(ks=(3,), ds=(2,), sigma2s=(0.05,), ns=(120,),
                             variance_regimes=("ii", "iii", "iv"), n_replicates=2, n_seeds=1,
                             methods=("kmeans", "em", "sem"), master_seed=7)
    run_experiment(uniform, out_dir=tmp / "uniform")
    yield "file/uniform-ii-iv/results.csv", (tmp / "uniform" / "results.csv").read_text()
    best = ExperimentSpec(ks=(4,), ds=(2,), sigma2s=(0.05,), ns=(150,), n_replicates=3,
                          n_seeds=3, methods=("kmeans", "em", "sem"), selection="best-of-seeds",
                          master_seed=110)
    run_experiment(best, out_dir=tmp / "best")
    yield "file/best-of-seeds/results.csv", (tmp / "best" / "results.csv").read_text()
    data, report = tmp / "fit-data.csv", tmp / "fit-report.json"
    cli.main(["simulate", "--k", "3", "--d", "2", "--sigma2", "0.05", "--n", "150", "--seed", "3",
              "--out-data", str(data), "--out-params", str(tmp / "fit-truth.json")])
    cli.main(["fit", "--data", str(data), "--method", "sem", "--k", "3", "--sigma2", "0.05",
              "--seed", "4", "--trace", "--out-report", str(report)])
    yield "file/cli-fit-sem/report.json", report.read_text()
    data, truth = tmp / "sim-data.csv", tmp / "sim-truth.json"
    cli.main(["simulate", "--k", "3", "--d", "2", "--sigma2", "0.05", "--n", "150", "--seed", "5",
              "--variance-regime", "ii", "--gamma", "3", "--out-data", str(data),
              "--out-params", str(truth)])
    yield "file/cli-simulate-ii-gamma/data.csv", data.read_text()
    yield "file/cli-simulate-ii-gamma/truth.json", truth.read_text()


def entries():
    """Every (key, value) pair the digest covers, in a fixed order."""
    yield from mixture_entries()
    yield from cocluster_entries()
    with tempfile.TemporaryDirectory() as tmp:
        yield from file_entries(Path(tmp))


def main() -> int:
    print(f"otmix from {Path(otmix.__file__).parent}", file=sys.stderr)
    for key, value in entries():
        print(key, sha1(value))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
