#!/usr/bin/env python3
"""Compare the fit outputs of two checkouts: which are identical to the bit,
which moved only in their floats and how far, and which changed otherwise.

    python3 tools/fit_diff.py PARENT CHANGE

In each checkout a child process imports `otmix` from CHECKOUT/src and
prints one `key json` line per output.  The outputs are:

- `fit/...`: `em_fit` and `sem_fit` on 20 random instances over the three
  variance kinds, with estimated and known variances; EM with and without
  weight updates, Sinkhorn-EM with weight updates, and Sinkhorn-EM at fixed
  weights at the default solver config and at a forced-miss one (tolerance
  1e-8, 3 iterations).  Each fit gives its parameters, loss trace,
  responsibilities and flags (iterations, convergence and the warnings
  raised), or the error it raised;
- `cocluster/...`: `vem_fit` and `svem_fit` with and without known-parameter
  overrides;
- `file/...`: the result files of criterion C14 (`run_experiment` and
  `run_selection_sweep` at its spec); Dirichlet-weight sweeps in variance
  regimes iii and iv, where Sinkhorn-EM infers the weights, and a
  uniform-weight one over regimes ii, iii and iv; a best-of-seeds sweep
  (criterion C10's selection by ell); the report file of `otmix fit --method
  sem` and the files of `otmix simulate --variance-regime ii --gamma 3`;
- `mixture/...`: the trace and final locations of EM and Sinkhorn-EM for 8
  seeds on three cells in d=2 with sigma^2=0.1 and uniform weights, from
  k-means++ starts at the `FitConfig` defaults: the C10 cell (K=20, N=1000)
  with the shared variance known and with diagonal variances estimated, and
  a small-K, tall cell (K=3, N=2000) whose short, many rows take other paths
  through the row reductions.  A fourth, cold cell has C9's geometry (D=3,
  R=9, sigma=1, so K=3) at N=2000: 4 seeds from C9's many-fit-one start, at
  C9's tolerance 1e-4 and 300 outer iterations, whose near-saturated Sinkhorn
  solves run up to 800 iterations.  That makes 56 fits;
- `block/...`: the parameters and VEM surrogates of VEM and Sinkhorn-VEM on
  40 latent block models (20-60 x 20-60, K and G in 2..4, the property
  tests' recipe) from random hard starts, each with known or estimated
  variances and known or inferred weights: 320 fits at Sinkhorn tolerance
  1e-10, so that the solves converge and the fits do not amplify last-bit
  differences as the capped benchmark fits do;
- `solve/...`: `transport_responsibilities` on three families of log kernels,
  each solve giving its potentials, plan, log partition, marginal error,
  iterations and convergence flag.  `warm`: 20 normal kernels at scale 3,
  solved to 1e-4 from the potentials of a 1e-3 solve, which mostly converge
  within the scaling budget; `cold`: 20 such kernels solved to 1e-8 from zero, which
  reach the Newton steps; `saturated`: 40 kernels of the property tests'
  recipe (entries down to -1e3 or -1e4, weights in the reverse order of the
  kernel's column shares), at tolerance 1e-3 or 1e-8 and a cap of 2,000;
- `score/...`: the scorers.  `block`: `block_score` of each `block/` fit
  against its truth; `refine`: `block_score` of a row- and column-permuted
  copy of a random K x G block model (K = 9..12, G = 3 or 6), and of that
  copy with unit Gaussian noise, against the model, which takes the
  alternating refinement; `exclusion`: delta, threshold, covering radius and
  verdict of `many_fit_one_excluded` on 24 one-dimensional groups of r points
  covered by m candidates, with r^m assignment maps below and above
  2,000,000, where earlier versions of `covering_radius` stopped enumerating
  and gave an upper bound;
- `hypothesis/literals`: per `otmix` module, the sorted pool of literal
  constants that Hypothesis's `constants_from_module` reads from it.
  Property tests draw some examples from that pool, so a change to it can
  move their examples.  The API is internal to Hypothesis: the output is
  left out where it cannot be imported.

Floats are printed by `repr`, so they keep every bit; CSV files are parsed
into int, float or string cells and JSON files are parsed; an exception is
`["raised", type, message]` and each warning a `[category, message]` pair.
An output is identical when its JSON text is; moved when only floats differ;
a mismatch when anything else differs (a count, a flag, a warning, an error,
a shape) or it exists on one side only.  Prints, per class of output (the
key's first and last parts), the counts and the largest absolute and
relative change of the moved ones, then the mismatched keys, and, where the
literal pools differ, the literals each module added and removed.  Exits 1 on
any mismatch and 2 on bad usage.  Takes about a minute per checkout on one
core.
"""

import contextlib
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

SEED = 20261018
N_INSTANCES = 20
SEEDS = range(8)
D, SIGMA2 = 2, 0.1
# (K, N, variance regime) per mixture cell; a cell's index seeds its instances
CELLS = ((20, 1000, "shared-known"), (20, 1000, "diagonal-estimated"), (3, 2000, "shared-known"))
SPURIOUS_SEEDS, SPURIOUS_N = range(4), 2000
BLOCK_INSTANCES = range(40)
SOLVE_INSTANCES, SATURATED_INSTANCES = range(20), range(40)
REFINE_ROWS = range(9, 13)
# (group size r, candidates m): r^m maps of candidates onto the group, on both
# sides of 2,000,000
EXCLUSION_SHAPES = ((1, 3), (2, 6), (3, 7), (4, 6), (2, 24), (3, 15), (4, 12), (5, 10))
LITERALS = "hypothesis/literals"


def _plain(value):
    """The JSON form of a value `json` does not know (numpy arrays and scalars)."""
    return value.tolist()


def _fit_outputs(key: str, fit, parts) -> dict:
    """{key/part: value} for each part of fit()'s result, as parts(result,
    warnings) names them, or {key/error: [exception, warnings]} if it raised."""
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fit()
        except (RuntimeError, ValueError) as exc:
            error = ["raised", type(exc).__name__, str(exc)]
    caught = [[w.category.__name__, str(w.message)] for w in caught]
    if error:
        return {f"{key}/error": [error, caught]}
    return {f"{key}/{part}" if part else key: value
            for part, value in parts(result, caught).items()}


def _instance(index: int, kind: str, estimated: bool):
    import numpy as np

    from otmix import MixtureParams, VarianceSpec, sample_mixture

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


def fit_outputs():
    from otmix import FitConfig, SinkhornConfig, em_fit, sem_fit

    solvers = {"default": SinkhornConfig(),
               "miss": SinkhornConfig(tolerance=1e-8, max_iterations=3)}
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
                         for name, solver in solvers.items()]
                for label, fit, cfg in runs:
                    key = f"fit/{index:02d}/{kind}/var-{'est' if estimated else 'known'}/{label}"
                    yield _fit_outputs(key, lambda: fit(data, init, cfg), lambda r, caught: {
                        "params": [r.final_params.locations, r.final_params.variances.values,
                                   r.final_params.weights],
                        "trace": r.loss_trace,
                        "resp": r.responsibilities.matrix,
                        "flags": [r.iterations, r.converged, r.sinkhorn_converged, caught],
                    })


def cocluster_outputs():
    import numpy as np

    from otmix import BlockModel, FitConfig, random_block_init, sample_block_data, svem_fit, vem_fit

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
                    yield _fit_outputs(
                        f"cocluster/{method}/{oname}/{cname}/{seed}",
                        lambda: fit(y, 2, 3, init, cfg, **kwargs),
                        lambda out, caught: {"": _block_fit(*out) | {
                            "inner_surrogates": out[2].inner_surrogates, "warnings": caught}})


def _block_fit(model, resp, report) -> dict:
    return {"means": model.means, "variances": model.variances,
            "row_weights": model.row_weights, "col_weights": model.col_weights,
            "z": resp.z, "w": resp.w, "converged": report.converged,
            "iterations": report.iterations, "max_marginal_error": report.max_marginal_error}


def _cell(text: str):
    for kind in (int, float):
        with contextlib.suppress(ValueError):
            return kind(text)
    return text


def _csv(path: Path) -> list:
    return [[_cell(cell) for cell in row] for row in csv.reader(path.read_text().splitlines())]


def file_outputs(tmp: Path):
    from otmix import ExperimentSpec, cli, run_experiment, run_selection_sweep

    c14 = ExperimentSpec(ks=(3, 4), ds=(2,), sigma2s=(0.05,), ns=(150,), n_replicates=2,
                         n_seeds=2, methods=("kmeans", "em", "sem"), master_seed=114)
    run_experiment(c14, out_dir=tmp / "c14")
    yield {"file/c14/results.csv": _csv(tmp / "c14" / "results.csv")}
    run_selection_sweep(k_true=3, d=1, sigma2=0.02, n=100, n_replicates=2, candidates=[2, 3, 4],
                        n_seeds=1, master_seed=114, out_path=tmp / "selection.csv")
    yield {"file/c14/selection.csv": _csv(tmp / "selection.csv")}
    for regime in ("iii", "iv"):
        spec = ExperimentSpec(ks=(3,), ds=(2,), sigma2s=(0.05,), ns=(120,),
                              variance_regimes=(regime,), weight_regime="dirichlet",
                              dirichlet_gamma=3.0, n_replicates=3, n_seeds=1,
                              methods=("em", "sem"), master_seed=7)
        run_experiment(spec, out_dir=tmp / regime)
        yield {f"file/dirichlet-{regime}/results.csv": _csv(tmp / regime / "results.csv")}
    uniform = ExperimentSpec(ks=(3,), ds=(2,), sigma2s=(0.05,), ns=(120,),
                             variance_regimes=("ii", "iii", "iv"), n_replicates=2, n_seeds=1,
                             methods=("kmeans", "em", "sem"), master_seed=7)
    run_experiment(uniform, out_dir=tmp / "uniform")
    yield {"file/uniform-ii-iv/results.csv": _csv(tmp / "uniform" / "results.csv")}
    best = ExperimentSpec(ks=(4,), ds=(2,), sigma2s=(0.05,), ns=(150,), n_replicates=3,
                          n_seeds=3, methods=("kmeans", "em", "sem"), selection="best-of-seeds",
                          master_seed=110)
    run_experiment(best, out_dir=tmp / "best")
    yield {"file/best-of-seeds/results.csv": _csv(tmp / "best" / "results.csv")}
    data, report = tmp / "fit-data.csv", tmp / "fit-report.json"
    cli.main(["simulate", "--k", "3", "--d", "2", "--sigma2", "0.05", "--n", "150", "--seed", "3",
              "--out-data", str(data), "--out-params", str(tmp / "fit-truth.json")])
    cli.main(["fit", "--data", str(data), "--method", "sem", "--k", "3", "--sigma2", "0.05",
              "--seed", "4", "--trace", "--out-report", str(report)])
    yield {"file/cli-fit-sem/report.json": json.loads(report.read_text())}
    data, truth = tmp / "sim-data.csv", tmp / "sim-truth.json"
    cli.main(["simulate", "--k", "3", "--d", "2", "--sigma2", "0.05", "--n", "150", "--seed", "5",
              "--variance-regime", "ii", "--gamma", "3", "--out-data", str(data),
              "--out-params", str(truth)])
    yield {"file/cli-simulate-ii-gamma/data.csv": _csv(data),
           "file/cli-simulate-ii-gamma/truth.json": json.loads(truth.read_text())}


def mixture_outputs():
    import numpy as np

    from otmix import FitConfig, MixtureParams, VarianceSpec, kmeanspp_init, sample_mixture
    from otmix.harness import spurious_truth

    for seed in SEEDS:
        for cell, (k, n, regime) in enumerate(CELLS):
            rng = np.random.default_rng((seed, cell))
            locations = rng.uniform(-1.0, 1.0, size=(k, D))
            if regime == "shared-known":
                truth_variances = init_variances = VarianceSpec.shared(SIGMA2)
            else:
                truth_variances = VarianceSpec.diagonal(rng.uniform(0.5, 1.5, (k, D)) * SIGMA2)
                init_variances = VarianceSpec.diagonal(np.ones((k, D)), fixed=False)
            truth = MixtureParams(locations, truth_variances, np.full(k, 1.0 / k))
            data = sample_mixture(truth, n, rng)
            init = kmeanspp_init(data, k, rng).with_variances(init_variances)
            cfg = FitConfig(update_variances=regime == "diagonal-estimated")
            yield from _both_mixture_fits(f"{seed}/K{k}-N{n}-{regime}", data, init, cfg)
    truth = spurious_truth(3.0, 9.0, 1.0)
    cfg = FitConfig(max_outer_iterations=300, param_change_tolerance=1e-4)
    for seed in SPURIOUS_SEEDS:
        rng = np.random.default_rng((seed, len(CELLS) + 1))
        data = sample_mixture(truth, SPURIOUS_N, rng)
        start = np.array([[0.0, 0.0], [9.0, 0.0], [9.0, 0.0]]) + rng.uniform(-0.1, 0.1, (3, 2))
        init = MixtureParams(start, truth.variances, truth.weights)
        yield from _both_mixture_fits(f"{seed}/K3-N{SPURIOUS_N}-many-fit-one", data, init, cfg)


def _both_mixture_fits(name: str, data, init, cfg):
    """The outputs of EM's and Sinkhorn-EM's fit of `data` from `init`."""
    from otmix import em_fit, sem_fit

    for method, fit in (("em", em_fit), ("sem", sem_fit)):
        yield _fit_outputs(f"mixture/{name}/{method}", lambda: fit(data, init, cfg),
                           lambda r, caught: {
                               "trace": {"iterations": r.iterations, "trace": r.loss_trace,
                                         "warnings": caught},
                               "locations": r.final_params.locations})


def block_outputs():
    import numpy as np

    from otmix import (BlockModel, FitConfig, SinkhornConfig, block_score, random_block_init,
                       sample_block_data, svem_fit, vem_fit)

    for instance in BLOCK_INSTANCES:
        rng = np.random.default_rng((instance, len(CELLS)))
        k, g = (int(v) for v in rng.integers(2, 5, size=2))
        n, m = (int(v) for v in rng.integers(20, 61, size=2))
        truth = BlockModel(rng.uniform(-3.0, 3.0, size=(k, g)), rng.uniform(0.5, 1.5, size=(k, g)),
                           rng.dirichlet(np.full(k, 10.0)), rng.dirichlet(np.full(g, 10.0)))
        y, _, _ = sample_block_data(truth, n, m, rng)
        init = random_block_init(n, m, k, g, rng)
        for known_variances in (True, False):
            for known_weights in (True, False):
                cfg = FitConfig(sinkhorn=SinkhornConfig(tolerance=1e-10),
                                update_variances=not known_variances,
                                update_weights=not known_weights)
                overrides = {"variances": truth.variances} if known_variances else {}
                if known_weights:
                    overrides.update(row_weights=truth.row_weights, col_weights=truth.col_weights)
                regime = (f"{'known' if known_variances else 'estimated'}-variances-"
                          f"{'known' if known_weights else 'inferred'}-weights")
                for method, fit in (("vem", vem_fit), ("svem", svem_fit)):
                    name = f"{instance}/K{k}-G{g}-{n}x{m}-{regime}/{method}"
                    outputs = _fit_outputs(
                        f"block/{name}", lambda: fit(y, k, g, init, cfg, **overrides),
                        lambda out, caught: {"params": _block_fit(*out) | {"warnings": caught},
                                             "surrogates": out[2].inner_surrogates,
                                             "score": block_score(out[0], truth)})
                    score = outputs.pop(f"block/{name}/score", None)
                    yield outputs if score is None else outputs | {f"score/{name}/block": score}


def score_outputs():
    import numpy as np

    from otmix import BlockModel, MixtureParams, VarianceSpec, block_score, many_fit_one_excluded

    def model(means):
        k, g = means.shape
        return BlockModel(means, np.ones((k, g)), np.full(k, 1 / k), np.full(g, 1 / g))

    for k in REFINE_ROWS:
        for g in (3, 6):
            rng = np.random.default_rng((SEED, k, g))
            means = rng.uniform(-5.0, 5.0, size=(k, g))
            permuted = means[np.ix_(rng.permutation(k), rng.permutation(g))]
            for variant, fitted in (("permuted", permuted),
                                    ("perturbed", permuted + rng.normal(size=(k, g)))):
                yield {f"score/K{k}-G{g}/{variant}/refine": block_score(model(fitted), model(means))}
    for r, m in EXCLUSION_SHAPES:
        for spread in (0.3, 1.0, 3.0):
            rng = np.random.default_rng((SEED, r, m, int(10 * spread)))
            group = np.sort(rng.normal(scale=2.0, size=r))
            locations = np.concatenate([group, group[-1] + rng.uniform(10.0, 30.0) + [0.0, 3.0]])
            truth = MixtureParams(locations[:, None], VarianceSpec.shared(1.0),
                                  np.full(r + 2, 1 / (r + 2)))
            cover = group[rng.integers(r, size=m)] + rng.normal(scale=spread, size=m)
            candidate = MixtureParams(cover[:, None], VarianceSpec.shared(1.0), np.full(m, 1 / m))
            diag = many_fit_one_excluded(truth, candidate, r, range(m), 0.5 * (1 - r / m))
            yield {f"score/r{r}-m{m}/spread-{spread}/exclusion": {
                "delta": diag.delta, "threshold": diag.threshold,
                "covering_radius": diag.covering_radius, "excluded": diag.excluded}}


def solve_outputs():
    import numpy as np

    from otmix import SinkhornConfig, transport_responsibilities

    def solve(key, log_kernel, weights, cfg, start=None):
        return _fit_outputs(
            key, lambda: transport_responsibilities(log_kernel, weights, cfg, start),
            lambda sol, caught: {"": {
                "potentials": sol.potentials, "plan": sol.responsibilities.matrix,
                "log_partition": sol.log_partition, "error": sol.marginal_error,
                "iterations": sol.iterations, "converged": sol.converged}})

    for instance in SOLVE_INSTANCES:
        rng = np.random.default_rng((SEED, instance, len(CELLS)))
        n, k = int(rng.integers(20, 201)), int(rng.integers(2, 7))
        log_kernel, weights = rng.normal(scale=3.0, size=(n, k)), rng.dirichlet(np.ones(k))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            start = transport_responsibilities(log_kernel, weights, SinkhornConfig()).potentials
        yield solve(f"solve/{instance}/warm", log_kernel, weights, SinkhornConfig(tolerance=1e-4),
                    start)
        yield solve(f"solve/{instance}/cold", log_kernel, weights, SinkhornConfig(tolerance=1e-8))
    for instance in SATURATED_INSTANCES:
        rng = np.random.default_rng(instance)
        n, k = int(rng.integers(2, 41)), int(rng.integers(2, 7))
        log_kernel = -(1e3, 1e4)[instance % 2] * rng.uniform(0.0, 1.0, size=(n, k))
        rows = np.exp(log_kernel - log_kernel.max(axis=1, keepdims=True))
        shares = (rows / rows.sum(axis=1, keepdims=True)).mean(axis=0)
        weights = np.empty(k)
        weights[np.argsort(shares)] = np.sort(rng.dirichlet(np.ones(k)))[::-1]
        cfg = SinkhornConfig(tolerance=(1e-3, 1e-8)[instance // 2 % 2], max_iterations=2000)
        yield solve(f"solve/{instance}/saturated", log_kernel, weights, cfg)


def literal_outputs():
    import importlib
    import pkgutil

    import otmix

    try:
        from hypothesis.internal.constants_ast import constants_from_module
    except ImportError:
        return
    names = ["otmix"] + [f"otmix.{m.name}" for m in pkgutil.iter_modules(otmix.__path__)]
    yield {LITERALS: {
        name: sorted(constants_from_module(importlib.import_module(name)),
                     key=lambda value: (type(value).__name__, value))
        for name in names}}


def child() -> None:
    """Print each output of the otmix on sys.path as a `key json` line."""
    out = sys.stdout
    with contextlib.redirect_stdout(sys.stderr), tempfile.TemporaryDirectory() as tmp:
        # Hypothesis caches the literal pools it reads; keep that cache out of the checkout
        os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = str(Path(tmp) / "hypothesis")
        for group in (fit_outputs(), cocluster_outputs(), file_outputs(Path(tmp)),
                      mixture_outputs(), block_outputs(), solve_outputs(), score_outputs(),
                      literal_outputs()):
            for outputs in group:
                for key, value in outputs.items():
                    print(key, json.dumps(value, default=_plain), file=out)


def outputs_of(checkout: Path) -> dict:
    """{key: JSON text} of every output, computed in a child process."""
    tools = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(checkout / "src"), str(tools)]))
    proc = subprocess.run([sys.executable, "-c", "import fit_diff; fit_diff.child()"],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: the fits failed (exit code {proc.returncode})")
    return dict(line.split(" ", 1) for line in proc.stdout.splitlines())


def float_changes(a, b):
    """[(|a - b|, relative change)] for each pair of finite floats where two
    parsed outputs differ only in such floats; None where anything else differs."""
    if type(a) is float and type(b) is float and math.isfinite(a) and math.isfinite(b):
        gap = abs(a - b)
        return [(gap, gap / max(abs(a), abs(b)) if gap else 0.0)]
    if type(a) is not type(b):
        return None
    if isinstance(a, dict):
        if list(a) != list(b):
            return None
        a, b = list(a.values()), list(b.values())
    if isinstance(a, list) and len(a) == len(b):
        changes = [float_changes(x, y) for x, y in zip(a, b)]
        return None if None in changes else sum(changes, [])
    return [] if repr(a) == repr(b) else None


def compare(parent: dict, change: dict):
    """Sort two checkouts' outputs ({key: JSON text}) into the identical keys,
    {key: (largest |change|, largest relative change)} for the moved ones,
    and the mismatched keys."""
    identical, moved, mismatched = [], {}, []
    for key in {**parent, **change}:
        a, b = parent.get(key), change.get(key)
        if a == b:
            identical.append(key)
            continue
        changes = None if a is None or b is None else float_changes(json.loads(a), json.loads(b))
        if changes is None:
            mismatched.append(key)
        else:
            moved[key] = tuple(max(column) for column in zip(*changes))
    return identical, moved, mismatched


def literal_changes(parent: str, change: str) -> dict:
    """{module: (added, removed)} for each module whose pool differs between two
    `hypothesis/literals` outputs (JSON text); a module on one side only adds or removes all."""
    before, after = json.loads(parent), json.loads(change)
    changes = {}
    for module in {**before, **after}:
        old, new = ({json.dumps(v): v for v in pools.get(module, [])} for pools in (before, after))
        if old.keys() != new.keys():
            changes[module] = ([v for k, v in new.items() if k not in old],
                               [v for k, v in old.items() if k not in new])
    return changes


def report(parent: dict, change: dict) -> int:
    """Print the comparison of two checkouts' outputs; the exit status."""
    identical, moved, mismatched = compare(parent, change)
    classes = {}
    for key in {**parent, **change}:
        parts = key.split("/")
        classes.setdefault(f"{parts[0]}/{parts[-1]}", []).append(key)
    print(f"{len(identical) + len(moved) + len(mismatched)} outputs: {len(identical)} identical, "
          f"{len(moved)} moved, {len(mismatched)} mismatched")
    print(f"{'class':<28}{'outputs':>8}{'moved':>7}{'mismatched':>11}"
          f"{'max |change|':>14}{'max relative':>14}")
    for name, keys in classes.items():
        gaps = [moved[key] for key in keys if key in moved]
        largest = [max(column) for column in zip(*gaps)] or [0.0, 0.0]
        print(f"{name:<28}{len(keys):>8}{len(gaps):>7}{sum(key in mismatched for key in keys):>11}"
              f"{largest[0]:>14.3g}{largest[1]:>14.3g}")
    for key in mismatched:
        print(f"mismatch: {key}")
    pools = (parent.get(LITERALS, "{}"), change.get(LITERALS, "{}"))
    for module, (added, removed) in literal_changes(*pools).items():
        print(f"literals of {module}: added {added}, removed {removed}")
    return 1 if mismatched else 0


def main(argv: list[str]) -> int:
    checkouts = [Path(arg).resolve() for arg in argv]
    if len(checkouts) != 2 or not all((c / "src" / "otmix").is_dir() for c in checkouts):
        print(__doc__, file=sys.stderr)
        return 2
    return report(*(outputs_of(checkout) for checkout in checkouts))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
