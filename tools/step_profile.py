#!/usr/bin/env python3
"""Time the pieces of one warm EM and one warm Sinkhorn-EM outer step.

    python3 tools/step_profile.py CHECKOUT

A child process imports `otmix` from CHECKOUT/src, with BLAS and OpenMP pinned
to one thread before numpy loads, as `perfbench/run.py` does.  Its inputs are
4 instances of criterion C10's cell (K=20, d=2, N=1000, a known shared
variance sigma^2 = 0.1, uniform weights), drawn by `sample_mixture` and each
fitted by `em_fit` and by `sem_fit` from a `kmeanspp_init` start at the
`FitConfig` defaults.  From each fit's final parameters theta_0 one outer
step is taken, as `fitting._fit` takes it, to theta_1 (for Sinkhorn-EM from a
cold solve, whose potentials omega_0 it keeps).  Timed at theta_1, omega_0:

- `kernel`: `component_log_densities`;
- `solve`: EM's `_posterior`, or Sinkhorn-EM's `transport_responsibilities`
  warm-started from omega_0, its `Responsibilities` check included;
- `responsibilities`: the `Responsibilities` check alone;
- `losses`: `_transport_losses` (Sinkhorn-EM only);
- `mstep`: `mstep_gaussian`, its `MixtureParams(...)` included;
- `params`: `MixtureParams(...)` alone, on the M-step's output;
- `change`: `_param_change`;
- `step`: the checkout's own loop, as `em_fit` or `sem_fit` at a cap of two
  outer steps less the same fit at a cap of one, both from theta_0 at a
  tolerance no step meets: one M-step and one warm E-step with its losses.

Each of 15 repeats times 20 calls of every piece of every fit in turn, and a
piece's time is its best repeat, in microseconds per call.  Prints one JSON
object: per method and piece, the time on each of the 4 fits in fit order and
their median, and for Sinkhorn-EM the warm solves' iteration counts.  Exits 2
on bad usage.  Takes about 5 s on one core.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SEED = 20261022
CELL = {"k": 20, "d": 2, "n": 1000, "sigma2": 0.1, "fits": 4, "repeats": 15, "number": 20}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _pieces(data, start, transport: bool) -> tuple[dict, int | None]:
    """{piece: zero-argument call} for one warm step after the first step from
    `start`, and the warm solve's iteration count (None for EM).  The pieces
    `fit-1` and `fit-2` are the fit at a cap of one and two outer steps."""
    from otmix import FitConfig, Responsibilities, em_fit, sem_fit
    from otmix.fitting import (_param_change, _transport_losses, component_log_densities,
                               mstep_gaussian, transport_responsibilities)
    from otmix.mixtures import MixtureParams, _posterior

    cfg = FitConfig()
    log_kernel = component_log_densities(start, data.points)
    resp, omega = Responsibilities(_posterior(log_kernel, start.weights)[0]), None
    if transport:
        cold = transport_responsibilities(log_kernel, start.weights, cfg.sinkhorn)
        resp, omega = cold.responsibilities, cold.potentials
    params = mstep_gaussian(data, resp, start.variances, start.weights)
    log_kernel = component_log_densities(params, data.points)
    solution, iterations = None, None
    if transport:
        solution = transport_responsibilities(log_kernel, params.weights, cfg.sinkhorn, omega)
        matrix, iterations = solution.responsibilities.matrix, solution.iterations
    else:
        matrix = _posterior(log_kernel, params.weights)[0]
    resp = Responsibilities(matrix)
    new = mstep_gaussian(data, resp, params.variances, params.weights)

    pieces = {"kernel": lambda: component_log_densities(params, data.points)}
    if transport:
        pieces["solve"] = lambda: transport_responsibilities(
            log_kernel, params.weights, cfg.sinkhorn, omega)
    else:
        pieces["solve"] = lambda: _posterior(log_kernel, params.weights)
    pieces["responsibilities"] = lambda: Responsibilities(matrix)
    if transport:
        pieces["losses"] = lambda: _transport_losses(solution, params.weights, log_kernel)
    pieces["mstep"] = lambda: mstep_gaussian(data, resp, params.variances, params.weights)
    pieces["params"] = lambda: MixtureParams(new.locations, new.variances, new.weights)
    pieces["change"] = lambda: _param_change(params, new)
    fit = sem_fit if transport else em_fit
    for cap in (1, 2):
        capped = FitConfig(max_outer_iterations=cap, param_change_tolerance=1e-300)
        pieces[f"fit-{cap}"] = lambda capped=capped: fit(data, start, capped)
    return pieces, iterations


def profile(k: int, d: int, n: int, sigma2: float, fits: int, repeats: int,
            number: int) -> dict:
    """The step pieces of `fits` instances of the (k, d, n, sigma2) cell, per method.

    Each repeat times `number` calls of every piece of every fit in turn, so
    that a slow spell of the machine reaches all pieces alike; a piece's time
    is its best repeat."""
    import timeit

    import numpy as np

    from otmix import (FitConfig, MixtureParams, VarianceSpec, em_fit, kmeanspp_init,
                       sample_mixture, sem_fit)

    runs = {"em": [], "sem": []}
    for index in range(fits):
        rng = np.random.default_rng((SEED, index))
        truth = MixtureParams(rng.uniform(-1.0, 1.0, size=(k, d)), VarianceSpec.shared(sigma2),
                              np.full(k, 1.0 / k))
        data = sample_mixture(truth, n, rng)
        init = kmeanspp_init(data, k, rng).with_variances(truth.variances)
        for method, fit in (("em", em_fit), ("sem", sem_fit)):
            final = fit(data, init, FitConfig()).final_params
            runs[method].append(_pieces(data, final, method == "sem"))
    best = {}
    for _repeat in range(repeats):
        for method, fit_runs in runs.items():
            for index, (pieces, _) in enumerate(fit_runs):
                for name, call in pieces.items():
                    us = timeit.Timer(call).timeit(number) / number * 1e6
                    key = (method, index, name)
                    best[key] = min(best.get(key, us), us)
    out = {"cell": {"k": k, "d": d, "n": n, "sigma2": sigma2}, "fits": fits,
           "repeats": repeats, "number": number, "unit": "us per call"}
    for method, fit_runs in runs.items():
        rows = [{name: best[method, index, name] for name in pieces}
                for index, (pieces, _) in enumerate(fit_runs)]
        for row in rows:
            row["step"] = row.pop("fit-2") - row.pop("fit-1")
        out[method] = {piece: {"median": round(statistics.median(row[piece] for row in rows), 1),
                               "fits": [round(row[piece], 1) for row in rows]}
                       for piece in rows[0]}
        if method == "sem":
            out[method]["solve_iterations"] = [iterations for _, iterations in fit_runs]
    return out


def child(sizes: str) -> None:
    """Print `profile` at the JSON-encoded sizes as one JSON object."""
    print(json.dumps(profile(**json.loads(sizes))))


def run(checkout: Path, **sizes) -> dict:
    """`profile` of the checkout's otmix, computed in a child process."""
    tools = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(checkout / "src"), str(tools)]),
               PYTHONDONTWRITEBYTECODE="1", **{var: "1" for var in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, step_profile; step_profile.child(sys.argv[1])",
         json.dumps(CELL | sizes)], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: the profile failed (exit code {proc.returncode})")
    return {"checkout": str(checkout), "nproc": len(os.sched_getaffinity(0))} | json.loads(
        proc.stdout)


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "otmix").is_dir():
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(run(Path(argv[0]).resolve()), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
