#!/usr/bin/env python3
"""Compare the EM and Sinkhorn-EM fits of two checkouts, trace by trace.

    python3 tools/trace_diff.py PARENT CHANGE

In each checkout, with `otmix` imported from its `src/` through PYTHONPATH,
runs EM and Sinkhorn-EM for 8 seeds on three cells, all in d=2 with
sigma^2=0.1 and uniform weights: the C10 cell (K=20, N=1000) once with the
shared variance known and once with diagonal variances estimated, and a
small-K, tall cell (K=3, N=2000) with the shared variance known, whose
short, many rows take other paths through the row reductions.  That is 48
fits from k-means++ starts, at the `FitConfig` defaults.  Prints the fits
whose iteration counts differ, then
the largest absolute difference of the loss traces and of the final
locations over the fits whose counts agree.  Exits 1 if a count differs.

Where `tools/fit_digest.py` asks whether outputs are identical to the bit,
this asks how far they moved, for a change that is expected to move them in
the last bits only.  Runs in well under a minute per checkout.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SEEDS = range(8)
D, SIGMA2 = 2, 0.1
# (K, N, variance regime) per cell; a cell's index seeds its instances
CELLS = ((20, 1000, "shared-known"), (20, 1000, "diagonal-estimated"), (3, 2000, "shared-known"))


def run_fits() -> None:
    """Print the 48 fits of the otmix on PYTHONPATH as one JSON object."""
    import warnings

    import numpy as np

    from otmix import (FitConfig, MixtureParams, SinkhornNonConvergence, VarianceSpec, em_fit,
                       kmeanspp_init, sample_mixture, sem_fit)

    fits = {}
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
            for method, fit in (("em", em_fit), ("sem", sem_fit)):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", SinkhornNonConvergence)
                    report = fit(data, init, cfg)
                fits[f"{seed}/K{k}-N{n}-{regime}/{method}"] = {
                    "iterations": report.iterations,
                    "trace": [list(pair) for pair in report.loss_trace],
                    "locations": report.final_params.locations.tolist(),
                }
    json.dump(fits, sys.stdout)


def fits_of(checkout: Path) -> dict:
    tools = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(checkout / "src"), str(tools)]))
    proc = subprocess.run([sys.executable, "-c", "import trace_diff; trace_diff.run_fits()"],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: the fits failed (exit code {proc.returncode})")
    return json.loads(proc.stdout)


def largest_gap(pairs) -> float:
    """max |a - b| over aligned numbers, skipping the None entries of EM's L."""
    return max((abs(a - b) for a, b in pairs if a is not None), default=0.0)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (fits_of(Path(arg).resolve()) for arg in argv)
    mismatches = [key for key in parent if parent[key]["iterations"] != change[key]["iterations"]]
    trace = location = (0.0, None)
    for key in parent:
        if key in mismatches:
            continue
        a, b = parent[key], change[key]
        gap = largest_gap(zip(sum(a["trace"], []), sum(b["trace"], [])))
        trace = max(trace, (gap, key), key=lambda t: t[0])
        gap = largest_gap(zip(sum(a["locations"], []), sum(b["locations"], [])))
        location = max(location, (gap, key), key=lambda t: t[0])
    print(f"fits: {len(parent)}")
    print(f"iteration-count mismatches: {len(mismatches)}")
    for key in mismatches:
        print(f"  {key}: {parent[key]['iterations']} -> {change[key]['iterations']}")
    print(f"largest |trace delta|: {trace[0]:.3g} ({trace[1]})")
    print(f"largest |location delta|: {location[0]:.3g} ({location[1]})")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
