#!/usr/bin/env python3
"""Compare the mixture and co-clustering fits of two checkouts, trace by trace.

    python3 tools/trace_diff.py PARENT CHANGE

In each checkout, with `otmix` imported from its `src/` through PYTHONPATH,
runs two sets of fits.

- *Mixture cells:* EM and Sinkhorn-EM for 8 seeds on three cells, all in d=2
  with sigma^2=0.1 and uniform weights: the C10 cell (K=20, N=1000) once with
  the shared variance known and once with diagonal variances estimated, and a
  small-K, tall cell (K=3, N=2000) with the shared variance known, whose
  short, many rows take other paths through the row reductions.  That is 48
  fits from k-means++ starts, at the `FitConfig` defaults.  A fourth, cold
  cell has C9's geometry (D=3, R=9, sigma=1, so K=3) at N=2000: 4 seeds of
  EM and Sinkhorn-EM from C9's many-fit-one start, at C9's tolerance 1e-4
  and 300 outer iterations.  Its cold, near-saturated Sinkhorn solves run up
  to 800 iterations and re-absorb their plan up to 71 times, where the other
  cells' warm solves take a few iterations.  That makes 56 mixture fits.
- *Co-clustering cell:* VEM and Sinkhorn-VEM on 40 latent block models
  (20-60 x 20-60, K and G in 2..4, the property tests' recipe) from random
  hard starts, each with known or estimated variances and known or inferred
  weights: 320 fits at Sinkhorn tolerance 1e-10, so that the solves converge
  and the fits do not amplify last-bit differences as the capped benchmark
  fits do.

Prints the fits whose iteration counts differ (for VEM, also the inner
counts), then, over the fits whose counts agree, the largest absolute
difference of the loss traces and of the final locations (mixtures), and of
the block parameters and assignments and the largest relative difference of
the VEM surrogates (co-clustering).  A fit that raises `EmptyBlockError` must
do so on both sides and name the same block.  Exits 1 on any mismatch.

Where `tools/fit_digest.py` asks whether outputs are identical to the bit,
this asks how far they moved, for a change that is expected to move them in
the last bits only.  Runs in about a minute and a half per checkout on one
core, most of it in the Sinkhorn-VEM fits with inferred weights.
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
SPURIOUS_SEEDS, SPURIOUS_N = range(4), 2000
BLOCK_INSTANCES = range(40)
BLOCK_FIELDS = ("means", "variances", "row_weights", "col_weights")


def mixture_fits() -> dict:
    """The 56 mixture fits of the otmix on PYTHONPATH."""
    import numpy as np

    from otmix import FitConfig, MixtureParams, VarianceSpec, kmeanspp_init, sample_mixture
    from otmix.harness import spurious_truth

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
            fit_both(fits, f"{seed}/K{k}-N{n}-{regime}", data, init, cfg)
    truth = spurious_truth(3.0, 9.0, 1.0)
    cfg = FitConfig(max_outer_iterations=300, param_change_tolerance=1e-4)
    for seed in SPURIOUS_SEEDS:
        rng = np.random.default_rng((seed, len(CELLS) + 1))
        data = sample_mixture(truth, SPURIOUS_N, rng)
        start = np.array([[0.0, 0.0], [9.0, 0.0], [9.0, 0.0]]) + rng.uniform(-0.1, 0.1, (3, 2))
        init = MixtureParams(start, truth.variances, truth.weights)
        fit_both(fits, f"{seed}/K3-N{SPURIOUS_N}-many-fit-one", data, init, cfg)
    return fits


def fit_both(fits: dict, name: str, data, init, cfg) -> None:
    """Record EM's and Sinkhorn-EM's fit of `data` from `init` under `name`."""
    import warnings

    from otmix import SinkhornNonConvergence, em_fit, sem_fit

    for method, fit in (("em", em_fit), ("sem", sem_fit)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SinkhornNonConvergence)
            report = fit(data, init, cfg)
        fits[f"{name}/{method}"] = {
            "iterations": report.iterations,
            "trace": [list(pair) for pair in report.loss_trace],
            "locations": report.final_params.locations.tolist(),
        }


def block_fits() -> dict:
    """The 320 co-clustering fits of the otmix on PYTHONPATH."""
    import warnings

    import numpy as np

    from otmix import (BlockModel, EmptyBlockError, FitConfig, SinkhornConfig,
                       SinkhornNonConvergence, random_block_init, sample_block_data, svem_fit,
                       vem_fit)

    fits = {}
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
                    key = f"{instance}/K{k}-G{g}-{n}x{m}-{regime}/{method}"
                    try:
                        with warnings.catch_warnings():
                            warnings.simplefilter("ignore", SinkhornNonConvergence)
                            model, resp, report = fit(y, k, g, init, cfg, **overrides)
                    except EmptyBlockError as exc:
                        fits[key] = {"empty_block": [exc.k, exc.g]}
                        continue
                    fits[key] = {
                        "iterations": report.iterations,
                        "inner": [len(trace) for trace in report.inner_surrogates],
                        "surrogates": sum(report.inner_surrogates, []),
                        "parameters": sum((getattr(model, name).ravel().tolist()
                                           for name in BLOCK_FIELDS), [])
                                      + resp.z.ravel().tolist() + resp.w.ravel().tolist(),
                    }
    return fits


def run_fits() -> None:
    """Print the fits of the otmix on PYTHONPATH as one JSON object."""
    json.dump({"mixture": mixture_fits(), "cocluster": block_fits()}, sys.stdout)


def fits_of(checkout: Path) -> dict:
    tools = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(checkout / "src"), str(tools)]))
    proc = subprocess.run([sys.executable, "-c", "import trace_diff; trace_diff.run_fits()"],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: the fits failed (exit code {proc.returncode})")
    return json.loads(proc.stdout)


def largest_gap(pairs, relative: bool = False) -> float:
    """max |a - b| (divided by |a| when relative) over aligned numbers, skipping
    the None entries of EM's L."""
    return max((abs(a - b) / (abs(a) if relative else 1.0) for a, b in pairs if a is not None),
               default=0.0)


def report_gaps(parent: dict, change: dict, gaps: dict, mismatches: list) -> None:
    """Print, for the fits outside `mismatches`, the largest gap of each named part:
    gaps maps a label to (the fit's field, relative)."""
    for label, (field, relative) in gaps.items():
        largest = (0.0, None)
        for key in parent:
            if key not in mismatches and field in parent[key]:
                a, b = parent[key][field], change[key][field]
                largest = max(largest, (largest_gap(zip(a, b), relative), key), key=lambda t: t[0])
        print(f"largest {label}: {largest[0]:.3g} ({largest[1]})")


def compare_mixtures(parent: dict, change: dict) -> int:
    mismatches = [key for key in parent if parent[key]["iterations"] != change[key]["iterations"]]
    for fits in (parent, change):
        for fit in fits.values():
            fit["trace"], fit["locations"] = sum(fit["trace"], []), sum(fit["locations"], [])
    print(f"mixture fits: {len(parent)}")
    print(f"iteration-count mismatches: {len(mismatches)}")
    for key in mismatches:
        print(f"  {key}: {parent[key]['iterations']} -> {change[key]['iterations']}")
    report_gaps(parent, change, {"|trace delta|": ("trace", False),
                                 "|location delta|": ("locations", False)}, mismatches)
    return len(mismatches)


def compare_blocks(parent: dict, change: dict) -> int:
    empty = [key for key in parent if "empty_block" in parent[key] or "empty_block" in change[key]]
    blocks = [key for key in empty
              if parent[key].get("empty_block") != change[key].get("empty_block")]
    counts = [key for key in parent if key not in empty
              and [parent[key][f] for f in ("iterations", "inner")]
              != [change[key][f] for f in ("iterations", "inner")]]
    print(f"co-clustering fits: {len(parent)}, of which {len(empty)} raise EmptyBlockError")
    print(f"iteration-count mismatches: {len(counts)}")
    for key in counts:
        a, b = parent[key], change[key]
        inner = "" if a["inner"] == b["inner"] else " (inner counts differ)"
        print(f"  {key}: {a['iterations']} -> {b['iterations']}{inner}")
    print(f"EmptyBlockErrors naming another block, or raised on one side only: {len(blocks)}")
    for key in blocks:
        print(f"  {key}: {parent[key].get('empty_block')} -> {change[key].get('empty_block')}")
    report_gaps(parent, change, {"|block parameter delta|": ("parameters", False),
                                 "relative |surrogate delta|": ("surrogates", True)},
                counts + empty)
    return len(counts) + len(blocks)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (fits_of(Path(arg).resolve()) for arg in argv)
    mismatches = compare_mixtures(parent["mixture"], change["mixture"])
    mismatches += compare_blocks(parent["cocluster"], change["cocluster"])
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
