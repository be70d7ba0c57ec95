"""Command-line interface: simulate, fit, experiment, spurious, select-k,
twogauss, cocluster.

Outputs are CSV tables and JSON parameter/report files.  Exit code 2 means
invalid configuration, input or I/O, and 1 a degenerate fit (an empty
component or block); both print one `error: ...` line and no traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .coclustering import EmptyBlockError, random_block_init, svem_fit, vem_fit
from .fitting import EmptyComponentError, FitConfig, em_fit, sem_fit
from .harness import (
    VARIANCE_REGIMES,
    _sample_truth,
    _task_rng,
    run_experiment,
    run_selection_sweep,
    run_spurious_demo,
    spec_from_config,
    write_rows_csv,
)
from .metrics import kmeans_labels, kmeanspp_init, lloyd_kmeans
from .mixtures import TIED_AXES, VARIANCE_FLOOR, Dataset, VarianceSpec, _require_at_least, sample_mixture
from .sinkhorn import SinkhornConfig, SinkhornNonConvergence
from .twogauss import (
    TwoGaussModel,
    loss_curves,
    population_iterates,
    write_curves_csv,
)


def _add_fit_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iter", type=int, default=FitConfig.max_outer_iterations,
                   help="outer iteration cap")
    p.add_argument("--tol", type=float, default=FitConfig.param_change_tolerance,
                   help="L1 parameter-change tolerance")
    p.add_argument("--sinkhorn-tol", type=float, default=SinkhornConfig.tolerance)
    p.add_argument("--sinkhorn-max-iter", type=int, default=SinkhornConfig.max_iterations)
    p.add_argument("--update-variances", action="store_true")
    p.add_argument("--update-weights", action="store_true")


def _fit_config(args) -> FitConfig:
    try:
        return FitConfig(
            max_outer_iterations=args.max_iter,
            param_change_tolerance=args.tol,
            sinkhorn=SinkhornConfig(
                tolerance=args.sinkhorn_tol, max_iterations=args.sinkhorn_max_iter
            ),
            update_variances=args.update_variances,
            update_weights=args.update_weights,
        )
    except ValueError as exc:  # the message starts with a field: name its flag
        flag = {"max_outer_iterations": "--max-iter", "param_change_tolerance": "--tol",
                "tolerance": "--sinkhorn-tol", "max_iterations": "--sinkhorn-max-iter"}
        raise ValueError(f"{flag[str(exc).split()[0]]}: {exc}") from None


def _cmd_simulate(args) -> int:
    _require_at_least(k=(args.k, 1), d=(args.d, 1), sigma2=(args.sigma2, VARIANCE_FLOOR))
    if args.gamma is not None and not args.gamma > 0:
        raise ValueError(f"--gamma must be positive, got {args.gamma:g}")
    truth = _sample_truth(
        _task_rng(args.seed, 0, 0, 0),
        args.k,
        args.d,
        args.sigma2,
        args.variance_regime,
        args.gamma,
    )
    data = sample_mixture(truth, args.n, _task_rng(args.seed, 0, 0, 1))
    data.save_csv(args.out_data)
    truth.save_json(args.out_params)
    return 0


def _cmd_fit(args) -> int:
    _require_at_least(sigma2=(args.sigma2, VARIANCE_FLOOR))
    data = Dataset.load_csv(args.data)
    init = kmeanspp_init(data, args.k, _task_rng(args.seed, 0, 0, 2))
    shape = VarianceSpec.value_shape(args.variance_kind, args.k, data.dim)
    values = np.full(shape, float(args.sigma2))
    init = init.with_variances(
        VarianceSpec(args.variance_kind, values, fixed=not args.update_variances)
    )
    cfg = _fit_config(args)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SinkhornNonConvergence)
        if args.method == "kmeans":
            params, inertia = lloyd_kmeans(data, init, max_iter=args.max_iter)
            report_dict = {
                "final_params": params.to_json_dict(),
                "inertia": inertia,
                "labels": kmeans_labels(params, data).tolist(),
            }
        else:
            fit = em_fit if args.method == "em" else sem_fit
            report = fit(data, init, cfg)
            params = report.final_params
            report_dict = report.to_json_dict(include_trace=args.trace)
    report_dict["seed"] = args.seed
    if args.out_params:
        params.save_json(args.out_params)
    if args.out_report:
        Path(args.out_report).write_text(json.dumps(report_dict, indent=2) + "\n")
    else:
        json.dump(report_dict, sys.stdout, indent=2)
        print()
    return 0


def _cmd_experiment(args) -> int:
    spec = spec_from_config(args.config)
    rows = run_experiment(spec, out_dir=args.out_dir, timing=args.timing)
    print(f"wrote {len(rows)} rows to {Path(args.out_dir) / 'results.csv'}")
    return 0


def _cmd_spurious(args) -> int:
    rows, summary = run_spurious_demo(
        args.D, args.R, args.sigma, args.n, args.trials, args.seed, out_path=args.out
    )
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_select_k(args) -> int:
    rows = run_selection_sweep(
        k_true=args.k_true,
        d=args.d,
        sigma2=args.sigma2,
        n=args.n,
        n_replicates=args.replicates,
        n_seeds=args.seeds,
        master_seed=args.master_seed,
        out_path=args.out,
    )
    hist = {}
    for r in rows:
        hist.setdefault(r["method"], {}).setdefault(r["diff"], 0)
        hist[r["method"]][r["diff"]] += 1
    print(json.dumps(hist, indent=2, sort_keys=True))
    return 0


def _cmd_twogauss(args) -> int:
    model = TwoGaussModel(args.theta_star, args.alpha_star, args.order)
    if not args.grid_step > 0:
        raise ValueError(f"--grid-step must be positive, got {args.grid_step:g}")
    if args.out_curves:
        grid = np.arange(args.grid_min, args.grid_max + 0.5 * args.grid_step, args.grid_step)
        write_curves_csv(args.out_curves, loss_curves(model, grid))
    if args.out_iterates:
        traces = {}
        for method in ("em", "sem"):
            run = population_iterates(model, method, args.theta0, args.steps)
            traces[method] = {
                "theta_trace": run.theta_trace.tolist(),
                "rho_bound": run.rho_bound,
            }
        Path(args.out_iterates).write_text(json.dumps(traces, indent=2) + "\n")
    return 0


def _cmd_cocluster(args) -> int:
    if args.sigma2 is not None:
        _require_at_least(sigma2=(args.sigma2, VARIANCE_FLOOR))
    y = np.loadtxt(args.data, delimiter=",", ndmin=2)
    init = random_block_init(y.shape[0], y.shape[1], args.k, args.g, args.seed)
    cfg = _fit_config(args)
    fit = vem_fit if args.method == "vem" else svem_fit
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SinkhornNonConvergence)
        model, resp, report = fit(y, args.k, args.g, init, cfg, variances=args.sigma2)
    Path(args.out_model).write_text(json.dumps(model.to_json_dict(), indent=2) + "\n")
    for path, labels in zip((args.out_row_labels, args.out_col_labels), resp.hard_labels()):
        if path:
            rows = [{"index": i, "label": int(label)} for i, label in enumerate(labels)]
            write_rows_csv(path, rows, ["index", "label"])
    print(json.dumps({"converged": report.converged, "iterations": report.iterations}, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="otmix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a dataset CSV plus truth JSON")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--sigma2", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--variance-regime", choices=tuple(VARIANCE_REGIMES), default="i")
    p.add_argument("--gamma", type=float, default=None, help="Dirichlet weight scale (default: uniform weights)")
    p.add_argument("--out-data", required=True)
    p.add_argument("--out-params", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="single fit of one method on a CSV dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--method", choices=("kmeans", "em", "sem"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--variance-kind", choices=tuple(TIED_AXES), default="shared")
    p.add_argument("--sigma2", type=float, default=1.0, help="initial/known variance")
    p.add_argument("--trace", action="store_true", help="include the loss trace")
    p.add_argument("--out-params", default=None)
    p.add_argument("--out-report", default=None)
    _add_fit_config_flags(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("experiment", help="run a sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--timing", action="store_true",
                   help="record wall times (breaks byte-reproducibility)")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("spurious", help="spurious-optimum escape demo")
    p.add_argument("--D", type=float, default=3.0)
    p.add_argument("--R", type=float, default=9.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--n", type=int, default=20000)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_spurious)

    p = sub.add_parser("select-k", help="BIC model-selection sweep")
    p.add_argument("--k-true", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--sigma2", type=float, default=0.01)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--replicates", type=int, default=20)
    p.add_argument("--seeds", type=int, default=2)
    p.add_argument("--master-seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_select_k)

    p = sub.add_parser("twogauss", help="population two-Gaussian curves and iterates")
    p.add_argument("--theta-star", type=float, required=True)
    p.add_argument("--alpha-star", type=float, required=True)
    p.add_argument("--order", type=int, default=200)
    p.add_argument("--grid-min", type=float, default=-5.0)
    p.add_argument("--grid-max", type=float, default=5.0)
    p.add_argument("--grid-step", type=float, default=0.01)
    p.add_argument("--theta0", type=float, default=0.5)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--out-curves", default=None)
    p.add_argument("--out-iterates", default=None)
    p.set_defaults(func=_cmd_twogauss)

    p = sub.add_parser("cocluster", help="fit a latent block model to a CSV matrix")
    p.add_argument("--data", required=True, help="numeric CSV matrix, no header")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--method", choices=("vem", "svem"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma2", type=float, default=None, help="known block variance")
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-row-labels", default=None)
    p.add_argument("--out-col-labels", default=None)
    _add_fit_config_flags(p)
    p.set_defaults(func=_cmd_cocluster)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EmptyComponentError, EmptyBlockError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
