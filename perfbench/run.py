"""otmix benchmark: time EM and Sinkhorn-EM on the paper's studies.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

One workload runs per process.  ``--workload all`` runs each workload in a
fresh child process.  The process generates its inputs from ``--seed``, runs
the workload's pairs back to back for ``--seconds`` and checks every fit's
output.  It prints a report, then, as its last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the gated end-to-end metrics; with ``--trace 1`` the same pairs
are replayed with every layer traced and the metrics are the per-layer ones.
See perfbench/README.md for the workloads and metrics.
"""

import os

# Pin BLAS and OpenMP to one thread before numpy loads: the machine may have
# two cores only, and one thread fixes the reduction order, so quality
# metrics repeat exactly for a seed.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

# Set-up is timed in this many fresh processes; setup_s is their median.
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170
TRACE_DIR = ROOT / ".perfbench_out"
TAIL_BEYOND = 10
# A pair's time is divided by the median reference time of the pairs this
# many places before and after it, so a slow spell of a few seconds cancels
# where it happens.
LOCAL_REF_PAIRS = 2

# Gated end-to-end metrics, as listed in BENCHMARK.json: (name, unit).  The
# timings are divided by the reference task's time (see Reference, local_refs).
END_TO_END = (
    ("setup_s", "s"),
    ("fits_per_kref", "1/kref"),
    ("sem_fit_gm_ref", "ref"),
    ("peak_rss_mb", "MB"),
)
# Reported with the end-to-end metrics but not gated: raw times drift with
# the machine; the rest are too unsteady across seeds, or zero on some
# workload (see README.md).
REPORTED = (
    ("em_fit_gm_ref", "ref"),
    ("fits_per_s", "1/s"),
    ("sem_fit_ms_p50", "ms"),
    ("em_fit_ms_p50", "ms"),
    ("ref_ms", "ms"),
    ("sem_fit_ms_tail", "ms"),
    ("em_fit_ms_tail", "ms"),
    ("sem_error_median", "sq_dist"),
    ("em_error_median", "sq_dist"),
    ("sem_win_fraction", "fraction"),
    ("failed_fraction", "fraction"),
    ("capped_fraction", "fraction"),
    ("sinkhorn_miss_fraction", "fraction"),
)


def per_layer_units() -> dict:
    from tracing import COUNTS, SPAN_LAYERS

    units = {}
    for layer in SPAN_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(dict.fromkeys(COUNTS, "count"))
    units["mixtures.log_kernel.bytes"] = "B"
    units.update({
        "sinkhorn.solve.iters": "count",
        "sinkhorn.solve.iters_p50": "count",
        "sinkhorn.solve.iters_max": "count",
        "sinkhorn.solve.converged_ratio": "fraction",
        "trace.overhead_ratio": "ratio",
    })
    return units


def import_otmix() -> None:
    """Import otmix from this checkout's src/, never from an installed copy."""
    import otmix

    if Path(otmix.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"otmix was imported from {otmix.__file__}, not from {SRC}")


def probe_setup(workload: str, seed: int, size: str) -> float:
    """Seconds from starting a fresh process until its inputs are ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--size", size]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if code != 0 or ready.strip() != "ready":
        raise RuntimeError(f"set-up probe for {workload} exited with {code}")
    return elapsed


class Reference:
    """A fixed numpy task, timed before every pair to track the machine's speed.

    Shared virtual machines drift by 10-50% over minutes.  The task spends
    about half its time on large-array work (a 1000 x 20 softmax, like the
    mixture E-step) and half on small-array calls dominated by interpreter
    overhead (100 x 5, like a block-model solve), so a slow spell slows it
    about as much as it slows a fit.  Dividing a pair's fit times by the
    reference times around it cancels most of the drift; it does not depend
    on otmix.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(7)
        self.np = np
        self.large = rng.standard_normal((1000, 20))
        self.small = rng.standard_normal((100, 5))

    def __call__(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        for x, repeats in ((self.large, 12), (self.small, 100)):
            for _ in range(repeats):
                e = np.exp(x - x.max(axis=1, keepdims=True))
                e /= e.sum(axis=1, keepdims=True)
                np.log(np.maximum(e.mean(axis=0), 1e-300))
        return time.perf_counter() - t0


def run_pairs(wl, pool, seconds=None, n_pairs=None):
    """Closed loop over the pool (cycling if needed): for `seconds`, or `n_pairs` pairs.

    Returns (fits, wall time of each pair, reference time before each pair).
    The reference is left out of the pair's wall time.
    """
    reference = Reference()
    fits, walls, refs = [], [], []
    t0 = time.perf_counter()
    while (len(walls) < n_pairs if n_pairs is not None
           else not walls or time.perf_counter() - t0 < seconds):
        i = len(walls)
        refs.append(reference())
        start = time.perf_counter()
        fits.extend(wl.run_pair(pool[i % len(pool)], i))
        walls.append(time.perf_counter() - start)
    return fits, walls, refs


def local_refs(refs) -> list:
    """Each pair's reference time: the median over its neighbourhood of pairs."""
    k = LOCAL_REF_PAIRS
    return [statistics.median(refs[max(0, i - k):i + k + 1]) for i in range(len(refs))]


def _median(values) -> float:
    return float(statistics.median(values)) if values else math.nan


def _geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else math.nan


def strata_geomean(fits, pair_refs) -> float:
    """Geometric mean of the fits' times in reference times, each stratum
    weighted equally.  `pair_refs` holds each pair's reference time.

    A cocluster pair's cost is set mostly by its noise level (an SVEM fit at
    sigma^2 = 1 takes about four times as long as one at 5), so a plain
    median lands inside one level and jumps with the few fits near it.  The
    mean of logs within each level, averaged over the levels, uses every fit
    and ignores how many of each level a run happened to reach.  With a
    single stratum, as on the sweeps, it is the plain geometric mean.
    """
    strata = {}
    for f in fits:
        strata.setdefault(f.stratum, []).append(f.wall_s / pair_refs[f.pair])
    return _geomean([_geomean(times) for times in strata.values()])


def _tail(values):
    """Highest order statistic with TAIL_BEYOND values beyond it, with its percentile."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None, None
    return sorted(values)[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def quality(fits, n_pairs: int) -> dict:
    """Quality metrics and fractions over the first `n_pairs` pairs."""
    fits = [f for f in fits if f.pair < n_pairs]
    em = {f.pair: f for f in fits if f.role == "em"}
    sem = {f.pair: f for f in fits if f.role == "sem"}
    paired = sorted(em.keys() & sem.keys())
    fitted = [f for f in fits if f.capped is not None]
    solving = [f for f in fits if f.sinkhorn_miss is not None]
    return {
        "sem_error_median": _median([sem[p].error for p in paired]),
        "em_error_median": _median([em[p].error for p in paired]),
        "sem_win_fraction": (
            sum(sem[p].error <= em[p].error for p in paired) / len(paired) if paired else math.nan
        ),
        "failed_fraction": sum(f.failed for f in fits) / len(fits),
        "capped_fraction": sum(f.capped for f in fitted) / len(fitted) if fitted else 0.0,
        "sinkhorn_miss_fraction": (
            sum(f.sinkhorn_miss for f in solving) / len(solving) if solving else 0.0
        ),
    }


def end_to_end(fits, walls, refs, quality_pairs, setup_times, rss_mb):
    """(metrics, notes): every end-to-end value plus a note on how it was taken."""
    ms = {role: [1000.0 * f.wall_s for f in fits if f.role == role] for role in ("em", "sem")}
    wall, n_pairs = sum(walls), len(walls)
    pair_refs = local_refs(refs)
    values = {
        "setup_s": _median(setup_times),
        "fits_per_kref": 1000.0 * len(fits) / sum(w / r for w, r in zip(walls, pair_refs)),
        "fits_per_s": len(fits) / wall,
        "ref_ms": 1000.0 * _median(refs),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh processes",
        "fits_per_kref": "fits per 1000 reference-task times",
        "fits_per_s": f"{len(fits)} fits in {wall:.2f} s ({n_pairs} pairs)",
        "ref_ms": f"median of {len(refs)} reference tasks",
    }
    for role in ("sem", "em"):
        role_fits = [f for f in fits if f.role == role]
        values[f"{role}_fit_gm_ref"] = strata_geomean(role_fits, pair_refs)
        notes[f"{role}_fit_gm_ref"] = (
            f"geometric mean over {len({f.stratum for f in role_fits})} strata"
        )
        values[f"{role}_fit_ms_p50"] = _median(ms[role])
        notes[f"{role}_fit_ms_p50"] = f"{len(ms[role])} fits"
        tail, pct = _tail(ms[role])
        if tail is not None:
            values[f"{role}_fit_ms_tail"] = tail
            notes[f"{role}_fit_ms_tail"] = f"p{pct:.1f} of {len(ms[role])} fits"
    values["peak_rss_mb"] = rss_mb
    values.update(quality(fits, quality_pairs))
    scored = [f for f in fits if f.pair < quality_pairs]
    for name in ("sem_error_median", "em_error_median", "sem_win_fraction", "capped_fraction"):
        notes[name] = f"first {min(n_pairs, quality_pairs)} pairs"
    notes["failed_fraction"] = (
        f"{sum(f.failed for f in scored)} of {len(scored)} fits, "
        f"{sum(f.degenerate for f in scored)} degenerate"
    )
    notes["sinkhorn_miss_fraction"] = (
        f"{sum(f.sinkhorn_warnings for f in scored)} SinkhornNonConvergence warnings"
    )
    return values, notes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    # the ceiling keeps git from reporting a repository that merely encloses ROOT
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            models = (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
            cpu = next(models, cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
        "src_otmix_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((SRC / "otmix").glob("*.py"))
        ),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Set up, run the timed loop and, when tracing, replay it traced."""
    import workloads

    wl = workloads.make(workload, size)  # rejects an unknown name before any probe
    setup_times = [probe_setup(workload, seed, size) for _ in range(SETUP_REPEATS)]
    pool = wl.make_pool(seed)
    # warm-up: one small pair loads what the libraries load lazily
    small = workloads.make(workload, "tiny")
    small.run_pair(small.make_pool(seed)[0], 0)
    # a traced run splits --seconds between the untraced pass and its traced
    # replay, so it lasts about as long as an untraced run
    fits, walls, refs = run_pairs(wl, pool, seconds=seconds / 2 if trace else seconds)
    wall, n_pairs = sum(walls), len(walls)
    quality_pairs = wl.p["quality_pairs"]
    e2e, notes = end_to_end(fits, walls, refs, quality_pairs, setup_times, peak_rss_mb())
    out = {
        "wall": wall, "e2e": e2e, "notes": notes, "problems": [],
        "attempted": len(fits),
        "failed": sum(f.wrong for f in fits),
    }
    out["problems"] += [f"pair {f.pair} {f.method}: {f.check or f.raised}" for f in fits if f.wrong]
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_walls, _ = run_pairs(wl, pool, n_pairs=n_pairs)
        finally:
            tracer.uninstall()
        layers = tracer.layer_metrics()
        traced_wall = sum(traced_walls)
        layers["trace.overhead_ratio"] = traced_wall / wall
        out.update(tracer=tracer, layers=layers, traced_wall=traced_wall)
        out["problems"] += tracer.problems()
        # equal fingerprints give equal quality metrics and fractions
        if [f.fingerprint() for f in traced] != [f.fingerprint() for f in fits]:
            out["problems"].append("traced fits differ from untraced fits")
        warned = sum(f.sinkhorn_warnings for f in fits)
        if layers["sinkhorn.solve.unconverged"] != warned:
            out["problems"].append(
                f"{layers['sinkhorn.solve.unconverged']:g} unconverged solves traced, "
                f"{warned} SinkhornNonConvergence warnings counted"
            )
    out["correct"] = not out["problems"]
    return out


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def result_metrics(result: dict, trace: bool) -> dict:
    """The JSON line's metrics: gated end-to-end ones, or the per-layer ones."""
    if not trace:
        return {name: {"value": result["e2e"][name], "unit": unit} for name, unit in END_TO_END}
    units = per_layer_units()
    return {name: {"value": value, "unit": units[name]} for name, value in result["layers"].items()}


def print_report(workload: str, seed: int, result: dict, trace: bool) -> None:
    print(f"# otmix benchmark  workload={workload}")
    print("provenance " + json.dumps(provenance(seed)))
    print(f"{'metric':34} {'value':>14}  {'unit':9} note")
    for name, unit in END_TO_END + REPORTED:
        value = result["e2e"].get(name)
        shown = "omitted" if value is None else _fmt(value)
        print(f"{name:34} {shown:>14}  {unit:9} {result['notes'].get(name, '')}")
    if trace:
        print(f"traced replay of the same pairs: {result['traced_wall']:.3f} s "
              f"against {result['wall']:.3f} s untraced")
        for name, m in result_metrics(result, trace).items():
            print(f"{name:34} {_fmt(m['value']):>14}  {m['unit']}")
    for problem in result["problems"]:
        print(f"PROBLEM {problem}")


def run_all(args) -> int:
    """Each workload in a fresh child process; non-zero if any of them fails."""
    import workloads

    code = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        sys.stdout.flush()
        code = max(code, subprocess.run(cmd).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="sweep, sweep-diag, spurious, cocluster, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the self-test's small inputs")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_otmix()
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.setup_probe:
        workloads.make(args.workload, args.size).make_pool(args.seed)
        print("ready", flush=True)
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print_report(args.workload, args.seed, result, bool(args.trace))
    if args.trace:
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
        result["tracer"].write(path)
        print(f"spans written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result_metrics(result, bool(args.trace)),
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
