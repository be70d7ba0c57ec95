"""Self-test of the benchmark at a tiny size; exits non-zero on any problem.

    python3 perfbench/selftest.py

For every workload, untraced and traced: the run is correct, every metric
named in BENCHMARK.json is emitted with its unit and a finite value, every
self time is >= 0, and no span's children outlast it.  It also checks that
the tracer patches each traced name at every module that imports it, that
the command line prints the result object last, and that the command fails
without printing a result when the library sources are missing.
"""

import json
import math
import shutil
import subprocess
import sys

import run  # pins threads and puts src/ on the path before numpy loads
import workloads
from tracing import Tracer

SEED = 5
SECONDS = 4.0  # a traced run gives its untraced pass half of this
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Named in the tracer's contract: each must be replaced while tracing.
REQUIRED_SITES = {
    "otmix.fitting.component_log_densities",
    "otmix.sinkhorn.component_log_densities",
    "otmix.fitting.transport_responsibilities",
    "otmix.coclustering.transport_responsibilities",
    "otmix.mixtures.component_log_densities",
    "otmix.sinkhorn.transport_responsibilities",
}


def check_metrics(where: str, metrics: dict, wanted: dict) -> list:
    """`metrics` holds exactly the names in `wanted` (name -> unit), each finite."""
    problems = []
    if set(metrics) != set(wanted):
        problems.append(f"{where}: metric names differ from the expected ones: "
                        f"{sorted(set(metrics) ^ set(wanted))}")
    for name, m in metrics.items():
        if m["unit"] != wanted.get(name, m["unit"]):
            problems.append(f"{where}: {name} has unit {m['unit']}, not {wanted[name]}")
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{where}: {name} = {m['value']!r} is not finite")
        if name.endswith(".self_s") and m["value"] < 0:
            problems.append(f"{where}: {name} = {m['value']} is negative")
    return problems


def check_patching() -> list:
    import otmix.mixtures
    import otmix.sinkhorn

    tracer = Tracer()
    tracer.install()
    try:
        sites = tracer.patched_sites()
    finally:
        tracer.uninstall()
    problems = [f"tracer did not patch {site}" for site in sorted(REQUIRED_SITES - sites)]
    if otmix.sinkhorn.component_log_densities is not otmix.mixtures.component_log_densities:
        problems.append("uninstall left a traced component_log_densities behind")
    return problems


def check_cli() -> list:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", "sweep", "--seed", str(SEED),
           "--seconds", "0.5", "--trace", "0", "--size", "tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        return [f"command line exited with {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        return [f"result object has keys {sorted(result)}"]
    return []


def check_fails_without_sources() -> list:
    """A copy holding only BENCHMARK.json and the benchmark must fail, printing no result."""
    bare = run.TRACE_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in run.HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["the command succeeded without the library sources"]
    return []


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = check_patching()
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            where = f"{name} trace={int(trace)}"
            result = run.measure(name, SEED, SECONDS, trace, size="tiny")
            problems += [f"{where}: {p}" for p in result["problems"]]
            gated = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            problems += check_metrics(where, run.result_metrics(result, trace), gated)
            reported = {metric: {"value": result["e2e"].get(metric), "unit": unit}
                        for metric, unit in run.REPORTED}
            problems += check_metrics(where, reported, dict(run.REPORTED))
            print(f"{where}: {result['attempted']} fits checked", flush=True)
    problems += check_cli()
    problems += check_fails_without_sources()
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
