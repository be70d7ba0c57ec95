#!/usr/bin/env python3
"""Compare two checkouts' end-to-end benchmark metrics, run in alternating pairs.

    python3 tools/pair_compare.py PARENT CHANGE WORKLOAD PAIRS

Runs

    python3 perfbench/run.py --workload WORKLOAD --seed 3 --seconds 35 --trace 0

PAIRS times in each checkout, the parent first in even pairs and the change
first in odd ones, as tools/setup_compare.py does for the set-up probe.  The
metrics follow the machine's speed from minute to minute, so only runs made in
alternation like this compare two commits.  Prints one JSON object: per
end-to-end metric of BENCHMARK.json, each checkout's quartiles and values in
pair order, the change's median minus the parent's, the parent's quartile
spread, and in how many pairs the change was better in the metric's
direction; plus every run's `correct` and `failed`.

Neither this process nor the runs write bytecode (PYTHONDONTWRITEBYTECODE=1),
so nothing is written into either checkout.  Exits non-zero if a run fails or
reports incorrect output.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SEED = 3
SECONDS = 35


def metric_directions() -> dict[str, str]:
    """{metric: "lower" or "higher"} for BENCHMARK.json's end-to-end metrics."""
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["better"] for metric in spec["end_to_end"]}


def run_once(checkout: Path, workload: str) -> dict:
    """One benchmark run in the checkout: its last output line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(cmd, cwd=checkout, env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values: dict[str, list[dict]], better: dict[str, str]) -> dict:
    """Per metric, from each side's {metric: value} per pair: the quartiles and values of
    both sides, the median gap (change - parent), the parent's quartile spread, and
    the pairs the change won (a tie wins nothing)."""
    summary = {}
    for name, direction in better.items():
        sides = {side: [run[name] for run in runs] for side, runs in values.items()}
        entry = {}
        for side, runs in sides.items():
            q1, median, q3 = statistics.quantiles(runs, n=4)
            entry[side] = {"q1": q1, "median": median, "q3": q3, "runs": runs}
        entry["median_gap"] = entry["change"]["median"] - entry["parent"]["median"]
        entry["parent_spread"] = entry["parent"]["q3"] - entry["parent"]["q1"]
        sign = 1.0 if direction == "higher" else -1.0
        entry["change_better_pairs"] = sum(
            sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
        summary[name] = entry
    return summary


def main(argv: list[str]) -> int:
    if len(argv) != 4 or not argv[3].isdigit() or int(argv[3]) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    checkouts = {"parent": Path(argv[0]).resolve(), "change": Path(argv[1]).resolve()}
    workload, pairs = argv[2], int(argv[3])
    for path in checkouts.values():
        if not (path / "perfbench" / "run.py").is_file():
            print(f"error: {path} has no perfbench/run.py", file=sys.stderr)
            return 2
    better = metric_directions()
    results = {side: [] for side in checkouts}
    for pair in range(pairs):
        order = list(checkouts) if pair % 2 == 0 else list(reversed(checkouts))
        for side in order:
            print(f"{workload} pair {pair} {side} ...", file=sys.stderr, flush=True)
            results[side].append(run_once(checkouts[side], workload))
    values = {side: [{name: run["metrics"][name]["value"] for name in better} for run in runs]
              for side, runs in results.items()}
    report = {"workload": workload, "seed": SEED, "seconds": SECONDS, "pairs": pairs,
              "nproc": len(os.sched_getaffinity(0)),
              "paths": {side: str(path) for side, path in checkouts.items()},
              "runs": {side: [{"correct": run["correct"], "failed": run["failed"]} for run in runs]
                       for side, runs in results.items()},
              "metrics": summarize(values, better)}
    print(json.dumps(report, indent=2))
    return 0 if all(run["correct"] for runs in results.values() for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
