#!/usr/bin/env python3
"""Compare the benchmark's set-up time of two checkouts, run in alternation.

    python3 tools/setup_compare.py PARENT CHANGE

For each of the workloads sweep, sweep-diag and cocluster, runs

    python3 perfbench/run.py --setup-probe --workload W --seed 3

once in each checkout untimed, to warm the file cache, then for 10 rounds
in both, alternating which checkout goes first.  Each probe is timed by the
checkout's own `perfbench/run.py::probe_setup`, the function that measures
`setup_s`, so the timing rule has one home.  `setup_s` follows the machine's
speed from minute to minute, so only runs made in alternation like this
compare two commits.  Prints one JSON object: per checkout and workload, the
quartiles of its probe times, the times in round order, and in how many
rounds the change was faster.

Neither this process nor the probes write bytecode
(PYTHONDONTWRITEBYTECODE=1), so nothing is written into either checkout;
each probe then compiles its checkout's own modules, on both sides alike.
Exits non-zero if a probe fails.
"""

import importlib.util
import json
import os
import statistics
import sys
from pathlib import Path

WORKLOADS = ("sweep", "sweep-diag", "cocluster")
SEED = 3
ROUNDS = 10


def load_probe(checkout: Path, side: str):
    """`probe_setup` of the checkout's `perfbench/run.py`."""
    path = checkout / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_run_{side}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.probe_setup


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    checkouts = {"parent": Path(argv[0]).resolve(), "change": Path(argv[1]).resolve()}
    for path in checkouts.values():
        if not (path / "perfbench" / "run.py").is_file():
            print(f"error: {path} has no perfbench/run.py", file=sys.stderr)
            return 2
    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    probes = {side: load_probe(path, side) for side, path in checkouts.items()}
    times = {side: {w: [] for w in WORKLOADS} for side in checkouts}
    for workload in WORKLOADS:
        print(f"{workload} ...", file=sys.stderr, flush=True)
        for probe in probes.values():
            probe(workload, SEED, "full")
        for round_ in range(ROUNDS):
            order = list(checkouts) if round_ % 2 == 0 else list(reversed(checkouts))
            for side in order:
                times[side][workload].append(probes[side](workload, SEED, "full"))
    report = {"seed": SEED, "rounds": ROUNDS, "nproc": len(os.sched_getaffinity(0))}
    for side, path in checkouts.items():
        report[side] = {"path": str(path)}
        for workload, runs in times[side].items():
            q1, median, q3 = statistics.quantiles(runs, n=4)
            report[side][workload] = {"q1": round(q1, 4), "median": round(median, 4),
                                      "q3": round(q3, 4), "runs": [round(t, 4) for t in runs]}
    report["change_faster_rounds"] = {
        w: sum(c < p for p, c in zip(times["parent"][w], times["change"][w])) for w in WORKLOADS
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
