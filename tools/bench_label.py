#!/usr/bin/env python3
"""Write BENCH_<LABEL>.json: the gated benchmark workloads of one checkout.

    python3 tools/bench_label.py LABEL [CHECKOUT]

For each of the workloads sweep, sweep-diag and cocluster, in turn, runs

    python3 perfbench/run.py --workload W --seed 3 --seconds 35 --trace 0

with CHECKOUT (default: the repository this script belongs to) as the
working directory, and keeps each run's provenance line (commit, CPU count,
`src/otmix` line count and the rest) and its closing JSON line.  The file is
written to the root of this script's repository, so the runs of two
checkouts, made one after the other on the same machine, land side by side.
Exits non-zero if a run fails or prints no closing JSON line.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "sweep-diag", "cocluster")
SEED = 3
SECONDS = 35


def run_workload(checkout: Path, workload: str) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    provenance = next((json.loads(line.split(" ", 1)[1]) for line in lines
                       if line.startswith("provenance ")), None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or provenance is None or result is None:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload}: run failed (exit code {proc.returncode})")
    return {"workload": workload, "command": " ".join(command[1:]),
            "provenance": provenance, "result": result}


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    label = argv[0]
    checkout = Path(argv[1]).resolve() if len(argv) == 2 else REPO
    if not (checkout / "perfbench" / "run.py").is_file():
        print(f"error: {checkout} has no perfbench/run.py", file=sys.stderr)
        return 2
    runs = []
    for workload in WORKLOADS:
        print(f"{label}: {workload} ...", file=sys.stderr, flush=True)
        runs.append(run_workload(checkout, workload))
    out = REPO / f"BENCH_{label}.json"
    out.write_text(json.dumps({"label": label, "runs": runs}, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
