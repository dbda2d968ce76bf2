"""Before/after benchmark record: alternating pairs of perfbench runs.

    python3 tools/bench_pairs.py --parent-dir P --change-dir C \
        --parent-commit REV --label LABEL --change "what changed"

P and C are two checkouts (for example `git archive REV | tar -x -C P`).
The workloads, the end-to-end metrics (name, better, bound) and the run
length come from the BENCHMARK.json next to this script's directory.  On
each workload, pair n (seed n, 1..10) runs `perfbench/run.py --workload W
--seed n --seconds RUN_SECONDS --trace 0` once in each checkout,
alternating which side runs first, and reads the end-to-end metrics from
the last stdout line of each run.  The medians, quartiles, per-pair wins
and bound of every metric go to `BENCH_<LABEL>.json` in the current
directory.  The exit status is 1 when any run reported
`correct: false` (the record is still written) or when a run exited
non-zero (named by workload, seed and side; no record is written).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
PAIRS = 10
SECONDS = BENCHMARK["run_seconds"]   # the same on both sides
COMMAND = (f"python3 perfbench/run.py --workload W --seed S "
           f"--seconds {SECONDS} --trace 0")


def run(checkout: str, workload: str, seed: int, side: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} on the {side} side "
                         f"({checkout}) exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(metric: dict, parent: list, change: list) -> dict:
    def quartiles(runs):
        q = statistics.quantiles(runs, n=4, method="inclusive")
        return [round(q[0], 4), round(q[2], 4)]

    better = metric["better"]
    p, c = statistics.median(parent), statistics.median(change)
    wins = sum((b < a) if better == "lower" else (b > a)
               for a, b in zip(parent, change))
    return {"better": better, "bound": metric["bound"], "parent_median": round(p, 4),
            "change_median": round(c, 4),
            "parent_quartiles": quartiles(parent),
            "change_quartiles": quartiles(change),
            "change_minus_parent_pct": round(100 * (c / p - 1), 1),
            "change_wins": f"{wins}/{len(parent)}",
            "parent_runs": [round(x, 4) for x in parent],
            "change_runs": [round(x, 4) for x in change]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent-dir", required=True)
    parser.add_argument("--change-dir", required=True)
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--change", required=True)
    args = parser.parse_args()
    record = {
        "label": args.label, "change": args.change,
        "parent_commit": args.parent_commit,
        "command": COMMAND,
        "procedure": f"{PAIRS} pairs per workload; pair n runs parent "
                     f"and change with seed n (1..{PAIRS}), alternating "
                     "which side runs first; each run in its own "
                     "checkout; values are the end-to-end metrics of each "
                     "run's last stdout line",
        "host": {"nproc": os.cpu_count(),
                 "python": platform.python_version(),
                 "note": "shared host; times are perfbench's calibrated "
                         "reference-speed times"},
        "workloads": {}}
    wrong = []
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        runs = {"parent": [], "change": []}
        for seed in range(1, PAIRS + 1):
            sides = ["parent", "change"] if seed % 2 else ["change", "parent"]
            for side in sides:
                result = run(getattr(args, f"{side}_dir"), workload, seed,
                             side)
                runs[side].append(result)
                if not result["correct"]:
                    wrong.append(f"{workload} seed {seed} {side}")
                print(workload, seed, side,
                      result["metrics"]["wall_s"]["value"], file=sys.stderr)
        record["workloads"][workload] = {
            "pairs": PAIRS,
            "all_correct": all(r["correct"] for side in runs.values()
                               for r in side),
            "metrics": {metric["name"]: summary(
                metric, *([r["metrics"][metric["name"]]["value"]
                           for r in runs[side]] for side in runs))
                for metric in BENCHMARK["end_to_end"]}}
    with open(f"BENCH_{args.label}.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    if wrong:
        print("runs that reported correct: false: " + ", ".join(wrong),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
