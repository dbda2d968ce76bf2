"""quditcodes benchmark: one command, every metric, outputs gated.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass runs the workload's jobs in
a fresh interpreter (perfbench/worker.py), one job after another with no
threads: a closed loop with one client.  The seed fixes the job order
and the oracle workload's picks; every pass of a run repeats that plan.

Passes start until the next one would end after `--seconds`; at least one
always runs.  Set-up (interpreter start, import, input load) is timed in
several extra interpreters that stop after set-up, and in every pass.

With `--trace 0` the last stdout line carries the end-to-end metrics,
each a median over passes.  With `--trace 1` the run alternates an
untraced and a traced pass and reports the per-layer metrics of the
traced ones; spans go to .perfbench_out/.  The line before the result
records provenance and the per-job outcomes.  Every job's output is
checked against golden.json; a mismatch counts as a failed job.

`--tamper` feeds one job the criterion-08 corrupted qutrit13 code, so
that job must fail (the gate self-test in perfbench/selftest.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 6
RUN_LIMIT_S = 170  # whole run, under the 180 s a run may take


class RunFailed(Exception):
    pass


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():  # a plain checkout has no history to read
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    spec = workloads.WORKLOADS[args.workload]
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commit": commit,
        "src_sha256": source_digest(), "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "why": spec["why"], "stresses": spec["stresses"],
        "bypasses": spec["bypasses"], "deferred": workloads.DEFERRED,
    }


def spawn(args, deadline: float, jobs=(), trace=0, setup_only=False,
          spans=None) -> dict:
    """Run worker.py to completion; returns its JSON plus the time it took
    (`elapsed`) and its set-up time, raw and at the reference speed."""
    argv = [sys.executable, str(HERE / "worker.py"), "--seed", str(args.seed),
            "--jobs", json.dumps(list(jobs)), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    if args.tamper:
        argv.append("--tamper")
    if spans:
        argv += ["--spans", str(spans)]
    started = time.monotonic()
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=max(deadline - started, 1))
    except subprocess.TimeoutExpired as exc:
        raise RunFailed("pass did not finish within the run's time limit") from exc
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed"] = time.monotonic() - started
    result["setup_s"] = result["setup_done"] - started
    result["setup_ref_s"] = result["setup_s"] / result["slowdown"]
    return result


def end_to_end(passes, setups) -> dict:
    """Times are at the reference speed (see worker.py), medians over
    passes and set-ups."""
    rates = [p["check_elements"] / p["check_ref_s"] for p in passes
             if p["check_ref_s"] > 0]
    jobs = [j for p in passes for j in p["jobs"]]
    ok = sum(1 for j in jobs if not j["failure"])
    return {
        "wall_s": (statistics.median(p["pass_ref_s"] for p in passes), "s"),
        "setup_s": (statistics.median(s["setup_ref_s"] for s in setups), "s"),
        "peak_rss_mb": (statistics.median(p["maxrss_kb"] for p in passes)
                        / 1024, "MB"),
        "elements_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
        "ops_ok_ratio": (ok / len(jobs), "ratio"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tamper", action="store_true",
                        help="corrupt one job's input (gate self-test)")
    args = parser.parse_args()
    if not (ROOT / "src" / "quditcodes").is_dir() or \
            not (HERE / "golden.json").is_file():
        print("perfbench: run from a checkout with src/quditcodes and "
              "perfbench/golden.json", file=sys.stderr)
        return 2

    began = time.monotonic()
    deadline = began + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    plan = workloads.plan(args.workload, args.seed)
    info = provenance(args)
    info["plan"] = plan

    setups, passes, traced = [], [], []
    try:
        if not args.trace:
            setups = [spawn(args, deadline, setup_only=True)
                      for _ in range(SETUP_PROBES)]
        longest = 0.0
        while True:
            trace = int(args.trace and len(passes) > len(traced))
            spans = OUT / (f"spans-{args.workload}-s{args.seed}-"
                           f"p{len(traced)}.json") if trace else None
            result = spawn(args, deadline, plan, trace, spans=spans)
            (traced if trace else passes).append(result)
            setups.append(result)
            longest = max(longest, result["elapsed"])
            enough = passes and (traced or not args.trace)
            if enough and time.monotonic() + longest > began + args.seconds:
                break
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    jobs = [j for p in passes + traced for j in p["jobs"]]
    failed = sum(1 for j in jobs if j["failure"])
    if args.trace:
        metrics = layer_metrics([p["trace"] for p in traced], passes, traced)
    else:
        metrics = end_to_end(passes, setups)
    info.update({"sympy": passes[0]["sympy"], "passes": len(passes),
                 "traced_passes": len(traced),
                 "setup_s": [s["setup_s"] for s in setups],
                 "setup_ref_s": [s["setup_ref_s"] for s in setups],
                 "pass_s": [p["pass_s"] for p in passes],
                 "pass_ref_s": [p["pass_ref_s"] for p in passes],
                 "traced_pass_s": [p["pass_s"] for p in traced],
                 "slowdown": [s["slowdown"] for s in setups],
                 "jobs": jobs,
                 "absent": (traced or passes)[0]["absent"],
                 "uncounted": traced[0]["trace"]["uncounted"] if traced else []})
    result = {"correct": failed == 0, "attempted": len(jobs), "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    record.write_text(json.dumps({"provenance": info, "result": result},
                                 indent=1) + "\n")
    print(json.dumps({"provenance": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
