"""Gate self-test for the benchmark.

    python3 perfbench/selftest.py        (from the root of a checkout, ~40 s)

Checks that
  * the criterion-08 tampered qutrit13 amplitude makes exactly its job
    fail, without aborting the run;
  * an unknown workload name fails loudly, printing no result;
  * a directory holding only BENCHMARK.json and perfbench/ fails the same
    way instead of measuring some other copy of the library;
  * the metric names the benchmark prints are the ones BENCHMARK.json lists.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from tracer import pass_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*extra, cwd=ROOT):
    argv = [*SPEC["command"], *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main() -> int:
    problems = []

    proc = bench("--workload", "construct-verify", "--seed", "0",
                 "--seconds", "1", "--trace", "0", "--tamper")
    result = last_json(proc.stdout)
    provenance = json.loads(proc.stdout.strip().splitlines()[-2])["provenance"]
    failed_jobs = [j["job"] for j in provenance["jobs"] if j["failure"]]
    if proc.returncode != 0 or result is None:
        problems.append(f"tampered run exited {proc.returncode}")
    elif result["correct"] or failed_jobs != ["check/qutrit13/full/exact"] \
            or not result["metrics"]["ops_ok_ratio"]["value"] < 1:
        problems.append(f"tampered run not caught: {result}, {failed_jobs}")
    elif set(result["metrics"]) != {m["name"] for m in SPEC["end_to_end"]}:
        problems.append("end-to-end metric names differ from BENCHMARK.json")

    proc = bench("--workload", "no-such-workload", "--seed", "0",
                 "--seconds", "1", "--trace", "0")
    if proc.returncode == 0 or last_json(proc.stdout) is not None:
        problems.append("unknown workload did not fail loudly")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "search", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or last_json(proc.stdout) is not None:
        problems.append("run without library sources did not fail")

    empty = {"functions": {}, "counts": {}}
    layer_names = set(pass_metrics(empty)) | {"search.supports_per_s",
                                              "trace.overhead_ratio"}
    if layer_names != {m["name"] for m in SPEC["per_layer"]}:
        problems.append("per-layer metric names differ from BENCHMARK.json")

    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
