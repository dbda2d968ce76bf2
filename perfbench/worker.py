"""One benchmark pass in a fresh interpreter.

Imports the library from the checkout's `src/`, loads the inputs, then
runs the planned jobs one after another, gating each against golden.json.
Prints one JSON object: when set-up finished (on the system-wide
monotonic clock, so the parent can add interpreter start), the per-job
outcomes, the pass's time, peak resident memory and, with `--trace 1`,
the layer summary.  Without `--trace` only the check functions are
wrapped, to time the calls that decide KL elements.

The host this runs on is shared, and its speed drifts by tens of percent
over minutes while CPU time tracks wall time.  So a fixed stdlib-only
calibration loop runs after set-up and between the jobs, and each job's
time is also reported at the reference speed: divided by the slowdown
the calibrations just before and after it measured (set-up by the one
after it).  Neither the set-up time nor the pass time includes them.

Usage: python3 perfbench/worker.py --seed N --jobs JSON
       [--trace 0|1] [--setup-only] [--tamper] [--spans PATH]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# Seconds one calibration iteration takes at the reference speed (the fast
# end of the 2-vCPU host the benchmark was sized on), so times at the
# reference speed read close to wall time on a quiet host.
CALIBRATION_REF_S = 2.5e-6
# Per pass, split over the gaps around the jobs, and at least this per gap:
# shorter calibrations are too noisy to correct a job's time with.
PASS_CALIBRATION_S = 3.0
GAP_CALIBRATION_S = 0.3
# The loop reads a table larger than the per-core cache, as the dense
# oracle's digit-string dicts are: contention for the shared cache slows
# such code more than code that stays in the core's own cache.  The table
# adds about 3 MB to every pass's peak memory.
TABLE_SIZE = 60_000


def calibration_table() -> list:
    return [bytes((i % 251, i // 251 % 251, 7)) * 4 for i in range(TABLE_SIZE)]


def calibrate(seconds: float, table: list) -> list:
    """[iterations, seconds] of a fixed loop of the kinds of work the
    library does (Fraction arithmetic; dict updates keyed by byte strings
    with small int tuples as values, spread over a large table), run for
    about `seconds`."""
    began = time.perf_counter()
    done = 0
    while True:
        total, out = Fraction(0), {}
        for i in range(done, done + 2000):
            total += Fraction(i % 97 + 1, i % 89 + 1)
            key = table[i * 7919 % TABLE_SIZE]
            key = key[:5] + bytes((i % 3,)) + key[6:]
            old = out.get(key)
            pair = (i, i + 1)
            out[key] = pair if old is None else tuple(
                x + y for x, y in zip(old, pair))
        done += 2000
        elapsed = time.perf_counter() - began
        if elapsed >= seconds:
            return [done, elapsed]


def slowdown(calibrations) -> float:
    """How much slower than the reference speed the host ran them."""
    return (sum(c[1] for c in calibrations)
            / sum(c[0] for c in calibrations) / CALIBRATION_REF_S)


def import_library():
    """quditcodes from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    if not (src / "quditcodes" / "__init__.py").is_file():
        raise SystemExit(f"no quditcodes sources under {src}")
    sys.path.insert(0, str(src))
    import quditcodes
    if Path(quditcodes.__file__).resolve().parent != (src / "quditcodes").resolve():
        raise SystemExit(f"imported quditcodes from {quditcodes.__file__}, "
                         f"not from {src}")
    import quditcodes.cli  # noqa: F401  (every traced module is loaded)
    import quditcodes.oracle  # noqa: F401


def _delta(now, before) -> dict:
    return {k: v - before.get(k, 0) for k, v in now.items()
            if v != before.get(k, 0)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", default="[]")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tamper", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    import_library()
    import jobs
    from tracer import CHECKS, TRACED, Tracer

    golden = json.loads((HERE / "golden.json").read_text())
    tampered = None
    if args.tamper:
        OUT.mkdir(exist_ok=True)
        tampered = str(OUT / "tampered_qutrit13.json")
        jobs.write_tampered_code(tampered)
    ctx = jobs.Context(golden["oracle_pool"], args.seed, tampered)
    setup_done = time.monotonic()
    table = calibration_table()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done, "slowdown":
                          slowdown([calibrate(GAP_CALIBRATION_S, table)])}))
        return 0

    tracer = Tracer()
    if args.trace:
        tracer.install(TRACED)
        tracer.install_op_counts()
    else:
        tracer.install(CHECKS)

    plan = json.loads(args.jobs)
    gap = max(GAP_CALIBRATION_S, PASS_CALIBRATION_S / (len(plan) + 1))
    calibrations = [calibrate(gap, table)]
    outcomes = []
    for job in plan:
        counts, seconds = dict(tracer.counts), dict(tracer.seconds)
        check_s = tracer.check_seconds
        began = time.perf_counter()
        try:
            seen = jobs.observe(job, ctx)
            failure = jobs.compare(job, seen, golden["jobs"][job])
        except Exception:  # a job that raises counts as failed; the pass goes on
            traceback.print_exc()
            failure = "raised"
        outcome = {"job": job, "s": time.perf_counter() - began,
                   "check_s": tracer.check_seconds - check_s,
                   "failure": failure}
        calibrations.append(calibrate(gap, table))
        if args.trace:  # what this job alone did, for attributing the pass
            outcome["counts"] = _delta(tracer.counts, counts)
            outcome["seconds"] = _delta(tracer.seconds, seconds)
        outcomes.append(outcome)
        if failure:
            print(f"perfbench: job {job} failed: {failure}", file=sys.stderr)

    for outcome, around in zip(outcomes, zip(calibrations, calibrations[1:])):
        factor = slowdown(around)
        outcome["ref_s"] = outcome["s"] / factor
        outcome["check_ref_s"] = outcome["check_s"] / factor

    import sympy
    result = {
        "setup_done": setup_done,
        "slowdown": slowdown(calibrations[:1]),
        "sympy": sympy.__version__,
        "pass_s": sum(o["s"] for o in outcomes),
        "pass_ref_s": sum(o["ref_s"] for o in outcomes),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "jobs": outcomes,
        "check_elements": tracer.counts["check.elements"],
        "check_ref_s": sum(o["check_ref_s"] for o in outcomes),
        "absent": tracer.absent,
    }
    if args.trace:
        result["trace"] = tracer.summary()
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"fields": ["id", "name", "start", "end", "parent"],
                           "spans": tracer.spans, **result["trace"]}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
