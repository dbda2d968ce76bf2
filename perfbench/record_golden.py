"""Record golden.json: the output of every job any plan can contain.

Run from the root of a checkout of the commit whose outputs are the
reference (all three workloads take about a minute):

    python3 perfbench/record_golden.py

The oracle pool codes are solved here once and stored, so a run loads
its inputs instead of re-solving them.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys

from worker import HERE, ROOT, import_library


def main() -> int:
    import_library()
    import sympy
    from quditcodes.codes import code_to_json
    from quditcodes.solver import build_qf_system, solve_system

    import jobs
    from workloads import ORACLE_POOL, all_jobs

    pool = {}
    for name, (N, support) in ORACLE_POOL.items():
        solution, = solve_system(build_qf_system(3, N, support))
        pool[name] = code_to_json(solution.code)
    golden = {"oracle_pool": pool, "jobs": {}}
    ctx = jobs.Context(pool, seed=0)
    for job in all_jobs():
        golden["jobs"][job] = jobs.observe(job, ctx)
        print(job, file=sys.stderr)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    golden["recorded_on"] = {"commit": commit or None,
                             "python": platform.python_version(),
                             "sympy": sympy.__version__}
    with open(HERE / "golden.json", "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
