"""Workload table and per-run job plans.

A job is named by a slash-separated id, which is also its key in
golden.json:

    check/<code>/<level>/<mode>   `quditcodes check` through cli.main
    family/<d>                    family_code(d), then kl_full(..., max_n=128)
    family_construct/<d>          family_code(d) alone
    search/<d>/<N>/<k>            solver.search(d, N, k)
    dense/<name>                  dense_kl against kl_full on a pool code
    cli_oracle/<d>/<N>            `quditcodes oracle --trials 100` through cli.main

This module imports nothing from quditcodes, so the parent process can
plan a run without paying for the library import.
"""

from __future__ import annotations

import random
from typing import Dict, List

SHIPPED = ("qutrit13", "c2_d5_n16", "c3_d7_n36", "c4_d7_n20_eta6")
ORACLE_TRIALS = 100

WORKLOADS: Dict[str, dict] = {
    "construct-verify": {
        "why": "The ROADMAP's headline user runs: `check` at every level on "
               "the shipped corpus, plus the three-orbit family built and "
               "fully verified for d = 5, 7, 9 and built for d = 11.",
        "stresses": ["cli", "verifier", "operators", "arith",
                     "combinatorics (expand_orbit at d=11)",
                     "solver (family_code)"],
        "bypasses": ["search enumeration", "oracle (dense digit-string engine)"],
        "jobs": ([f"check/{code}/{level}/exact" for code in SHIPPED
                  for level in ("full", "reduced", "qf")]
                 + ["check/c3_d7_n36/full/float"]
                 + [f"family/{d}" for d in (5, 7, 9)]
                 + ["family_construct/11"]),
    },
    "search": {
        "why": "One verifier serving many small codes, so per-code set-up "
               "counts more than per-element cost; the support funnel and "
               "sparsity predicate run here and nowhere else.",
        "stresses": ["solver (search funnel, build_qf_system, solve_system)",
                     "combinatorics (expand_orbit, is_effectively_sparse)",
                     "codes (validate, codeword)", "verifier (kl_full)"],
        "bypasses": ["cli", "oracle", "family construction"],
        "jobs": ["search/3/16/3", "search/5/21/3", "search/7/27/3"],
    },
    "oracle": {
        "why": "The only path through the dense digit-string engine: "
               "dense_kl against kl_full on solved d=3 codes, and the CLI "
               "differential test of the action formulas.",
        "stresses": ["oracle (dense_kl, dense_symmetric_vector, dense_apply, "
                     "states_agree)", "arith (exact element assembly)"],
        "bypasses": ["search", "family construction",
                     "verifier element loop (under 1% of the pass)"],
        # Pool picks are added per run by plan(); one code from each stratum.
        "jobs": ["cli_oracle/5/5", "cli_oracle/7/4"],
    },
}

# Solved d=3 supports at N = 10..11 that fail the full check, so the
# agreement covers violations too.  The two codes of a stratum share N and
# cost about the same dense_kl time and memory, so the seed varies which
# codes run without varying how much work a pass does.
ORACLE_POOL = {
    "n10-244-460-1000": (10, ((2, 4, 4), (4, 6, 0), (10, 0, 0))),
    "n10-244-460-811": (10, ((2, 4, 4), (4, 6, 0), (8, 1, 1))),
    "n11-155-371-1100": (11, ((1, 5, 5), (3, 7, 1), (11, 0, 0))),
    "n11-155-371-911": (11, ((1, 5, 5), (3, 7, 1), (9, 1, 1))),
}
ORACLE_STRATA = (("n10-244-460-1000", "n10-244-460-811"),
                 ("n11-155-371-1100", "n11-155-371-911"))

# Heavier ROADMAP runs left out until items 2-3 shrink them; costs are
# single runs on a 2-vCPU host with CPython 3.11 at the seed commit.
DEFERRED = [
    {"run": "kl_full on family_code(11)", "cost_s": 55.5},
    {"run": "dense_kl on qutrit13", "cost_s": 90},
    {"run": "search(3, 25, 4)", "cost_s": None,
     "note": "stopped unfinished after 300 s"},
]


def all_jobs() -> List[str]:
    """Every job any plan can contain (the golden file covers these)."""
    jobs = [j for w in WORKLOADS.values() for j in w["jobs"]]
    return jobs + [f"dense/{name}" for name in ORACLE_POOL]


def plan(workload: str, seed: int) -> List[str]:
    """The job order of one run; every pass of the run repeats it."""
    rng = random.Random(seed)
    jobs = list(WORKLOADS[workload]["jobs"])
    if workload == "oracle":
        jobs += [f"dense/{rng.choice(stratum)}" for stratum in ORACLE_STRATA]
    rng.shuffle(jobs)
    return jobs
