"""Running one job and gating its output against golden.json.

Every job calls the library the way a user does: through
`quditcodes.cli.main(argv)` with stdout captured, or through the public
API looked up as a module attribute at call time (so the trace's
wrappers see the call).  `observe` turns a job's output into the
recorded form; `compare` checks an observation against the recorded one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from importlib import resources
from typing import Optional, Tuple

import quditcodes.cli as cli
import quditcodes.oracle as oracle
import quditcodes.solver as solver
import quditcodes.verifier as verifier
from quditcodes.codes import code_from_json, code_to_json

from workloads import ORACLE_TRIALS

# The criterion-08 corruption of qutrit13: orbit (4,9,0) gets sqrt(1/55)/10
# in place of sqrt(1/55)/9.  Used only by the gate self-test.
TAMPER_JOB = "check/qutrit13/full/exact"
TAMPERED_ORBIT = {"representative": [4, 9, 0],
                  "amplitude": {"sign": 1, "coeff": [1, 10], "radicand": [1, 55]}}


def sha256(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def report_fingerprint(report) -> str:
    """Digest of exactly the fields `reports_identical` in
    tests/test_acceptance.py compares, with exact values by repr."""
    return sha256([
        report.passed, report.checked_elements, report.structural_zeros,
        report.arithmetic_zeros,
        sorted([e, f, repr(v)] for (e, f), v in report.constants.items()),
        sorted([v.e, v.f, v.i, v.j, repr(v.value)] for v in report.violations),
    ])


def run_cli(argv) -> Tuple[int, Optional[dict]]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    text = buf.getvalue()
    return code, json.loads(text) if text.strip() else None


class Context:
    """Inputs loaded at set-up: the oracle pool codes, the seed for the
    cli oracle jobs and, in the self-test, the tampered code file."""

    def __init__(self, pool: dict, seed: int,
                 tampered_path: Optional[str] = None):
        self.pool = {name: code_from_json(data) for name, data in pool.items()}
        self.cli_seed = seed
        self.tampered_path = tampered_path


def write_tampered_code(path: str) -> None:
    data = json.loads(resources.files("quditcodes.data")
                      .joinpath("qutrit13.json").read_text())
    data["orbits"] = [TAMPERED_ORBIT if o["representative"] == [4, 9, 0] else o
                      for o in data["orbits"]]
    with open(path, "w") as fh:
        json.dump(data, fh)


def observe(job: str, ctx: Context) -> dict:
    """Run one job and return its output in recorded form."""
    kind, *parts = job.split("/")
    if kind == "check":
        name, level, mode = parts
        path = (ctx.tampered_path if job == TAMPER_JOB and ctx.tampered_path
                else name + ".json")
        code, out = run_cli(["check", "--code", path, "--level", level,
                             "--mode", mode])
        if mode == "exact" or out is None or "error" in out:
            return {"exit": code, "sha256": sha256(out),
                    "pass": (out or {}).get("pass")}
        return {"exit": code, **_float_fields(out)}
    if kind in ("family", "family_construct"):
        code, note = solver.family_code(int(parts[0]))
        note_json = note.to_json()
        seen = {"solved_alpha_sq": note_json["solved_alpha_sq"],
                "agreement": note_json["agreement"],
                "code_sha256": sha256(code_to_json(code))}
        if kind == "family":
            report = verifier.kl_full(code, max_n=128)
            seen.update({"pass": report.passed,
                         "report": report_fingerprint(report)})
        return seen
    if kind == "search":
        d, N, k = (int(x) for x in parts)
        result = solver.search(d, N, k)
        return {"codes": sorted(json.dumps(code_to_json(c), sort_keys=True)
                                for c in result.codes),
                "candidates_tried": result.candidates_tried}
    if kind == "dense":
        code = ctx.pool[parts[0]]
        dense = report_fingerprint(oracle.dense_kl(code))
        full = report_fingerprint(verifier.kl_full(code))
        return {"identical": dense == full, "dense_kl": dense}
    if kind == "cli_oracle":
        d, N = parts
        # The seed changes which basis vectors are drawn, never the output.
        code, out = run_cli(["oracle", "--d", d, "--N", N,
                             "--trials", str(ORACLE_TRIALS),
                             "--seed", str(ctx.cli_seed)])
        return {"exit": code, "json": out}
    raise ValueError(f"unknown job {job!r}")


def _float_fields(out: dict) -> dict:
    return {
        "pass": out["pass"], "tolerance": out["tolerance"],
        "counts": [out["checked_elements"], out["structural_zeros"],
                   out["arithmetic_zeros"]],
        "constants": [[c["e"], c["f"], c["re"], c["im"]]
                      for c in out["constants"]],
        "violations": [[v["e"], v["f"], v["i"], v["j"],
                        v["value"]["re"], v["value"]["im"]]
                       for v in out["violations"]],
    }


def compare(job: str, seen: dict, want: dict) -> Optional[str]:
    """None when `seen` matches the golden `want`, else the reason."""
    if job.startswith("check/") and job.endswith("/float") and "counts" in want:
        return _compare_float(seen, want)
    if job.startswith("family/") and not seen.get("pass"):
        return "full report does not pass"
    if job.startswith("dense/") and not seen.get("identical"):
        return "dense_kl and kl_full reports differ"
    for key, value in want.items():
        if seen.get(key) != value:
            return f"{key} differs from golden"
    return None


def _compare_float(seen: dict, want: dict) -> Optional[str]:
    for key in ("exit", "pass", "counts"):
        if seen.get(key) != want[key]:
            return f"{key} differs from golden"
    tol = want["tolerance"]
    for field, width in (("constants", 2), ("violations", 4)):
        got, ref = seen[field], want[field]
        if [row[:width] for row in got] != [row[:width] for row in ref]:
            return f"{field} keys differ from golden"
        for a, b in zip(got, ref):
            if any(not math.isclose(x, y, rel_tol=0, abs_tol=tol)
                   for x, y in zip(a[width:], b[width:])):
                return f"{field} value at {a[:width]} outside tolerance {tol}"
    return None
