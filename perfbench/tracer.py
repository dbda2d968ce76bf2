"""Outside-in layer trace: wrap public functions where their callers find them.

`verifier` and `solver` import `expand_orbit`, `apply_generator` and the
rest by name, so a function is wrapped by rebinding every quditcodes
module global that holds it, not only the attribute of its defining
module.  Each call records a span (name, start, end, parent); a span's
self time is its duration minus the child spans it covers.  Spans stay in
memory and are written out when the pass ends.

A function that no longer exists is reported as absent, not as an error,
so the trace keeps working when a later change deletes one.  Exact
arithmetic (`ExactComplex` multiply and add) is counted, not timed.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

# Called once per evaluated matrix element (about a million times a pass):
# aggregated into per-name totals and the parent's child time, no span each.
HOT = {"operators.inner_product"}

VERIFIER = ("verifier.kl_full", "verifier.kl_reduced", "verifier.qf_check")
CHECKS = VERIFIER + ("oracle.dense_kl",)


def _report_counts(prefix: str):
    def count(tracer, result, args, kwargs, parent):
        if not any(tracer.active[name] for name in CHECKS):
            tracer.count("check.elements", result.checked_elements)
        tracer.count(f"{prefix}.elements", result.checked_elements)
        tracer.count(f"{prefix}.structural_zeros", result.structural_zeros)
        tracer.count(f"{prefix}.arithmetic_zeros", result.arithmetic_zeros)
        if parent == "solver.search":
            tracer.count("search.full_checks")
    return count


def _rejected(ok: Callable, funnel: Optional[str] = None):
    def count(tracer, result, args, kwargs, parent):
        passed = ok(result)
        tracer.count_named("rejected", not passed)
        if funnel and parent == "solver.search" and passed:
            tracer.count(funnel)
    return count


def _solve_counts(tracer, result, args, kwargs, parent):
    tracer.count_named("solutions", len(result))
    if parent == "solver.search":
        tracer.count("search.solved", len(result))


def _validate_counts(tracer, result, args, kwargs, parent):
    tracer.count_named("failed", not result.passed)
    if parent == "solver.search" and result.passed:
        tracer.count("search.validated")


# search() enumerates R support representatives and covers C(R, k) subsets;
# the generator's counter leaves R for the enclosing search call.
def _search_counts(tracer, result, args, kwargs, parent):
    k = args[2] if len(args) > 2 else kwargs["support_size"]
    tracer.count("search.subsets", math.comb(tracer.pending.pop("reps", 0), k))
    tracer.count("search.accepted", len(result.codes))


def _reps_counts(tracer, n, args, kwargs, parent):
    tracer.count_named("reps", n)
    if parent == "solver.search":
        tracer.pending["reps"] = n


def _overlap(tracer, result, args, kwargs, parent):
    phi, psi = args[0], args[1]
    tracer.count_named("overlap_terms", len(phi.terms.keys() & psi.terms.keys()))


def _simple(key: str, measure: Callable):
    def count(tracer, result, args, kwargs, parent):
        tracer.count_named(key, measure(result))
    return count


# `module.function` -> (counter, the fields reported for it as
# `<module>.<function>.<field>`), in the order the per-layer metrics list them.
TRACED: Dict[str, tuple] = {
    "combinatorics.expand_orbit": (_simple("members", len),
                                   ("s", "calls", "members")),
    "combinatorics.is_effectively_sparse": (
        _rejected(lambda r: r[0], "search.sparse"), ("s", "calls", "rejected")),
    "combinatorics.iter_support_representatives": (_reps_counts, ("s", "reps")),
    "solver.family_code": (None, ("s", "calls")),
    "solver.build_qf_system": (None, ("s", "calls")),
    "solver.solve_system": (_solve_counts, ("s", "calls", "solutions")),
    "solver.passes_prefilter": (_rejected(bool, "search.prefiltered"),
                                ("s", "calls", "rejected")),
    "solver.search": (_search_counts, ("s", "calls")),
    "codes.codeword": (_simple("terms", lambda r: len(r.terms)),
                       ("s", "calls", "terms")),
    "codes.validate": (_validate_counts, ("s", "calls", "failed")),
    "operators.apply_generator": (_simple("terms_out", lambda r: len(r.terms)),
                                  ("s", "calls", "terms_out")),
    "operators.inner_product": (_overlap, ("s", "calls", "overlap_terms")),
    "verifier.kl_full": (_report_counts("verifier"), ("s",)),
    "verifier.kl_reduced": (_report_counts("verifier"), ("s",)),
    "verifier.qf_check": (_report_counts("verifier"), ("s",)),
    "arith.factorize": (None, ("s", "calls")),
    "oracle.dense_kl": (_report_counts("oracle.dense_kl"),
                        ("s", "calls", "elements", "structural_zeros")),
    "oracle.dense_symmetric_vector": (_simple("strings", lambda r: len(r.terms)),
                                      ("s", "calls", "strings")),
    "oracle.dense_apply": (None, ("s", "calls")),
    "oracle.states_agree": (None, ("s", "calls")),
    "cli.main": (None, ("s", "calls")),
}
COUNTED_OPS = {"arith.exact_mul": ("__mul__", "__rmul__"),
               "arith.exact_add": ("__add__",)}


class _Frame:
    __slots__ = ("span_id", "name", "child")

    def __init__(self, span_id, name):
        self.span_id = span_id
        self.name = name
        self.child = 0.0


class Tracer:
    """Spans and counts for one pass; `install` wraps the functions."""

    def __init__(self):
        self.spans: List[tuple] = []      # (id, name, start, end, parent id)
        self.stack: List[_Frame] = []
        self.active: Counter = Counter()  # name -> frames on the stack
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()  # inclusive, outermost calls only
        self.self_seconds: Counter = Counter()
        self.counts: Counter = Counter()
        self.pending: dict = {}
        self.check_seconds = 0.0  # inside outermost check calls
        self.absent: List[str] = []
        self.uncounted: set = set()
        self._next_id = 0
        self._current: Optional[str] = None

    # -- counting ----------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    def count_named(self, suffix: str, n: int = 1) -> None:
        """Count under the function whose counter is running."""
        self.counts[f"{self._current}.{suffix}"] += n

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> _Frame:
        self._next_id += 1
        frame = _Frame(self._next_id, name)
        self.stack.append(frame)
        self.active[name] += 1
        return frame

    def _exit(self, frame: _Frame, start: float, end: float, busy: float) -> None:
        self.stack.pop()
        self.active[frame.name] -= 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent.child += busy
        self.calls[frame.name] += 1
        if not self.active[frame.name]:
            self.seconds[frame.name] += busy
        if frame.name in CHECKS and not any(self.active[c] for c in CHECKS):
            self.check_seconds += busy
        self.self_seconds[frame.name] += busy - frame.child
        if frame.name not in HOT:
            self.spans.append((frame.span_id, frame.name, start, end,
                               parent.span_id if parent else None))

    def _run_counter(self, name, counter, result, args, kwargs) -> None:
        parent = self.stack[-1].name if self.stack else None
        self._current = name
        began = time.perf_counter()
        try:
            counter(self, result, args, kwargs, parent)
        except (AttributeError, TypeError, IndexError, KeyError):
            self.uncounted.add(name)
        # Bookkeeping time is charged to no layer.
        if self.stack:
            self.stack[-1].child += time.perf_counter() - began

    def wrap(self, name: str, fn: Callable, counter: Optional[Callable]):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn, counter)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._exit(frame, start, end, end - start)
            if counter is not None:
                self._run_counter(name, counter, result, args, kwargs)
            return result
        return wrapper

    def _wrap_generator(self, name, fn, counter):
        """One span per generator, covering only the time spent inside it."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            self._next_id += 1
            frame = _Frame(self._next_id, name)
            first = last = None
            busy = 0.0
            produced = 0
            while True:
                self.stack.append(frame)
                began = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    break
                finally:
                    last = clock()
                    self.stack.pop()
                    busy += last - began
                    first = began if first is None else first
                produced += 1
                yield item
            self.stack.append(frame)  # _exit pops it
            self.active[name] += 1
            self._exit(frame, first, last, busy)
            if counter is not None:
                self._run_counter(name, counter, produced, args, kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, names) -> None:
        """Wrap each `module.function` in every quditcodes module that
        binds it; note the ones that no longer exist."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "quditcodes" or key.startswith("quditcodes.")]
        for name in names:
            module_name, fn_name = name.split(".")
            home = sys.modules.get(f"quditcodes.{module_name}")
            original = getattr(home, fn_name, None) if home else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original, TRACED[name][0])
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def install_op_counts(self) -> None:
        arith = sys.modules.get("quditcodes.arith")
        cls = getattr(arith, "ExactComplex", None)
        for key, methods in COUNTED_OPS.items():
            for method in methods:
                original = getattr(cls, method, None) if cls else None
                if original is None:
                    self.absent.append(f"{key} ({method})")
                    continue
                setattr(cls, method, self._counting(key, original))

    def _counting(self, key, original):
        counts = self.counts

        def wrapper(a, b):
            counts[key] += 1
            return original(a, b)
        return wrapper

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        names = sorted(set(self.calls))
        return {
            "functions": {n: {"calls": self.calls[n], "s": self.seconds[n],
                              "self_s": self.self_seconds[n]} for n in names},
            "counts": dict(self.counts),
            "check_seconds": self.check_seconds,
            "absent": self.absent,
            "uncounted": sorted(self.uncounted),
        }


# -- per-layer metrics -------------------------------------------------------

FUNNEL = ("subsets", "sparse", "prefiltered", "solved", "validated",
          "full_checks", "accepted")


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def pass_metrics(summary: dict) -> dict:
    functions, counts = summary["functions"], summary["counts"]
    out = {}
    for name, (_, fields) in TRACED.items():
        stats = functions.get(name, {"calls": 0, "s": 0.0})
        for field in fields:
            if field == "s":
                out[f"{name}.s"] = (stats["s"], "s")
            elif field == "calls":
                out[f"{name}.calls"] = (stats["calls"], "count")
            else:
                out[f"{name}.{field}"] = (counts.get(f"{name}.{field}", 0), "count")
    for field in FUNNEL:
        out[f"search.{field}"] = (counts.get(f"search.{field}", 0), "count")
    out["search.accept_ratio"] = (_ratio(counts.get("search.accepted", 0),
                                         counts.get("search.full_checks", 0)),
                                  "ratio")
    elements = counts.get("verifier.elements", 0)
    structural = counts.get("verifier.structural_zeros", 0)
    arithmetic = counts.get("verifier.arithmetic_zeros", 0)
    out["verifier.self_s"] = (sum(functions.get(n, {}).get("self_s", 0.0)
                                  for n in VERIFIER), "s")
    out["verifier.elements"] = (elements, "count")
    out["verifier.structural_zeros"] = (structural, "count")
    out["verifier.arithmetic_zeros"] = (arithmetic, "count")
    out["verifier.nonzero_ratio"] = (
        _ratio(elements - structural - arithmetic, elements), "ratio")
    for key in COUNTED_OPS:
        out[f"{key}.calls"] = (counts.get(key, 0), "count")
    out["cli.self_s"] = (functions.get("cli.main", {}).get("self_s", 0.0), "s")
    return out


def layer_metrics(summaries, untraced, traced) -> dict:
    """Medians over traced passes, plus the two metrics that compare them
    with the untraced passes of the same run (times at the reference
    speed, see worker.py)."""
    per_pass = [pass_metrics(s) for s in summaries]
    out = {key: (statistics.median(p[key][0] for p in per_pass), unit)
           for key, (_, unit) in per_pass[0].items()}
    search_s = statistics.median(
        sum(j["ref_s"] for j in p["jobs"] if j["job"].startswith("search/"))
        for p in untraced)
    out["search.supports_per_s"] = (_ratio(out["search.subsets"][0], search_s),
                                    "1/s")
    out["trace.overhead_ratio"] = (
        statistics.median(p["pass_ref_s"] for p in traced)
        / statistics.median(p["pass_ref_s"] for p in untraced), "ratio")
    return out
