"""Command-line front end.

Every subcommand prints one JSON document to stdout, on one line with
sorted keys.  Exit codes:
0 success / all checks pass, 1 verification found violations, 2 invalid
input (with a machine-readable error object on stdout).  `oracle`
compares dense images with `generator_action` on integers alone.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from importlib import resources
from typing import List, Optional

from .arith import InvalidInputError, UnfactorableError
from .codes import code_from_json, code_to_json, load_code
from .combinatorics import (check_dimensions, check_occupation,
                            enumerate_supports)
from .config import MODES, Config, check_scale, load_config
from .oracle import CollapseError, class_images, dense_symmetric_vector
from .operators import error_basis, generator_action
from .reptheory import branching_multiplicity, sym_dim
from .solver import build_qf_system, family_code, search, solve_system
from .verifier import LEVELS, run_level

DATA_PACKAGE = "quditcodes.data"


def _emit(obj) -> None:
    # One `dumps` call, unindented: only that path runs the C encoder.
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _resolve_code(path: str):
    try:
        return load_code(path)
    except FileNotFoundError:
        pass
    except (OSError, UnicodeDecodeError) as exc:  # a directory, not UTF-8
        raise InvalidInputError(f"cannot read code file {path}: {exc}") from exc
    entry = resources.files(DATA_PACKAGE).joinpath(path)
    if entry.is_file():
        return code_from_json(json.loads(entry.read_text()))
    raise InvalidInputError(f"no such code file: {path}")


def _parse_support(text: str):
    try:
        return [tuple(int(x) for x in part.split(","))
                for part in text.split(";") if part.strip()]
    except ValueError as exc:
        raise InvalidInputError(f"malformed support string {text!r}") from exc


def cmd_branching(args, config: Config) -> int:
    check_scale(args.d, args.N, config.max_d, config.max_n)
    check_dimensions(args.d, args.N)
    eta = args.eta if args.eta is not None else args.N % args.d
    _emit({"d": args.d, "N": args.N, "dim": sym_dim(args.d, args.N),
           "eta": eta,
           "multiplicity": branching_multiplicity(args.d, args.N, eta)})
    return 0


def cmd_orbits(args, config: Config) -> int:
    check_scale(args.d, args.N, config.max_d, config.max_n)
    reps = [list(o.representative)
            for o in enumerate_supports(args.d, args.N, args.limit)]
    _emit({"d": args.d, "N": args.N, "count": len(reps),
           "representatives": reps})
    return 0


def cmd_check(args, config: Config) -> int:
    code = _resolve_code(args.code)
    mode = args.mode or config.mode
    report = run_level(code, args.level, mode, config.float_tolerance,
                       config.max_d, config.max_n)
    _emit(report.to_json())
    return 0 if report.passed else 1


def cmd_solve(args, config: Config) -> int:
    check_scale(args.d, args.N, config.max_d, config.max_n)
    support = [check_occupation(u, args.d, args.N)
               for u in _parse_support(args.support)]
    system = build_qf_system(args.d, args.N, support)
    solutions = solve_system(system)
    payload = {
        "system": system.to_json(),
        "codes": [code_to_json(s.code) for s in solutions],
        "xi": [[[x.numerator, x.denominator] for x in s.xi] for s in solutions],
    }
    if not solutions:
        payload["notice"] = "no strictly positive solution; choose another support"
    _emit(payload)
    return 0


def cmd_family(args, config: Config) -> int:
    check_scale(args.d, None, config.max_d, config.max_n)
    code, note = family_code(args.d)
    _emit({"code": code_to_json(code), "discrepancy": note.to_json()})
    return 0


def cmd_search(args, config: Config) -> int:
    result = search(args.d, args.N, args.k, max_candidates=args.max,
                    max_seconds=args.max_seconds, max_d=config.max_d,
                    max_n=config.max_n)
    _emit({"codes": [code_to_json(c) for c in result.codes],
           "candidates_tried": result.candidates_tried,
           "exhausted": result.exhausted})
    return 0


def cmd_oracle(args, config: Config) -> int:
    """Differential test on random basis vectors |S_u>, all generators
    each: a collapsed dense image must equal the dict of (re, im) Gaussian
    integers that `generator_action` gives.

    Each distinct u is checked once, at its first draw; a repeat draw is
    skipped, and the draws stop once every composition of N into d parts
    has been checked.  The checks are deterministic, so neither changes the
    verdict or the witness (the first failing draw)."""
    check_scale(args.d, args.N, config.max_d, config.max_n)
    if args.d < 2 or args.N < 1 or args.trials < 1:
        raise InvalidInputError(
            f"need d >= 2, N >= 1 and trials >= 1, "
            f"got d={args.d}, N={args.N}, trials={args.trials}")
    rng = random.Random(args.seed)
    basis = [op for op in error_basis(args.d) if op.kind != "I"]
    compositions = sym_dim(args.d, args.N)
    checked = set()
    for _ in range(args.trials):
        if len(checked) == compositions:
            break
        cuts = sorted(rng.randint(0, args.N) for _ in range(args.d - 1))
        u = tuple(b - a for a, b in zip([0] + cuts, cuts + [args.N]))
        if u in checked:
            continue
        checked.add(u)
        dense_u = dense_symmetric_vector(u, term_cap=config.oracle_term_cap)
        images = class_images(basis, dense_u, args.d, 2,
                              config.oracle_term_cap)
        for op in basis:
            try:
                agree = next(images) == {v: (re, im) for v, re, im
                                         in generator_action(op, u)}
            except CollapseError:
                agree = False
            if not agree:
                _emit({"pass": False, "witness": {"u": list(u),
                                                  "operator": op.name()}})
                return 1
    _emit({"pass": True, "d": args.d, "N": args.N, "trials": args.trials,
           "generators": len(basis)})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditcodes",
        description="Exact construction and verification of permutation-"
                    "invariant qudit error-correcting codes.")
    parser.add_argument("--config", help="JSON config file (overrides $QECC_CONFIG)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("branching", help="irrep dimension and multiplicity")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--eta", type=int)
    p.set_defaults(func=cmd_branching)

    p = sub.add_parser("orbits", help="eligible support orbit representatives")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--limit", type=int)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("check", help="verify a code file")
    p.add_argument("--code", required=True)
    p.add_argument("--level", choices=LEVELS, default="full")
    p.add_argument("--mode", choices=MODES)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="solve the quadratic forms on a support")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--support", required=True,
                   help='semicolon-separated occupation vectors, e.g. '
                        '"13,0,0;4,9,0;3,5,5"')
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("family", help="three-orbit code at N=(d-1)^2")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("search", help="search supports of a given size")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max", type=int)
    p.add_argument("--max-seconds", type=float,
                   help="time budget; a stop reports \"exhausted\": false")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("oracle", help="differential test vs dense tensor action")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        return args.func(args, config)
    except (InvalidInputError, UnfactorableError, json.JSONDecodeError) as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 2


if __name__ == "__main__":
    sys.exit(main())
