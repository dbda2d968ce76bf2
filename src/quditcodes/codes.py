"""Code data model, code-word generation, and structural validation.

A code is specified by its logical-zero code word: one real amplitude
per tail orbit of weight-zero occupation vectors with congruent tail
entries.  The remaining code words are cyclic relabelings of the zero
word, so the whole code is a (d, N, eta) header plus an orbit/amplitude
list.  The file format restricts amplitudes to sign * rational *
sqrt(rational), which covers every shipped code; arbitrary RadicalSum
amplitudes are accepted through the API.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Tuple

from .arith import ExactComplex, InvalidInputError, RadicalSum
from .combinatorics import (OccupationVector, basis_norm, check_code_space,
                            check_occupation, cyclic_shift,
                            distinct_orbit_keys, expand_orbit, is_eligible,
                            sparsity_violation, tail_orbit)
from .operators import StateVector
from .reptheory import is_valid_code_space


@dataclass(frozen=True)
class OrbitAmplitude:
    representative: OccupationVector
    amplitude: RadicalSum  # nonzero real; code files allow sign -1


@dataclass(frozen=True)
class Code:
    d: int
    N: int
    eta: int
    orbits: Tuple[OrbitAmplitude, ...]

    def support_representatives(self) -> Tuple[OccupationVector, ...]:
        return tuple(o.representative for o in self.orbits)


@dataclass
class ValidationReport:
    checks: Dict[str, bool] = field(default_factory=dict)
    witnesses: Dict[str, object] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def record(self, name: str, ok: bool, witness: object = None) -> None:
        self.checks[name] = ok
        if not ok and witness is not None:
            self.witnesses[name] = witness


def codeword_orbits(code: Code, k: int) -> Dict[OccupationVector, int]:
    """The support of |k-bar>: each occupation vector mapped to the index of
    the orbit whose amplitude it carries.  Refuses an empty code and one
    that lists a tail orbit twice, whose members would carry the later
    listing's amplitude."""
    keys = distinct_orbit_keys(code.support_representatives(), "code")
    return {cyclic_shift(member, k): o
            for o, key in enumerate(keys) for member in expand_orbit(key)}


def codeword(code: Code, k: int) -> StateVector:
    """|k-bar> = (logical shift)**k applied to the zero code word."""
    amplitudes = [ExactComplex.real(entry.amplitude) for entry in code.orbits]
    return StateVector(code.d, code.N,
                       {u: amplitudes[o]
                        for u, o in codeword_orbits(code, k).items()})


def validate(code: Code) -> ValidationReport:
    """Structural checks: residue (`check_code_space` and
    `is_valid_code_space`), weights, distinct orbits (`distinct_orbit_keys`,
    whose refusal is the witness), normalization, effective sparsity."""
    report = ValidationReport()

    try:
        check_code_space(code.d, code.N)
        residue_ok = is_valid_code_space(code.d, code.N, code.eta)
    except InvalidInputError:
        residue_ok = False
    report.record("residue", residue_ok,
                  {"d": code.d, "N": code.N, "eta": code.eta})

    for entry in code.orbits:
        rep = entry.representative
        if not is_eligible(rep, code.d, code.N):
            report.record("support", False, rep)
            return report
        if entry.amplitude.is_zero():
            report.record("support", False, ("zero amplitude", rep))
            return report
    try:
        distinct_orbit_keys(code.support_representatives(), "code")
    except InvalidInputError as exc:
        report.record("support", False, str(exc))
        return report
    report.record("support", True)

    total = RadicalSum.zero()
    for entry in code.orbits:
        rep = tuple(entry.representative)
        total = total + (entry.amplitude * entry.amplitude) * (
            basis_norm(rep) * tail_orbit(rep).size)
    report.record("normalization", total == RadicalSum.of(1), repr(total))

    violation = sparsity_violation(code.support_representatives())
    report.record("sparsity", violation is None, violation)
    return report


# ---------------------------------------------------------------------------
# JSON file format


def _amplitude_to_json(amp: RadicalSum) -> dict:
    if len(amp.terms) != 1:
        raise InvalidInputError(
            "file format requires amplitudes of the form sign*c*sqrt(r)")
    radicand, coeff = next(iter(amp.terms.items()))
    sign = 1 if coeff > 0 else -1
    coeff = abs(coeff)
    return {
        "sign": sign,
        "coeff": [coeff.numerator, coeff.denominator],
        "radicand": [radicand, 1],
    }


def _integer_from_json(x) -> int:
    """A JSON number with an integral value.  A writer may print 13 as
    13.0, so an integral float is read as that integer; a fraction such as
    13.9, a string or a boolean is refused rather than truncated."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, float) and x.is_integer():
        return int(x)
    raise InvalidInputError(f"expected an integer, got {x!r}")


def _fraction_from_json(pair) -> Fraction:
    """[numerator, denominator], each read by `_integer_from_json`."""
    if not isinstance(pair, list) or len(pair) != 2:
        raise InvalidInputError(f"expected an integer pair, got {pair!r}")
    return Fraction(*map(_integer_from_json, pair))


def _amplitude_from_json(data: dict) -> RadicalSum:
    sign = _integer_from_json(data["sign"])
    if sign not in (1, -1):
        raise InvalidInputError(f"amplitude sign must be +-1, got {sign}")
    coeff = _fraction_from_json(data["coeff"])
    amp = RadicalSum.sqrt(_fraction_from_json(data["radicand"]), sign * coeff)
    if amp.is_zero():
        raise InvalidInputError("zero amplitude in code file")
    return amp


def code_to_json(code: Code) -> dict:
    return {
        "d": code.d,
        "N": code.N,
        "eta": code.eta,
        "orbits": [
            {"representative": list(o.representative),
             "amplitude": _amplitude_to_json(o.amplitude)}
            for o in code.orbits
        ],
    }


def code_from_json(data: dict) -> Code:
    try:
        d, N = _integer_from_json(data["d"]), _integer_from_json(data["N"])
        orbits = tuple(
            OrbitAmplitude(
                check_occupation([_integer_from_json(x)
                                  for x in o["representative"]], d, N),
                _amplitude_from_json(o["amplitude"]))
            for o in data["orbits"]
        )
        return Code(d, N, _integer_from_json(data["eta"]), orbits)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"malformed code file: {exc}") from exc


def save_code(code: Code, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(code_to_json(code), fh, indent=2)
        fh.write("\n")


def load_code(path: str) -> Code:
    with open(path, encoding="utf-8") as fh:
        return code_from_json(json.load(fh))
