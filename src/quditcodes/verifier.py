"""Knill-Laflamme verification at three levels of reduction.

Level "full" checks every ordered pair of error-basis elements against
every pair of code words: off-diagonal matrix elements must vanish and
diagonal ones must not depend on the code word.  Level "reduced" checks
the four sufficient conditions that Heisenberg-Weyl symmetry leaves over
(single dit flips from symbol 0, all double flips, and the last phase
difference alone and squared).  Level "qf" checks the three scalar
quadratic forms that suffice for sparse doubly permutation-invariant
codes.  All three levels evaluate their elements with one sparse Gram
engine over Gaussian-integer slot vectors and decide them by one rule,
`_Gram.check`, so that each level is a short list of `check` calls.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .arith import ExactComplex, InvalidInputError, RadicalSum
from .codes import Code, codeword_orbits, validate
from .combinatorics import OccupationVector
from .config import Config, check_scale
from .operators import ErrorOperator, basis_norm, error_basis, generator_action

# Exact elements, or their complex values in float mode.
Amplitude = Union[ExactComplex, complex]


@dataclass(frozen=True)
class Violation:
    e: str
    f: str
    i: int
    j: int
    value: Amplitude


@dataclass
class KLReport:
    """Outcome of one verification level.

    Every evaluated element <i|Ea Eb|j> is counted in `checked_elements`.
    A zero is *structural* when the images Ea|i> and Eb|j> share no basis
    vector, counting only basis vectors whose coefficient is not zero as an
    integer combination of the orbit amplitudes; such an element is zero
    whatever the amplitudes are.  A zero is *arithmetic* when the images
    do share a basis vector and the terms cancel for this code's
    amplitudes (exactly in exact mode, within `tolerance` in float mode).
    """

    level: str
    mode: str
    tolerance: float
    constants: Dict[Tuple[str, str], Amplitude] = field(default_factory=dict)
    violations: List[Violation] = field(default_factory=list)
    checked_elements: int = 0
    structural_zeros: int = 0
    arithmetic_zeros: int = 0

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        def render(value: Amplitude) -> Tuple[float, float]:
            z = value.to_complex() if isinstance(value, ExactComplex) else complex(value)
            return z.real, z.imag

        constants = []
        for (e, f), value in sorted(self.constants.items()):
            re, im = render(value)
            constants.append({"e": e, "f": f, "re": re, "im": im})
        violations = []
        for v in sorted(self.violations, key=lambda v: (v.e, v.f, v.i, v.j)):
            re, im = render(v.value)
            violations.append({"e": v.e, "f": v.f, "i": v.i, "j": v.j,
                               "value": {"re": re, "im": im}})
        return {
            "level": self.level,
            "pass": self.passed,
            "mode": self.mode,
            "tolerance": self.tolerance,
            "checked_elements": self.checked_elements,
            "structural_zeros": self.structural_zeros,
            "arithmetic_zeros": self.arithmetic_zeros,
            "constants": constants,
            "violations": violations,
        }


# A slot vector holds one Gaussian integer (re, im) per orbit, flattened to
# (re_0, im_0, re_1, im_1, ...): the coefficient of a basis vector is
# sum_o (re_o + i*im_o) * alpha_o.
SlotVector = Tuple[int, ...]
# An operator applied to a code word: occupation vector -> slot vector.
SlotImage = Dict[OccupationVector, SlotVector]


def _slot_image(op: ErrorOperator, word: Dict[OccupationVector, int],
                width: int) -> SlotImage:
    """op applied to a code word given as occupation vector -> orbit index."""
    out: Dict[OccupationVector, List[int]] = {}
    for u, o in word.items():
        for v, re, im in generator_action(op, u):
            slots = out.get(v)
            if slots is None:
                slots = out[v] = [0] * width
            slots[2 * o] += re
            slots[2 * o + 1] += im
    return {v: tuple(z) for v, z in out.items() if any(z)}


class _Gram:
    """Every <Ea i|Eb j> over one set of operators, by an image-index join.

    Each operator is applied once to each code word.  An index from
    occupation vector to the image terms holding it gives, for every pair
    of images that share a key, the integer sums
    sum_u <S_u|S_u> conj(a_o(u)) b_p(u) per orbit pair (o, p).  An element
    is then sum_{o,p} alpha_o alpha_p sums[o][p], so radicals enter once
    per element whose images overlap; an image pair with no shared key is
    a structural zero and never reaches the arithmetic.
    """

    def __init__(self, code: Code, level: str, mode: str, tolerance: float,
                 ops: Sequence[ErrorOperator],
                 images: Optional[Mapping[ErrorOperator,
                                          Sequence[SlotImage]]] = None):
        """`images[op][i]` is op applied to code word i, with no zero slot
        vectors; when left out, the images come from `generator_action`."""
        self.d = code.d
        self.report = KLReport(level, mode, tolerance)
        self.float_mode = mode == "float"
        self.zero: Amplitude = complex(0.0) if self.float_mode else ExactComplex.ZERO
        alphas = [entry.amplitude for entry in code.orbits]
        k = len(alphas)
        products = [a * b for a in alphas for b in alphas]
        # The products regrouped by radicand r: the integer numerators of
        # their sqrt(r) coefficients over one common denominator, so that
        # `_combine` is one integer dot product per radicand.
        self.denominator = math.lcm(*(c.denominator for p in products
                                      for c in p.terms.values()))
        self.radicals = [
            (r, [int(p.terms.get(r, 0) * self.denominator) for p in products])
            for r in sorted({r for p in products for r in p.terms})]
        if images is None:
            words = [codeword_orbits(code, i) for i in range(code.d)]
        self.op_index = {op: n for n, op in enumerate(ops)}

        index: Dict[OccupationVector, list] = defaultdict(list)
        for n, op in enumerate(ops):
            op_images = images[op] if images is not None else (
                _slot_image(op, word, 2 * k) for word in words)
            for i, image in enumerate(op_images):
                for u, z in image.items():
                    index[u].append(((n, i), z))
        self.sums: Dict[tuple, List[int]] = {}
        for u, entries in index.items():
            norm = basis_norm(u)
            for a, za in entries:
                for b, zb in entries:
                    acc = self.sums.get((a, b))
                    if acc is None:
                        acc = self.sums[(a, b)] = [0] * (2 * k * k)
                    _accumulate(acc, za, zb, norm, k)
        # Operator pairs with at least one image pair sharing a key.
        self.overlapping = {(a[0], b[0]) for a, b in self.sums}

    def _combine(self, sums: List[int]) -> RadicalSum:
        """sum_n alpha_o alpha_p * sums[n] over the products n = (o, p),
        exactly: the real or imaginary part of an element."""
        terms = {}
        for r, numerators in self.radicals:
            total = sum(map(operator.mul, numerators, sums))
            if total:
                terms[r] = Fraction(total, self.denominator)
        return RadicalSum(terms)

    def is_zero(self, value: Amplitude) -> bool:
        if isinstance(value, ExactComplex):
            return value.is_zero()
        return abs(value) <= self.report.tolerance

    def _element(self, a: int, b: int, i: int, j: int) -> Amplitude:
        """<i|Ea Eb|j> for the operators with indices a and b.  Every basis
        element is Hermitian, so this is (Ea|i>, Eb|j>)."""
        self.report.checked_elements += 1
        sums = self.sums.get(((a, i), (b, j)))
        if sums is None:
            self.report.structural_zeros += 1
            return self.zero
        value = ExactComplex(self._combine(sums[0::2]),
                             self._combine(sums[1::2]))
        if self.float_mode:
            value = value.to_complex()
        if self.is_zero(value):
            self.report.arithmetic_zeros += 1
        return value

    def check(self, ea: ErrorOperator, eb: ErrorOperator,
              cells: Sequence[Tuple[int, int]], ref: Tuple[int, int] = (0, 0),
              vanish: bool = False) -> None:
        """The one KL rule every level applies to an operator pair.

        <ref|Ea Eb|ref> is recorded as the pair's constant, which must be
        zero when `vanish` is set; then each cell (i, j) must vanish off the
        diagonal and equal the constant on it.
        """
        name = (ea.name(), eb.name())
        a, b = self.op_index[ea], self.op_index[eb]
        if (a, b) not in self.overlapping:
            # Every element is a structural zero: constant 0, no violation.
            self.report.checked_elements += 1 + len(cells)
            self.report.structural_zeros += 1 + len(cells)
            self.report.constants[name] = self.zero
            return
        constant = self.report.constants[name] = self._element(a, b, *ref)
        if vanish and not self.is_zero(constant):
            self.report.violations.append(Violation(*name, *ref, constant))
        for i, j in cells:
            value = self._element(a, b, i, j)
            if not self.is_zero(value - constant if i == j else value):
                self.report.violations.append(Violation(*name, i, j, value))

    def check_all_pairs(self) -> KLReport:
        """`check` of every cell but (0, 0) over all ordered operator pairs."""
        cells = _cells_but_origin(self.d)
        for ea in self.op_index:
            for eb in self.op_index:
                self.check(ea, eb, cells)
        return self.report


def _cells_but_origin(d: int) -> List[Tuple[int, int]]:
    return [(i, j) for i in range(d) for j in range(d) if i or j]


def _accumulate(acc: List[int], za: SlotVector, zb: SlotVector, norm: int,
                k: int) -> None:
    """acc[o][p] += norm * conj(za[o]) * zb[p], as flat (re, im) pairs."""
    for o in range(k):
        ra, ia = za[2 * o], za[2 * o + 1]
        if not (ra or ia):
            continue
        n = 2 * k * o
        for p in range(k):
            rb, ib = zb[2 * p], zb[2 * p + 1]
            if rb or ib:
                acc[n + 2 * p] += norm * (ra * rb + ia * ib)
                acc[n + 2 * p + 1] += norm * (ra * ib - ia * rb)


def kl_full(code: Code, mode: str = "exact",
            tolerance: float = Config.float_tolerance,
            max_d: int = Config.max_d, max_n: int = Config.max_n) -> KLReport:
    """All ordered pairs of error-basis elements over all code-word pairs."""
    check_scale(code.d, code.N, max_d, max_n)
    return _Gram(code, "full", mode, tolerance,
                 error_basis(code.d)).check_all_pairs()


def kl_reduced(code: Code, mode: str = "exact",
               tolerance: float = Config.float_tolerance,
               max_d: int = Config.max_d, max_n: int = Config.max_n) -> KLReport:
    """The four sufficient conditions left over by shift symmetry:
    single dit flips S(0,n) off-diagonal, all flip pairs, D(d-2), and
    D(l)D(d-2)."""
    check_scale(code.d, code.N, max_d, max_n)
    d = code.d
    gram = _Gram(code, "reduced", mode, tolerance, error_basis(d))
    identity, last = ErrorOperator("I"), ErrorOperator("D", d - 2)
    off_diagonal = [(i, j) for i in range(d) for j in range(d) if i != j]
    for n in range(1, (d - 1) // 2 + 1):
        gram.check(identity, ErrorOperator("S", 0, n), off_diagonal)
    flips = [ErrorOperator(kind, p, q)
             for kind in ("S", "A") for p in range(d) for q in range(p + 1, d)]
    pairs = [(ea, eb) for ea in flips for eb in flips] + [(identity, last)] + \
        [(ErrorOperator("D", l), last) for l in range(d - 1)]
    cells = _cells_but_origin(d)
    for ea, eb in pairs:
        gram.check(ea, eb, cells)
    return gram.report


def qf_check(code: Code, mode: str = "exact",
             tolerance: float = Config.float_tolerance,
             max_d: int = Config.max_d, max_n: int = Config.max_n) -> KLReport:
    """The three scalar quadratic forms for sparse doubly
    permutation-invariant codes; refuses codes that fail validation."""
    check_scale(code.d, code.N, max_d, max_n)
    structure = validate(code)
    if not structure.passed:
        failed = [name for name, ok in structure.checks.items() if not ok]
        raise InvalidInputError(
            "quadratic-form check requires a normalized, weight-zero, "
            f"effectively sparse orbit-keyed code; failed checks: {failed}")
    d = code.d
    identity, last = ErrorOperator("I"), ErrorOperator("D", d - 2)
    flip = ErrorOperator("S", 0, 1)
    gram = _Gram(code, "qf", mode, tolerance, (identity, last, flip))
    corner = (d - 1, d - 1)
    gram.check(identity, last, [], ref=corner, vanish=True)
    gram.check(last, last, [corner])
    gram.check(flip, flip, [corner])
    return gram.report


LEVELS = {"full": kl_full, "reduced": kl_reduced, "qf": qf_check}


def run_level(code: Code, level: str, mode: str = "exact",
              tolerance: float = Config.float_tolerance,
              max_d: int = Config.max_d, max_n: int = Config.max_n) -> KLReport:
    if level not in LEVELS:
        raise InvalidInputError(f"unknown level {level!r}")
    return LEVELS[level](code, mode, tolerance, max_d, max_n)
