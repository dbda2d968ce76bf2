"""Knill-Laflamme verification at three levels of reduction.

Level "full" checks every ordered pair of error-basis elements against
every pair of code words: off-diagonal matrix elements must vanish and
diagonal ones must not depend on the code word.  Level "reduced" checks
the four sufficient conditions that Heisenberg-Weyl symmetry leaves over
(single dit flips from symbol 0, all double flips, and the last phase
difference alone and squared).  Level "qf" checks the three scalar
quadratic forms that suffice for sparse doubly permutation-invariant
codes.  All three levels evaluate their elements with one sparse Gram
engine, assembled per code from amplitude-free orbit-pair tables
(`PairTables`), and decide them by one rule, `_Gram.check`, so that each
level is a short list of `check` calls.  `flips_couple` finds on the same
tables, without evaluating an element, codes whose positive amplitudes
make them fail `kl_full`; `search` rejects on it before `kl_full`
decides.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import (AbstractSet, Dict, FrozenSet, Hashable, List, Optional,
                    Sequence, Tuple, Union)

from .arith import ExactComplex, InvalidInputError, RadicalSum
from .codes import Code, validate
from .combinatorics import (OccupationVector, basis_norm, cyclic_shift,
                            distinct_orbit_keys, expand_orbit)
from .config import Config, check_mode, check_scale
from .operators import ErrorOperator, OrbitImage, error_basis, orbit_image

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
        # `_Gram` hands out one value object per distinct sums vector plus
        # one zero, so each object is rendered once, keyed by its id (stable
        # while the report holds it).
        rendered: Dict[int, Tuple[float, float]] = {}

        def render(value: Amplitude) -> Tuple[float, float]:
            parts = rendered.get(id(value))
            if parts is None:
                z = value.to_complex() if isinstance(value, ExactComplex) else complex(value)
                parts = rendered[id(value)] = (z.real, z.imag)
            return parts

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


# The element <i|Ea Eb|j> of operators a, b out of n at dimension d has the
# key ((a*n + b)*d + i)*d + j: the left part a*n*d*d + i*d of image (a, i)
# plus the right part b*d*d + j of image (b, j).  An orbit index maps each
# occupation vector to the entries (left, right, re, im) of the orbit's
# images that hold it.
OrbitIndex = Dict[OccupationVector, List[Tuple[int, int, int, int]]]
# Element key -> [re, im] of sum_u <S_u|S_u> conj(a(u)) b(u) over the
# vectors u shared by the images of one ordered orbit pair.
PairTable = Dict[int, List[int]]


class PairTables:
    """The amplitude-free part of every Gram matrix over one operator list.

    An element is sum_{o,p} alpha_o alpha_p sums_op, where the Gaussian
    integers sums_op come from the images of orbits o and p alone.  So each
    orbit's images are built once (its index), and each ordered orbit
    pair's sums once (its pair table), whatever the amplitudes and
    whichever code the orbits sit in.  A pair table records an element key
    whenever the two images share a vector, even when the sum is 0, so a key
    absent from every table of a code is a structural zero.  Orbits are
    keyed by canonical representative and built from `orbit_image` on
    first use, unless `add_images` supplied them; `search` keeps one
    instance for the length of a call, every other caller one per check.
    Beside each table, `flips_couple` keeps its flip-coupling verdict.
    """

    def __init__(self, d: int, ops: Sequence[ErrorOperator]):
        self.d = d
        self.ops = list(ops)
        self.names = [op.name() for op in self.ops]
        self._indexes: Dict[Hashable, OrbitIndex] = {}
        self._tables: Dict[Tuple[Hashable, Hashable], PairTable] = {}
        self._couples: Dict[Tuple[Hashable, Hashable], bool] = {}

    def add_images(self, key: Hashable,
                   images: Sequence[Sequence[OrbitImage]]) -> None:
        """Index `images[a][i]`, operator a applied to the orbit's members
        in code word i, under `key`."""
        d, n = self.d, len(self.ops)
        index: OrbitIndex = defaultdict(list)
        for a, op_images in enumerate(images):
            for i, image in enumerate(op_images):
                left, right = (a * n * d + i) * d, a * d * d + i
                for u, (re, im) in image.items():
                    index[u].append((left, right, re, im))
        self._indexes[key] = dict(index)

    def _index(self, rep: OccupationVector) -> OrbitIndex:
        if rep not in self._indexes:
            words = [[cyclic_shift(m, i) for m in expand_orbit(rep)]
                     for i in range(self.d)]
            self.add_images(rep, [[orbit_image(op, word) for word in words]
                                  for op in self.ops])
        return self._indexes[rep]

    def pair(self, o: Hashable, p: Hashable) -> PairTable:
        """The pair table of orbit o on the left (conjugated) and p on the
        right."""
        table = self._tables.get((o, p))
        if table is None:
            table = self._tables[(o, p)] = _join(self._index(o),
                                                 self._index(p))
        return table

    def flips_couple(self, o: Hashable, p: Hashable) -> bool:
        """Whether the pair table of (o, p) holds an off-diagonal cell
        (i != j) for two operators from {I, S(j,k)}; each table is scanned
        once, whichever codes share it."""
        verdict = self._couples.get((o, p))
        if verdict is None:
            d, flips = self.d, self._flip_pairs
            verdict = self._couples[(o, p)] = any(
                key // (d * d) in flips and key // d % d != key % d
                for key in self.pair(o, p))
        return verdict

    @cached_property
    def name_pairs(self) -> List[Tuple[str, str]]:
        """(name of a, name of b) for every ordered operator pair, in the
        order a*len(ops) + b."""
        return [(e, f) for e in self.names for f in self.names]

    @cached_property
    def _flip_pairs(self) -> frozenset:
        """a * len(ops) + b for every two operators a, b from {I, S(j,k)}."""
        n = len(self.ops)
        flips = [a for a, op in enumerate(self.ops) if op.kind in ("I", "S")]
        return frozenset(a * n + b for a in flips for b in flips)


def flips_couple(code: Code, tables: PairTables) -> bool:
    """Whether one of the code's ordered orbit-pair tables holds an
    off-diagonal cell (i != j) for two operators from {I, S(j,k)}.

    Then `code` fails `kl_full` when its amplitudes are positive, as every
    solved code's are: `generator_action` gives I and S positive integer
    coefficients, so every term of that element <i|Ea Eb|j> is positive and
    it cannot vanish.  `tables` must hold `error_basis(code.d)`.  On an
    effectively sparse support such a cell exists exactly when two members
    meet at the {+2, -2} pattern under a relabeling
    (`combinatorics.is_effectively_sparse`).  Each of the k*k tables gives
    its verdict from `PairTables.flips_couple`, which scans it only once.
    """
    keys = distinct_orbit_keys(code.support_representatives(), "code")
    return any(tables.flips_couple(ko, kp) for _, ko, kp in _orbit_pairs(keys))


def _join(left: OrbitIndex, right: OrbitIndex) -> PairTable:
    """sum_u <S_u|S_u> conj(a(u)) b(u) per element key, over the vectors u
    the two orbits' images share."""
    table: PairTable = {}
    for u in left.keys() & right.keys():
        norm = basis_norm(u)
        others = right[u]
        for lkey, _, ra, ia in left[u]:
            ra *= norm
            ia *= norm
            for _, rkey, rb, ib in others:
                re, im = ra * rb + ia * ib, ra * ib - ia * rb
                acc = table.get(lkey + rkey)
                if acc is None:
                    table[lkey + rkey] = [re, im]
                else:
                    acc[0] += re
                    acc[1] += im
    return table


def _radicals(code: Code) -> Tuple[int, List[Tuple[int, List[int]]]]:
    """The products alpha_o alpha_p of the code's amplitudes (index o*k + p)
    regrouped by radicand: a common denominator D and, per radicand r in
    increasing order, the integer numerators of their sqrt(r) coefficients
    over D.  Distinct square-free radicands are linearly independent over
    Q, so an integer combination of the products is zero exactly when its
    dot product with every radicand's numerators is."""
    alphas = [entry.amplitude.terms for entry in code.orbits]
    root = math.lcm(*(c.denominator for terms in alphas
                      for c in terms.values()))
    scaled = [[(r, c.numerator * (root // c.denominator))
               for r, c in terms.items()] for terms in alphas]
    k = len(scaled)
    numerators: Dict[int, List[int]] = {}
    for o, left in enumerate(scaled):
        for p, right in enumerate(scaled):
            for r1, c1 in left:
                for r2, c2 in right:
                    # sqrt(r1)*sqrt(r2) = g*sqrt((r1/g)*(r2/g)), g = gcd.
                    g = math.gcd(r1, r2)
                    r = (r1 // g) * (r2 // g)
                    row = numerators.get(r)
                    if row is None:
                        row = numerators[r] = [0] * (k * k)
                    row[o * k + p] += c1 * c2 * g
    return root * root, sorted((r, row) for r, row in numerators.items()
                               if any(row))


def _orbit_pairs(keys: Sequence[Hashable]
                 ) -> List[Tuple[int, Hashable, Hashable]]:
    """(o*k + p, keys[o], keys[p]) for every ordered orbit pair."""
    k = len(keys)
    return [(o * k + p, ko, kp) for o, ko in enumerate(keys)
            for p, kp in enumerate(keys)]


class _Gram:
    """Every <Ea i|Eb j> of one code, assembled from its pair tables.

    The k*k pair tables of the code's orbits give, per element key, the
    flat vector sums[o][p] = (re, im) of Gaussian integers; an element is
    then sum_{o,p} alpha_o alpha_p sums[o][p], so radicals enter once per
    distinct sums vector, and a key in no table is a structural zero that
    never reaches the arithmetic.  Elements share few sums vectors, so each
    distinct one is evaluated (and decided zero or not) once per code.
    Its projection onto the radicand rows of `_radicals`, a tuple of
    integers, fixes the value exactly (distinct square-free radicands are
    independent over Q): two elements are equal exactly when their
    projections, their value classes, are, and the value itself is built
    once per class and only when a report holds it (in float mode, also
    when the tolerance needs it).
    """

    def __init__(self, code: Code, level: str, mode: str, tolerance: float,
                 tables: PairTables):
        keys = distinct_orbit_keys(code.support_representatives(), "code")
        check_mode(mode, tolerance)
        d = self.d = tables.d
        self.n = len(tables.ops)
        self.tables = tables
        self.names = tables.names
        self.report = KLReport(level, mode, tolerance)
        self.float_mode = mode == "float"
        self.zero: Amplitude = complex(0.0) if self.float_mode else ExactComplex.ZERO
        self.denominator, self.radicals = _radicals(code)
        # The class of zero, that of every structural zero.
        self._zero_class = (0,) * (2 * len(self.radicals))

        size = 2 * len(keys) ** 2
        sums: Dict[int, List[int]] = {}
        for slot, ko, kp in _orbit_pairs(keys):
            for key, (re, im) in tables.pair(ko, kp).items():
                acc = sums.get(key)
                if acc is None:
                    acc = sums[key] = [0] * size
                acc[2 * slot] = re
                acc[2 * slot + 1] = im
        # Per operator pair a*n + b, each cell i*d + j that some image pair
        # shares -> the id of its sums vector; `_classes[id]` is (value
        # class, is zero) once evaluated, and `_values` maps a class to its
        # value.  A cell absent from its pair's dict is a structural zero,
        # and a pair absent from `cells` has no shared cell at all.
        ids: Dict[tuple, int] = {}
        self.cells: Dict[int, Dict[int, int]] = {}
        for key, acc in sums.items():
            pair, cell = divmod(key, d * d)
            self.cells.setdefault(pair, {})[cell] = ids.setdefault(tuple(acc),
                                                                   len(ids))
        self._sums = list(ids)
        self._classes: List[Optional[Tuple[tuple, bool]]] = [None] * len(ids)
        self._values: Dict[tuple, Amplitude] = {self._zero_class: self.zero}

    def _project(self, sums: Sequence[int]) -> Tuple[int, ...]:
        """The dot product of `sums` with each radicand's numerators: the
        real or imaginary part of an element, sum_n alpha_o alpha_p *
        sums[n] over the products n = (o, p), times the denominator."""
        return tuple(sum(map(operator.mul, numerators, sums))
                     for _, numerators in self.radicals)

    def _combine(self, totals: Sequence[int]) -> RadicalSum:
        return RadicalSum({r: Fraction(total, self.denominator)
                           for (r, _), total in zip(self.radicals, totals)
                           if total})

    def _class(self, sid: int) -> Tuple[tuple, bool]:
        """(value class, is zero) of the elements with sums id `sid`."""
        known = self._classes[sid]
        if known is None:
            sums = self._sums[sid]
            key = self._project(sums[0::2]) + self._project(sums[1::2])
            zero = (abs(self._value(key)) <= self.report.tolerance
                    if self.float_mode else not any(key))
            known = self._classes[sid] = (key, zero)
        return known

    def _value(self, key: tuple) -> Amplitude:
        """The value of class `key`.  Every basis element is Hermitian, so
        <i|Ea Eb|j> is (Ea|i>, Eb|j>)."""
        value = self._values.get(key)
        if value is None:
            half = len(self.radicals)
            value = ExactComplex(self._combine(key[:half]),
                                 self._combine(key[half:]))
            if self.float_mode:
                value = value.to_complex()
            self._values[key] = value
        return value

    def check(self, a: int, b: int, cells: AbstractSet[int], ref: int = 0,
              vanish: bool = False) -> None:
        """The one KL rule every level applies to an operator pair, given
        by indices into the operator list.

        <ref|Ea Eb|ref> (ref a flat cell i*d + j) is recorded as the
        pair's constant, which must be zero when `vanish` is set; then each
        flat cell i*d + j in `cells` must vanish off the diagonal and equal
        the constant on it.  Only the cells the pair's images share are
        visited; the rest are structural zeros.
        """
        name = (self.names[a], self.names[b])
        d = self.d
        report = self.report
        report.checked_elements += 1 + len(cells)
        ids = self.cells.get(a * self.n + b)
        if ids is None:
            # No image pair shares a vector: every element is a structural
            # zero, so the constant is 0 and nothing is violated.
            report.structural_zeros += 1 + len(cells)
            report.constants[name] = self.zero
            return
        cid = ids.get(ref)
        if cid is None:
            report.structural_zeros += 1
            ckey, constant_zero = self._zero_class, True
        else:
            ckey, constant_zero = self._class(cid)
            report.arithmetic_zeros += constant_zero
        constant = report.constants[name] = self._value(ckey)
        if vanish and not constant_zero:
            report.violations.append(Violation(*name, *divmod(ref, d),
                                               constant))
        classes, float_mode = self._classes, self.float_mode
        visited = zeros = 0
        for cell, sid in ids.items():
            if cell not in cells:
                continue
            visited += 1
            key, zero = classes[sid] or self._class(sid)
            zeros += zero
            # cell % (d + 1) is 0 exactly on the diagonal i == j, where the
            # element must equal the constant: exactly when the classes
            # are equal, or in float mode within the tolerance.
            if cell % (d + 1):
                if zero:
                    continue
            elif key == ckey or (float_mode and abs(
                    self._value(key) - constant) <= report.tolerance):
                continue
            report.violations.append(Violation(*name, *divmod(cell, d),
                                               self._value(key)))
        report.arithmetic_zeros += zeros
        report.structural_zeros += len(cells) - visited
        if not constant_zero:
            # A diagonal structural zero is zero whatever the amplitudes,
            # so it violates a nonzero constant.
            for i in range(d):
                cell = i * (d + 1)
                if cell in cells and cell not in ids:
                    report.violations.append(Violation(*name, i, i,
                                                       self.zero))

    def check_all_pairs(self) -> KLReport:
        """`check` of every cell but (0, 0) over all ordered operator
        pairs.  A pair absent from `cells` is booked at once: its constant
        is 0 and its d*d elements are structural zeros."""
        report = self.report
        report.constants = dict.fromkeys(self.tables.name_pairs, self.zero)
        absent = (self.n ** 2 - len(self.cells)) * self.d ** 2
        report.checked_elements += absent
        report.structural_zeros += absent
        cells = _cells_but_origin(self.d)
        for pair in sorted(self.cells):
            self.check(*divmod(pair, self.n), cells)
        return report


def _cells_but_origin(d: int) -> FrozenSet[int]:
    return frozenset(range(1, d * d))


def kl_full(code: Code, mode: str = "exact",
            tolerance: float = Config.float_tolerance,
            max_d: int = Config.max_d, max_n: int = Config.max_n,
            *, _tables: Optional[PairTables] = None) -> KLReport:
    """All ordered pairs of error-basis elements over all code-word pairs.

    `_tables` is for `search`, which shares one `PairTables` of
    `error_basis(d)` over the codes it checks; by default the tables are
    built for this call alone.
    """
    check_scale(code.d, code.N, max_d, max_n)
    if _tables is None:
        _tables = PairTables(code.d, error_basis(code.d))
    return _Gram(code, "full", mode, tolerance, _tables).check_all_pairs()


def kl_reduced(code: Code, mode: str = "exact",
               tolerance: float = Config.float_tolerance,
               max_d: int = Config.max_d, max_n: int = Config.max_n) -> KLReport:
    """The four sufficient conditions left over by shift symmetry:
    single dit flips S(0,n) off-diagonal, all flip pairs, D(d-2), and
    D(l)D(d-2)."""
    check_scale(code.d, code.N, max_d, max_n)
    d = code.d
    basis = error_basis(d)
    index = {op: n for n, op in enumerate(basis)}
    gram = _Gram(code, "reduced", mode, tolerance, PairTables(d, basis))
    identity, last = index[ErrorOperator("I")], index[ErrorOperator("D", d - 2)]
    off_diagonal = frozenset(cell for cell in range(d * d) if cell % (d + 1))
    for n in range(1, (d - 1) // 2 + 1):
        gram.check(identity, index[ErrorOperator("S", 0, n)], off_diagonal)
    flips = [n for n, op in enumerate(basis) if op.kind in ("S", "A")]
    pairs = [(ea, eb) for ea in flips for eb in flips] + [(identity, last)] + \
        [(n, last) for n, op in enumerate(basis) if op.kind == "D"]
    cells = _cells_but_origin(d)
    for ea, eb in pairs:
        gram.check(ea, eb, cells)
    return gram.report


def qf_check(code: Code, mode: str = "exact",
             tolerance: float = Config.float_tolerance,
             max_d: int = Config.max_d, max_n: int = Config.max_n) -> KLReport:
    """The three scalar quadratic forms for sparse doubly
    permutation-invariant codes.  Refuses what `distinct_orbit_keys`
    refuses, as the other levels do, and codes that fail validation."""
    check_scale(code.d, code.N, max_d, max_n)
    distinct_orbit_keys(code.support_representatives(), "code")
    structure = validate(code)
    if not structure.passed:
        failed = [name for name, ok in structure.checks.items() if not ok]
        raise InvalidInputError(
            "quadratic-form check requires a normalized, weight-zero, "
            f"effectively sparse orbit-keyed code; failed checks: {failed}")
    d = code.d
    ops = (ErrorOperator("I"), ErrorOperator("D", d - 2), ErrorOperator("S", 0, 1))
    gram = _Gram(code, "qf", mode, tolerance, PairTables(d, ops))
    identity, last, flip = range(3)
    corner = d * d - 1  # the cell (d-1, d-1)
    gram.check(identity, last, frozenset(), ref=corner, vanish=True)
    gram.check(last, last, {corner})
    gram.check(flip, flip, {corner})
    return gram.report


LEVELS = {"full": kl_full, "reduced": kl_reduced, "qf": qf_check}


def run_level(code: Code, level: str, mode: str = "exact",
              tolerance: float = Config.float_tolerance,
              max_d: int = Config.max_d, max_n: int = Config.max_n) -> KLReport:
    if level not in LEVELS:
        raise InvalidInputError(f"unknown level {level!r}")
    return LEVELS[level](code, mode, tolerance, max_d, max_n)
