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
level is a short list of `check` calls.  The tables hold only operator
pairs a <= b, and an element is one packed integer, its value class: the
Gram matrix is Hermitian, so each check of a < b books the mirror (b, a)
from the conjugate classes.  `flips_couple` finds on the same tables,
without evaluating an element, codes whose positive amplitudes make them
fail `kl_full`; `search` rejects on it before `kl_full` decides.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import chain, combinations_with_replacement
from typing import (AbstractSet, Dict, FrozenSet, Hashable, List, Optional,
                    Sequence, Tuple, Union)

from .arith import ExactComplex, InvalidInputError, RadicalSum
from .codes import Code, validate
from .combinatorics import (OccupationVector, basis_norm, distinct_orbit_keys,
                            expand_orbit)
from .config import Config, check_mode, check_scale
from .operators import ErrorOperator, OrbitImage, error_basis

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
    The element <j|Eb Ea|i> is the conjugate of <i|Ea Eb|j>, so the
    engine decides one of the two and books the other as its mirror; both
    are counted, and each keeps its own constant and violations.
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
        # `_Gram` hands out one value object per value class (0 being the
        # zero), so each object is rendered once, keyed by its id (stable
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
# occupation vector to the entries (left, right, a*d*d, re, im) of the
# orbit's images that hold it: a right part of operator b is at least
# a*d*d exactly when b >= a.
OrbitIndex = Dict[OccupationVector, List[Tuple[int, int, int, int, int]]]
# One ordered orbit pair's sums over the operator pairs a <= b: the largest
# |re| or |im| of its entries, whether flips couple two code words in it
# (`flips_couple`), and per operator pair a*n + b the entries (cell i*d + j,
# re, im), each re + i*im the sum_u <S_u|S_u> conj(a(u)) b(u) over the
# vectors u the two images share.
PairTable = Tuple[int, bool, Dict[int, List[Tuple[int, int, int]]]]


class PairTables:
    """The amplitude-free part of every Gram matrix over one operator list.

    An element is sum_{o,p} alpha_o alpha_p sums_op, where the Gaussian
    integers sums_op come from the images of orbits o and p alone.  So each
    orbit's images are built once (its index), and each ordered orbit
    pair's sums once (its pair table), whatever the amplitudes and
    whichever code the orbits sit in.  A pair table holds only the keys of
    operator pairs a <= b: the (p, o) entry of (b, a) at cell (j, i) is the
    conjugate of the (o, p) entry of (a, b) at (i, j), so `_Gram` books
    every b > a as a mirror.  It records an element key whenever the two
    images share a vector, even when the sum is 0, so a key absent from
    every table of a code is a structural zero.  Orbits are keyed by
    canonical representative.  Each orbit's index is built on first use
    by `_index`, in one sweep per code word over the orbit's members for
    the whole operator list, unless `add_images` supplied it; `search`
    keeps one instance for the length of a call, every other caller one
    per check.  A table is built once, in the layout `_Gram` reads, with
    its bound and the flip-coupling verdict `flips_couple` reads.
    """

    def __init__(self, d: int, ops: Sequence[ErrorOperator]):
        self.d = d
        self.ops = list(ops)
        self.names = [op.name() for op in self.ops]
        self._indexes: Dict[Hashable, OrbitIndex] = {}
        self._tables: Dict[Tuple[Hashable, Hashable], PairTable] = {}

    def add_images(self, key: Hashable,
                   images: Sequence[Sequence[OrbitImage]]) -> None:
        """Index `images[a][i]`, operator a applied to the orbit's members
        in code word i, under `key`."""
        d, n = self.d, len(self.ops)
        index: OrbitIndex = defaultdict(list)
        for a, op_images in enumerate(images):
            floor = a * d * d
            for i, image in enumerate(op_images):
                left, right = (a * n * d + i) * d, floor + i
                for u, (re, im) in image.items():
                    index[u].append((left, right, floor, re, im))
        self._indexes[key] = dict(index)

    def _index(self, rep: OccupationVector) -> OrbitIndex:
        """The index of the orbit of `rep`: what `add_images` builds from
        `orbit_image(op, word)` for each operator and code word, entry for
        entry and in the same order, built in one sweep per code word.

        The sweep restates the action formulas of the `operators` module
        docstring.  I and D(l) act on the member itself, D(l) with the
        coefficient u_l - u_{l+1}, and a zero coefficient is dropped.  For
        each pair (j, k) that S or A is taken over, each member makes one
        bump per direction, and per target v it sums the gain-at-j part g
        (each u_j + 1) and the gain-at-k part h (each u_k + 1).  S(j, k)
        is then (g + h, 0) and A(j, k) is (0, h - g), dropped when h == g.
        Any other kind acts as A does, as in `generator_action`.
        """
        if rep in self._indexes:
            return self._indexes[rep]
        d, n = self.d, len(self.ops)
        # Word i's members, cyclic_shift(u, i) for each member u.
        words = [[u[d - i:] + u[:d - i] for u in expand_orbit(rep)]
                 for i in range(d)]
        pairs = list(dict.fromkeys((op.j, op.k) for op in self.ops
                                   if op.kind not in ("I", "D")))
        # moved[(j, k)][i]: target v -> [g, h] over word i, each v in the
        # order `orbit_image` first meets it.
        moved = {pair: [] for pair in pairs}
        for word in words:
            sums = [{} for _ in pairs]
            for u in word:
                w = list(u)
                for (j, k), targets in zip(pairs, sums):
                    if u[k]:   # gains at j, loses at k
                        w[j] += 1
                        w[k] -= 1
                        v = tuple(w)
                        w[j] -= 1
                        w[k] += 1
                        z = targets.get(v)
                        if z is None:
                            targets[v] = [u[j] + 1, 0]
                        else:
                            z[0] += u[j] + 1
                    if u[j]:   # gains at k, loses at j
                        w[k] += 1
                        w[j] -= 1
                        v = tuple(w)
                        w[k] -= 1
                        w[j] += 1
                        z = targets.get(v)
                        if z is None:
                            targets[v] = [0, u[k] + 1]
                        else:
                            z[1] += u[k] + 1
            for pair, targets in zip(pairs, sums):
                moved[pair].append(targets)
        index: OrbitIndex = defaultdict(list)
        for a, op in enumerate(self.ops):
            floor = a * d * d
            for i, word in enumerate(words):
                left, right = (a * n * d + i) * d, floor + i
                if op.kind == "I":
                    for u in word:
                        index[u].append((left, right, floor, 1, 0))
                elif op.kind == "D":
                    l = op.j
                    for u in word:
                        c = u[l] - u[l + 1]
                        if c:
                            index[u].append((left, right, floor, c, 0))
                elif op.kind == "S":
                    for v, (g, h) in moved[op.j, op.k][i].items():
                        index[v].append((left, right, floor, g + h, 0))
                else:
                    for v, (g, h) in moved[op.j, op.k][i].items():
                        if h != g:
                            index[v].append((left, right, floor, 0, h - g))
        self._indexes[rep] = dict(index)
        return self._indexes[rep]

    def pair(self, o: Hashable, p: Hashable) -> PairTable:
        """The pair table of orbit o on the left (conjugated) and p on the
        right, over the operator pairs a <= b."""
        table = self._tables.get((o, p))
        if table is None:
            table = self._tables[(o, p)] = _join(
                self._index(o), self._index(p), self.d, self._flip_pairs)
        return table

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
    """Whether the code's amplitudes are positive and one of its ordered
    orbit-pair tables holds an off-diagonal cell (i != j) for two
    operators from {I, S(j,k)}.

    Then `code` fails `kl_full`: `generator_action` gives I and S positive
    integer coefficients, so every term of that element <i|Ea Eb|j> is
    positive and it cannot vanish.  Every solved code's amplitudes are
    positive; a code with a zero amplitude or a term coefficient that is
    not positive gets False, no verdict, and `kl_full` decides it.
    `tables` must hold `error_basis(code.d)`.  On an effectively sparse
    support such a cell exists exactly when two members meet at the {+2,
    -2} pattern under a relabeling (`combinatorics.is_effectively_sparse`).
    Each of the k*k tables carries its verdict, so a table shared by many
    codes is scanned once.  A table holds only a <= b, but a cell of (a, b)
    with a > b sits at (j, i) of (b, a) in the table of (p, o), so the
    code's verdict is that of every ordered operator pair.
    """
    keys = distinct_orbit_keys(code.support_representatives(), "code")
    if any(min(entry.amplitude.terms.values(), default=0) <= 0
           for entry in code.orbits):
        return False
    return any(tables.pair(ko, kp)[1] for _, ko, kp in _orbit_pairs(keys))


def _join(left: OrbitIndex, right: OrbitIndex, d: int,
          flips: AbstractSet[int]) -> PairTable:
    """sum_u <S_u|S_u> conj(a(u)) b(u) per element key with a <= b, over
    the vectors u the two orbits' images share, grouped by operator pair;
    with the bound on the sums and whether an operator pair in `flips`
    holds an off-diagonal cell."""
    sums: Dict[int, List[int]] = {}
    for u in left.keys() & right.keys():
        norm = basis_norm(u)
        others = right[u]
        for lkey, _, floor, ra, ia in left[u]:
            ra *= norm
            ia *= norm
            for _, rkey, _, rb, ib in others:
                if rkey < floor:
                    continue
                re, im = ra * rb + ia * ib, ra * ib - ia * rb
                acc = sums.get(lkey + rkey)
                if acc is None:
                    sums[lkey + rkey] = [re, im]
                else:
                    acc[0] += re
                    acc[1] += im
    pairs: Dict[int, List[Tuple[int, int, int]]] = {}
    for key, (re, im) in sums.items():
        pair, cell = divmod(key, d * d)
        entries = pairs.get(pair)
        if entries is None:
            pairs[pair] = [(cell, re, im)]
        else:
            entries.append((cell, re, im))
    bound = max(map(abs, chain.from_iterable(sums.values())), default=0)
    # cell % (d + 1) is 0 exactly on the diagonal i == j.
    couples = any(cell % (d + 1) for pair, entries in pairs.items()
                  if pair in flips for cell, _, _ in entries)
    return bound, couples, pairs


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
    """Every <Ea i|Eb j> of one code with a <= b, assembled from its pair
    tables as one packed integer per element, its value class.

    By `_radicals`, an element sum_{o,p} alpha_o alpha_p sums_op has real
    and imaginary parts sum_r R_r sqrt(r) / D and sum_r I_r sqrt(r) / D
    with integers R_r and I_r.  The class packs each R_r, then each I_r,
    into a signed field sized from a bound on the code's table entries, so
    no field carries into the next and the packing is one to one.  Distinct
    square-free radicands are independent over Q, so an element is zero
    exactly when its class is 0, and two elements are equal exactly when
    their classes are.  A key in no table is a structural zero that never
    reaches the arithmetic.  A class is decoded into its value once, and
    only when a report holds it (in float mode, also when the tolerance
    needs it).  Every basis element is Hermitian and every amplitude real,
    so <j|Eb Ea|i> is the conjugate of <i|Ea Eb|j>: a check of a < b can
    book (b, a) as well, from the conjugate classes.
    """

    def __init__(self, code: Code, level: str, mode: str, tolerance: float,
                 tables: PairTables):
        keys = distinct_orbit_keys(code.support_representatives(), "code")
        check_mode(mode, tolerance)
        self.d = tables.d
        self.n = len(tables.ops)
        self.name_pairs = tables.name_pairs
        self.report = KLReport(level, mode, tolerance)
        self.float_mode = mode == "float"
        self.zero: Amplitude = complex(0.0) if self.float_mode else ExactComplex.ZERO

        slots = [(slot, tables.pair(ko, kp))
                 for slot, ko, kp in _orbit_pairs(keys)]
        bound = max(table[0] for _, table in slots)
        self.denominator, radicals = _radicals(code)
        self.radicands = [r for r, _ in radicals]
        # An entry (re, im) of slot (o, p) adds re * weight + im * (weight
        # << span), where weight holds the slot's numerators, each shifted
        # to its radicand's field.  |R_r| and |I_r| are at most bound * sum
        # |numerators of r|; a field of width w holds -2**(w-1) ..
        # 2**(w-1) - 1.
        self.widths = [(bound * sum(map(abs, row))).bit_length() + 1
                       for _, row in radicals]
        self.span = sum(self.widths)
        weights = [0] * len(slots)
        shift = 0
        for (_, row), width in zip(radicals, self.widths):
            for slot, numerator in enumerate(row):
                weights[slot] += numerator << shift
            shift += width
        # Per operator pair a*n + b (a <= b), each cell i*d + j that some
        # image pair shares -> its class.  A cell absent from its pair's
        # dict is a structural zero, and a pair absent from `cells` has no
        # shared cell at all.
        self.cells: Dict[int, Dict[int, int]] = {}
        for slot, (_, _, pairs) in slots:
            wr = weights[slot]
            wi = wr << self.span
            for pair, entries in pairs.items():
                classes = self.cells.get(pair)
                if classes is None:
                    self.cells[pair] = {cell: re * wr + im * wi
                                        for cell, re, im in entries}
                else:
                    get = classes.get
                    for cell, re, im in entries:
                        classes[cell] = get(cell, 0) + re * wr + im * wi
        # Class -> value.  The class of zero, 0, is that of every
        # structural zero.
        self._values: Dict[int, Amplitude] = {0: self.zero}

    def _value(self, cls: int) -> Amplitude:
        """The value of class `cls`: its fields, low to high, are R_r and
        then I_r per radicand r.  Every basis element is Hermitian, so
        <i|Ea Eb|j> is (Ea|i>, Eb|j>)."""
        value = self._values.get(cls)
        if value is None:
            parts = []
            rest = cls
            for _ in range(2):
                terms = {}
                for r, width in zip(self.radicands, self.widths):
                    half = 1 << (width - 1)
                    total = (rest + half) % (half << 1) - half
                    rest = (rest - total) >> width
                    if total:
                        terms[r] = Fraction(total, self.denominator)
                parts.append(RadicalSum(terms))
            value = ExactComplex(*parts)
            if self.float_mode:
                value = value.to_complex()
            self._values[cls] = value
        return value

    def _conjugate(self, cls: int) -> int:
        """The class of the conjugate value: the real fields, low, are
        kept and the imaginary ones, high, negated."""
        if not cls:
            return cls   # also when no radicand survives, and span is 0
        half = 1 << (self.span - 1)
        low = (cls + half) % (half << 1) - half
        return 2 * low - cls

    def check(self, a: int, b: int, cells: AbstractSet[int], ref: int = 0,
              vanish: bool = False, mirror: bool = False) -> None:
        """The one KL rule every level applies to an operator pair, given
        by indices a <= b into the operator list.

        <ref|Ea Eb|ref> (ref a flat cell i*d + j) is recorded as the
        pair's constant, which must be zero when `vanish` is set; then each
        flat cell i*d + j in `cells` must vanish off the diagonal and equal
        the constant on it.  Only the cells the pair's images share are
        visited; the rest are structural zeros.  With `mirror` set and
        a < b, the pair (b, a) over the transposed cells is booked too:
        the same counts, the conjugate constant, and each violation at
        (j, i) with the conjugate value.  `cells` must then be closed under
        transposition and `ref` on the diagonal.
        """
        d, names = self.d, self.name_pairs
        pair = a * self.n + b
        mirrored = mirror and a != b
        twins = 1 + mirrored
        report = self.report
        report.checked_elements += twins * (1 + len(cells))
        classes = self.cells.get(pair)
        if classes is None:
            # No image pair shares a vector: every element is a structural
            # zero, so the constant is 0 and nothing is violated.
            report.structural_zeros += twins * (1 + len(cells))
            report.constants[names[pair]] = self.zero
            if mirrored:
                report.constants[names[b * self.n + a]] = self.zero
            return
        constant = classes.get(ref)
        structural = constant is None
        if structural:
            constant = 0
        float_mode, value, tolerance = (self.float_mode, self._value,
                                        report.tolerance)
        constant_zero = not constant or (
            float_mode and abs(value(constant)) <= tolerance)
        failures: List[Tuple[int, int]] = []   # (cell, class)
        if vanish and not constant_zero:
            failures.append((ref, constant))
        visited = zeros = 0
        for cell, cls in classes.items():
            if cell not in cells:
                continue
            visited += 1
            zero = not cls or (float_mode and abs(value(cls)) <= tolerance)
            zeros += zero
            # cell % (d + 1) is 0 exactly on the diagonal i == j, where the
            # element must equal the constant: exactly when the classes
            # are equal, or in float mode within the tolerance.
            if cell % (d + 1):
                if zero:
                    continue
            elif cls == constant or (float_mode and abs(
                    value(cls) - value(constant)) <= tolerance):
                continue
            failures.append((cell, cls))
        if not constant_zero:
            # A diagonal structural zero is zero whatever the amplitudes,
            # so it violates a nonzero constant.
            for i in range(d):
                cell = i * (d + 1)
                if cell in cells and cell not in classes:
                    failures.append((cell, 0))
        report.arithmetic_zeros += twins * (
            zeros + (constant_zero and not structural))
        report.structural_zeros += twins * (len(cells) - visited + structural)
        books = [(names[pair], constant, failures)]
        if mirrored:
            conjugate = self._conjugate
            books.append((names[b * self.n + a], conjugate(constant),
                          [(cell % d * d + cell // d, conjugate(cls))
                           for cell, cls in failures]))
        for name, constant, failures in books:
            report.constants[name] = value(constant)
            if failures:
                report.violations.extend(
                    Violation(*name, *divmod(cell, d), value(cls))
                    for cell, cls in failures)

    def check_all_pairs(self) -> KLReport:
        """`check` of every cell but (0, 0) over all ordered operator
        pairs: each pair a <= b present in `cells`, with its mirror.  An
        ordered pair absent from `cells` and from its mirror is booked at
        once: its constant is 0 and its d*d elements are structural
        zeros."""
        report = self.report
        report.constants = dict.fromkeys(self.name_pairs, self.zero)
        n = self.n
        # pair % (n + 1) is 0 exactly when a == b, a pair its own mirror.
        shared = sum(1 if pair % (n + 1) == 0 else 2 for pair in self.cells)
        absent = (n * n - shared) * self.d ** 2
        report.checked_elements += absent
        report.structural_zeros += absent
        cells = _cells_but_origin(self.d)
        for pair in sorted(self.cells):
            self.check(*divmod(pair, n), cells, mirror=True)
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
    cells = _cells_but_origin(d)
    # The flip pairs are closed under swap: each a <= b books its mirror.
    flips = [n for n, op in enumerate(basis) if op.kind in ("S", "A")]
    for ea, eb in combinations_with_replacement(flips, 2):
        gram.check(ea, eb, cells, mirror=True)
    for ea in [identity] + [n for n, op in enumerate(basis) if op.kind == "D"]:
        gram.check(ea, last, cells)
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
