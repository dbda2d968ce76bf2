"""Exact quadratic-form solver for sparse doubly permutation-invariant codes.

The three scalar quadratic forms are linear in the variables
xi_s = <S_s|S_s> * alpha_s**2, one per support orbit, with integer
coefficients obtained by summing eigenvalue/diagonal formulas over orbit
members.  Solving is exact rational nullspace computation intersected
with the positive orthant, followed by normalization and a square root
per orbit to recover amplitudes.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .arith import (FactoredNatural, InvalidInputError, RadicalSum, factorize,
                    multinomial)
from .codes import Code, OrbitAmplitude, validate
from .combinatorics import (OccupationVector, TailOrbit, cyclic_shift,
                            expand_orbit, is_eligible,
                            iter_support_representatives, sparsity_violation,
                            support_is_sparse, tail_orbit)
from .config import Config, check_scale
from .operators import basis_norm, error_basis
from .verifier import PairTables, kl_full

Row = Tuple[int, ...]


@dataclass(frozen=True)
class QFSystem:
    d: int
    N: int
    support: Tuple[TailOrbit, ...]
    rows: Tuple[Row, Row, Row]
    normalization: Row  # orbit sizes

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "N": self.N,
            "support": [list(o.representative) for o in self.support],
            "rows": [list(r) for r in self.rows],
            "normalization": list(self.normalization),
        }


def build_qf_system(d: int, N: int,
                    support: Sequence[Sequence[int]]) -> QFSystem:
    """Integer coefficient rows of the three quadratic forms on xi.

    Row 1: the phase-difference expectation in the last code word.
    Row 2: squared phase difference, first code word minus last.
    Row 3: squared first dit flip, first code word minus last.
    """
    orbits = tuple(tail_orbit(tuple(int(x) for x in rep)) for rep in support)
    reps = [o.representative for o in orbits]
    for rep in reps:
        if not is_eligible(rep, d, N):
            raise InvalidInputError(
                f"support vector {rep} is not eligible at (d={d}, N={N})")
    violation = sparsity_violation(reps)
    if violation is not None:
        raise InvalidInputError(f"support is not effectively sparse: {violation}")
    columns = [_qf_column(rep) for rep in reps]
    rows = tuple(tuple(column[n] for column in columns) for n in range(3))
    normalization = tuple(o.size for o in orbits)
    return QFSystem(d, N, orbits, rows, normalization)


@lru_cache(maxsize=4096)
def _qf_column(rep: OccupationVector) -> Tuple[int, int, int]:
    """One orbit's entries in the three rows of `build_qf_system`."""
    d = len(rep)

    def phase(w: OccupationVector) -> int:
        return w[d - 2] - w[d - 1]

    def flip_sq(w: OccupationVector) -> int:
        return (w[0] + 1) * w[1] + w[0] * (w[1] + 1)

    column = [0, 0, 0]
    for w in expand_orbit(rep):
        shifted = cyclic_shift(w, d - 1)
        column[0] += phase(shifted)
        column[1] += phase(w) ** 2 - phase(shifted) ** 2
        column[2] += flip_sq(w) - flip_sq(shifted)
    return tuple(column)


@dataclass(frozen=True)
class Solution:
    xi: Tuple[Fraction, ...]
    code: Code


def _positive_rays(rows: Sequence[Row], n: int) -> List[Tuple[Fraction, ...]]:
    """Extreme rays of {x >= 0, rows.x = 0}, one positive vector each.

    Supports are small, so every coordinate subset K ("keep set") is
    visited once, smallest first.  A ray is recorded when the nullspace of
    the columns in K is one-dimensional and spanned by a vector with no
    zero entry and one sign.  Such a ray has minimal support and is found
    exactly once: any null vector supported on a proper subset of K would
    lie in that one-dimensional nullspace, so it would be a multiple of
    the spanning vector, which has no zero on K.  Hence no recorded ray
    repeats or contains another, and no deduplication is needed.  With
    three rows, a keep set of more than four columns has a nullspace of
    dimension at least two, so none is visited.
    """
    rays: List[Tuple[Fraction, ...]] = []
    for keep_size in range(1, min(n, len(rows) + 1) + 1):
        for keep in itertools.combinations(range(n), keep_size):
            basis = _nullspace([[row[i] for i in keep] for row in rows])
            if len(basis) != 1:
                continue
            sign = 1 if basis[0][0] > 0 else -1
            vec = [sign * x for x in basis[0]]
            if not all(x > 0 for x in vec):
                continue
            full = [Fraction(0)] * n
            for i, x in zip(keep, vec):
                full[i] = x
            rays.append(tuple(full))
    return rays


def _nullspace(matrix: List[List[int]]) -> List[List[Fraction]]:
    """A basis of the nullspace of an integer matrix, one vector per free
    column, as sympy's `Matrix.nullspace` gives it.

    Exact reduced row echelon form by integer row combinations: pivots are
    not scaled to 1, so each entry is read off with one division by its
    pivot.
    """
    rows = [list(row) for row in matrix]
    width = len(rows[0])
    pivots: List[int] = []
    for col in range(width):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                rows[i] = [lead[col] * a - row[col] * b
                           for a, b in zip(row, lead)]
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    basis = []
    for free in range(width):
        if free in pivots:
            continue
        vec = [Fraction(0)] * width
        vec[free] = Fraction(1)
        for row, col in zip(rows, pivots):
            vec[col] = Fraction(-row[free], row[col])
        basis.append(vec)
    return basis


def _amplitude(xi: Fraction, norm: FactoredNatural) -> RadicalSum:
    """+sqrt(xi / <S_s|S_s>) without factoring the big multinomial."""
    exponents: Dict[int, int] = {}
    for p, e in factorize(xi.numerator).items():
        exponents[p] = exponents.get(p, 0) + e
    for p, e in factorize(xi.denominator).items():
        exponents[p] = exponents.get(p, 0) - e
    for p, e in norm.factors.items():
        exponents[p] = exponents.get(p, 0) - e
    return RadicalSum.sqrt_factored(exponents)


def solve_system(system: QFSystem) -> List[Solution]:
    """Positive normalized solutions of the homogeneous rows.

    Returns the unique solution when the positive solution cone is a
    single ray, every extreme ray when it is wider, and an empty list
    when only the trivial solution is non-negative.
    """
    n = len(system.support)
    solutions = []
    for ray in _positive_rays(system.rows, n):
        scale = sum(Fraction(size) * x
                    for size, x in zip(system.normalization, ray))
        xi = tuple(x / scale for x in ray)
        orbits = tuple(
            OrbitAmplitude(orbit.representative,
                           _amplitude(x, multinomial(system.N,
                                                     orbit.representative)))
            for orbit, x in zip(system.support, xi) if x)
        eta = system.N % system.d
        solutions.append(Solution(xi, Code(system.d, system.N, eta, orbits)))
    solutions.sort(key=lambda s: s.xi, reverse=True)
    return solutions


# ---------------------------------------------------------------------------
# The three-orbit family at N = (d-1)**2 and its closed-form cross-check.


@dataclass
class DiscrepancyNote:
    """Side-by-side comparison of solved amplitudes against the published
    closed forms and coefficient rows for the three-orbit family.

    The closed forms for the first two orbits agree with the solver; the
    third closed form disagrees (already at d = 5, where the solved value
    matches the displayed code and exact normalization while the closed
    form does not), so the solver output is authoritative and the closed
    forms are reported as data.
    """

    d: int
    solved_alpha_sq: Tuple[Fraction, ...]
    closed_form_alpha_sq: Tuple[Fraction, ...]
    agreement: Tuple[bool, ...] = field(init=False)

    def __post_init__(self):
        self.agreement = tuple(a == b for a, b in
                               zip(self.solved_alpha_sq, self.closed_form_alpha_sq))

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "solved_alpha_sq": [[x.numerator, x.denominator]
                                for x in self.solved_alpha_sq],
            "closed_form_alpha_sq": [[x.numerator, x.denominator]
                                     for x in self.closed_form_alpha_sq],
            "agreement": list(self.agreement),
        }


def family_support(d: int) -> Tuple[OccupationVector, ...]:
    if d < 5 or d % 2 == 0:
        raise InvalidInputError(f"family requires odd d >= 5, got {d}")
    a = ((d - 1) ** 2,) + (0,) * (d - 1)
    b = (d + 1, d * (d - 3)) + (0,) * (d - 2)
    c = (0,) + (d - 1,) * (d - 1)
    return a, b, c


def _closed_form_alpha_sq(d: int) -> Tuple[Fraction, Fraction, Fraction]:
    a, b, c = family_support(d)
    m_b, m_c = basis_norm(b), basis_norm(c)
    alpha_a = Fraction(d ** 3 - 5 * d ** 2 + d - 1, 2 * d ** 4 - 6 * d ** 3)
    alpha_b = Fraction(d - 1, m_b) * (1 - d * alpha_a) / (d ** 2 + d)
    alpha_c = Fraction(1, m_c) * (1 - alpha_a
                                  + Fraction(1 - d, d ** 2 + d) * alpha_b)
    return alpha_a, alpha_b, alpha_c


def family_code(d: int) -> Tuple[Code, DiscrepancyNote]:
    """Solve the three-orbit support at N = (d-1)**2 and cross-check the
    published closed forms."""
    support = family_support(d)
    system = build_qf_system(d, (d - 1) ** 2, support)
    solutions = solve_system(system)
    if len(solutions) != 1:
        raise InvalidInputError(
            f"family system at d={d} has {len(solutions)} positive solutions")
    solution = solutions[0]
    solved = tuple(x / basis_norm(rep) for x, rep in zip(solution.xi, support))
    note = DiscrepancyNote(d, solved, _closed_form_alpha_sq(d))
    return solution.code, note


# ---------------------------------------------------------------------------
# Support search.


def passes_prefilter(support: Sequence[OccupationVector]) -> bool:
    """Necessary condition: the first quadratic form needs both signs, so
    some member must have its last shifted phase difference positive and
    some negative."""
    d = len(support[0])
    signs = set()
    for rep in support:
        for w in expand_orbit(rep):
            shifted = cyclic_shift(w, d - 1)
            diff = shifted[d - 2] - shifted[d - 1]
            if diff:
                signs.add(diff > 0)
    return len(signs) == 2


@dataclass
class SearchResult:
    codes: List[Code]
    candidates_tried: int
    exhausted: bool  # False when a limit stopped the stream


def search(d: int, N: int, support_size: int,
           max_candidates: Optional[int] = None,
           max_seconds: Optional[float] = None,
           verify=None, max_d: int = Config.max_d,
           max_n: int = Config.max_n) -> SearchResult:
    """Stream effectively-sparse supports of the given size, solve each,
    and keep solutions that pass full verification.

    (d, N) must lie within the caps `max_d` and `max_n`.  `verify` takes a
    Code and returns bool; the default runs the full matrix-element check,
    with one set of pair tables shared by every code of this call.
    """
    check_scale(d, N, max_d, max_n)
    if support_size < 2:
        raise InvalidInputError("support size must be at least 2")
    if max_candidates is not None and max_candidates < 1:
        raise InvalidInputError(
            f"max_candidates must be at least 1, got {max_candidates}")
    if max_seconds is not None and not max_seconds > 0:
        raise InvalidInputError(
            f"max_seconds must be positive, got {max_seconds}")
    if N % d == 0 or math.gcd(N % d, d) != 1:
        raise InvalidInputError(
            f"N={N} has residue {N % d} not coprime to d={d}")
    if verify is None:
        tables = PairTables(d, error_basis(d))
        verify = lambda code: kl_full(code, max_d=max_d, max_n=max_n,
                                      _tables=tables).passed

    reps = list(iter_support_representatives(d, N))
    deadline = None if max_seconds is None else time.monotonic() + max_seconds
    codes: List[Code] = []
    tried = 0
    exhausted = True
    for subset in itertools.combinations(reps, support_size):
        if max_candidates is not None and tried >= max_candidates:
            exhausted = False
            break
        if deadline is not None and time.monotonic() > deadline:
            exhausted = False
            break
        if not support_is_sparse(subset) or not passes_prefilter(subset):
            continue
        tried += 1
        system = build_qf_system(d, N, subset)
        for solution in solve_system(system):
            if validate(solution.code).passed and verify(solution.code):
                codes.append(solution.code)
    codes.sort(key=lambda c: c.support_representatives())
    return SearchResult(codes, tried, exhausted)
