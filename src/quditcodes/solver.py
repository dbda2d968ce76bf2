"""Exact quadratic-form solver for sparse doubly permutation-invariant codes.

The three scalar quadratic forms are linear in the variables
xi_s = <S_s|S_s> * alpha_s**2, one per support orbit, with integer
coefficients obtained by summing eigenvalue/diagonal formulas over orbit
members.  Every column satisfies (2N+d)*c[0] - 2*c[1] + d*c[2] = 0, so
the three rows have rank at most two, and each extreme ray of the
positive solution cone has at most three nonzero coordinates, read off
rows 1 and 3 in closed form with integer 2x2 determinants.  Each ray is
normalized, and a square root per orbit recovers the amplitudes.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .arith import InvalidInputError, RadicalSum
from .codes import Code, OrbitAmplitude
from .combinatorics import (OccupationVector, TailOrbit, basis_norm,
                            check_code_space, cyclic_shift,
                            distinct_orbit_keys, expand_orbit, is_eligible,
                            iter_support_representatives, orbits_compatible,
                            sparsity_violation, support_is_sparse, tail_orbit)
from .config import Config, check_scale
from .operators import error_basis
from .verifier import PairTables, flips_couple, kl_full

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
    check_code_space(d, N)
    entries = [_qf_entry(tuple(map(int, rep)), d, N) for rep in support]
    for orbit, column in entries:
        if column is None:
            raise InvalidInputError(f"support vector {orbit.representative} "
                                    f"is not eligible at (d={d}, N={N})")
    distinct_orbit_keys(support, "support")
    orbits = tuple(orbit for orbit, _ in entries)
    violation = sparsity_violation([o.representative for o in orbits])
    if violation is not None:
        raise InvalidInputError(f"support is not effectively sparse: {violation}")
    rows = tuple(tuple(column[n] for _, column in entries) for n in range(3))
    normalization = tuple(o.size for o in orbits)
    return QFSystem(d, N, orbits, rows, normalization)


@lru_cache(maxsize=4096)
def _qf_entry(u: OccupationVector, d: int, N: int
              ) -> Tuple[TailOrbit, Optional[Tuple[int, int, int]]]:
    """The tail orbit of u and, when its representative is eligible at
    (d, N), its `_qf_column` (else None): what `build_qf_system` needs of
    one support vector, built once per process, however many supports
    `search` puts it in."""
    orbit = tail_orbit(u)
    rep = orbit.representative
    return orbit, _qf_column(rep) if is_eligible(rep, d, N) else None


def _qf_column(rep: OccupationVector) -> Tuple[int, int, int]:
    """One orbit's entries in the three rows of `build_qf_system`, from
    closed forms of D(d-2)'s eigenvalue and S(0,1)'s image norm that the
    tests tie to `generator_action`.  c[1] is summed on its own, so that
    every column satisfies (2N+d)*c[0] - 2*c[1] + d*c[2] = 0 stays a fact
    the tests check, not an assumption.
    """
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


def _positive_rays(top: Row, bottom: Row) -> List[Tuple[int, ...]]:
    """Extreme rays of {x >= 0 : top.x = bottom.x = 0}, one positive
    integer vector each, in order of support size.

    Column i is the point (top[i], bottom[i]).  A ray is recorded for each
    coordinate set K whose columns have a one-dimensional nullspace
    spanned by a vector with no zero entry and one sign.  With two rows
    |K| <= 3, and K is one of: a zero column, ray (1); two opposite
    columns a, b (det(a, b) = 0, a.b < 0), ray (|b|**2, -a.b); three
    columns whose Cramer vector (det(b, c), det(c, a), det(a, b)) has no
    zero entry and one sign.  A null vector on a proper subset of K would
    be a multiple of the spanning vector, which has no zero on K, so no
    recorded ray repeats or contains another.
    """
    columns = list(zip(top, bottom))
    n = len(columns)

    def det(a, b):
        return a[0] * b[1] - a[1] * b[0]

    def dot(a, b):
        return a[0] * b[0] + a[1] * b[1]

    def ray(keep, vec):
        full = [0] * n
        for i, x in zip(keep, vec):
            full[i] = x
        return tuple(full)

    rays = [ray((i,), (1,)) for i, a in enumerate(columns) if a == (0, 0)]
    for i, j in itertools.combinations(range(n), 2):
        a, b = columns[i], columns[j]
        if det(a, b) == 0 and dot(a, b) < 0:
            rays.append(ray((i, j), (dot(b, b), -dot(a, b))))
    for keep in itertools.combinations(range(n), 3):
        a, b, c = (columns[i] for i in keep)
        vec = (det(b, c), det(c, a), det(a, b))
        if all(x > 0 for x in vec) or all(x < 0 for x in vec):
            rays.append(ray(keep, tuple(abs(x) for x in vec)))
    return rays


def solve_system(system: QFSystem) -> List[Solution]:
    """Positive normalized solutions of the homogeneous rows.

    Returns the unique solution when the positive solution cone is a
    single ray, every extreme ray when it is wider, and an empty list
    when only the trivial solution is non-negative.
    """
    solutions = []
    # (2N+d)*c[0] - 2*c[1] + d*c[2] = 0 on every column (`_qf_column`): row 2
    # is a rational combination of rows 1 and 3, so the nullspace is theirs.
    for ray in _positive_rays(system.rows[0], system.rows[2]):
        scale = sum(size * x for size, x in zip(system.normalization, ray))
        xi = tuple(Fraction(x, scale) for x in ray)
        orbits = tuple(
            OrbitAmplitude(o.representative,
                           RadicalSum.sqrt(x / basis_norm(o.representative)))
            for o, x in zip(system.support, xi) if x)
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
    """Necessary condition: row 1 needs both signs.  `_qf_column` adds
    w[d-1] - w[0] to it for each member w; over a tail orbit w[0] is the
    head r[0] and w[d-1] takes every tail value, so r alone decides."""
    return (any(max(r[1:]) > r[0] for r in support)
            and any(min(r[1:]) < r[0] for r in support))


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

    A support holding an orbit that is not sparse against itself is never
    sparse, so such representatives are dropped before the subsets are
    enumerated.  The remaining stream is the unpruned one with only
    rejected subsets removed: the same supports are tried, in the same
    order.  `max_seconds` starts before that prune, and the clock is read
    once per representative the prune tests and once per subset visited.
    (d, N) must lie within the caps `max_d` and `max_n`.  `verify` takes a
    Code and returns bool, and its verdict alone decides acceptance; the
    default rejects a code whose flips couple two code words
    (`flips_couple`, sound because every solved amplitude is positive) and
    decides the rest with the full matrix-element check, both over one set
    of pair tables shared by every code of this call.  A ray is fixed by its
    support, so larger subsets meet one code many times: `verify` is
    called once per distinct solved code.  `codes.validate` is not run:
    `check_code_space` fixes the residue; `build_qf_system` eligibility,
    distinct orbits and sparsity; positive rays nonzero amplitudes; and
    sum size * xi = 1, amplitude**2 = xi / basis_norm the normalization.
    """
    check_scale(d, N, max_d, max_n)
    check_code_space(d, N)
    if support_size < 2:
        raise InvalidInputError("support size must be at least 2")
    if max_candidates is not None and max_candidates < 1:
        raise InvalidInputError(
            f"max_candidates must be at least 1, got {max_candidates}")
    if max_seconds is not None and not max_seconds > 0:
        raise InvalidInputError(
            f"max_seconds must be positive, got {max_seconds}")
    if verify is None:
        tables = PairTables(d, error_basis(d))
        verify = lambda code: (
            not flips_couple(code, tables)
            and kl_full(code, max_d=max_d, max_n=max_n, _tables=tables).passed)

    reps = list(iter_support_representatives(d, N))
    deadline = None if max_seconds is None else time.monotonic() + max_seconds
    candidates = []
    for rep in reps:
        if deadline is not None and time.monotonic() > deadline:
            return SearchResult([], 0, False)
        if orbits_compatible(rep, rep):
            candidates.append(rep)
    codes: List[Code] = []
    verdicts: Dict[Code, bool] = {}
    tried = 0
    exhausted = True
    for subset in itertools.combinations(candidates, support_size):
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
            code = solution.code
            accepted = verdicts.get(code)
            if accepted is None:
                accepted = verdicts[code] = verify(code)
            if accepted:
                codes.append(code)
    codes.sort(key=lambda c: c.support_representatives())
    return SearchResult(codes, tried, exhausted)
