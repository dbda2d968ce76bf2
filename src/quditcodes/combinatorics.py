"""Occupation vectors, tail orbits, support enumeration, and sparsity.

An occupation vector u is a length-d tuple of naturals summing to N; it
labels the permutation-invariant basis vector built from the multiset with
u_j copies of symbol j.  The tail orbit of u is its equivalence class
under permutations of entries 1..d-1 (entry 0 fixed); doubly
permutation-invariant code words carry one amplitude per tail orbit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .arith import InvalidInputError

OccupationVector = Tuple[int, ...]


def check_occupation(u: Sequence[int], d: Optional[int] = None,
                     N: Optional[int] = None) -> OccupationVector:
    u = tuple(u)
    if d is not None and len(u) != d:
        raise InvalidInputError(f"expected length {d}, got {u}")
    _check_odd_dimension(len(u))
    if any(x < 0 for x in u):
        raise InvalidInputError(f"negative entry in {u}")
    if N is not None and sum(u) != N:
        raise InvalidInputError(f"{u} does not sum to {N}")
    return u


@lru_cache(maxsize=65536)
def basis_norm(u: OccupationVector) -> int:
    """<S_u|S_u>: the multinomial coefficient of u, as an integer.

    The library's one multinomial.  u must be a tuple, since the cache
    hashes it.
    """
    if min(u, default=0) < 0:
        raise InvalidInputError(f"negative count in {u}")
    return math.factorial(sum(u)) // math.prod(map(math.factorial, u))


def weight(u: Sequence[int]) -> int:
    """(sum_j j*u_j) mod d: the clock-operator eigenvalue exponent of |S_u>."""
    d = len(u)
    return sum(j * x for j, x in enumerate(u)) % d


def cyclic_shift(u: Sequence[int], a: int) -> OccupationVector:
    """Relabel symbols j -> j+a (mod d): result[j] = u[j-a].

    This is the occupation-vector action of the a-th power of the logical
    shift operator; weight(result) = weight(u) + a*sum(u) mod d.
    """
    d = len(u)
    a %= d
    return tuple(u[(j - a) % d] for j in range(d))


@dataclass(frozen=True)
class TailOrbit:
    """Canonical representative (tail sorted non-increasing) and orbit size."""

    representative: OccupationVector
    size: int


def canonical_representative(u: Sequence[int]) -> OccupationVector:
    if not u:
        raise InvalidInputError("empty occupation vector")
    return (u[0],) + tuple(sorted(u[1:], reverse=True))


def distinct_orbit_keys(reps: Sequence[Sequence[int]], owner: str
                        ) -> List[OccupationVector]:
    """The canonical representative of each of `reps`, the key every
    reader of an orbit list uses.

    Refuses an empty list ("<owner> is empty") and a list that names one
    tail orbit twice, so that no caller keeps its own copy of either rule.
    """
    if not reps:
        raise InvalidInputError(f"{owner} is empty")
    keys = [canonical_representative(tuple(rep)) for rep in reps]
    for n, key in enumerate(keys):
        m = keys.index(key)
        if m != n:
            raise InvalidInputError(
                f"{owner} lists one tail orbit twice: {tuple(reps[m])} and "
                f"{tuple(reps[n])} share the representative {key}")
    return keys


def tail_orbit(u: Sequence[int]) -> TailOrbit:
    rep = canonical_representative(tuple(u))
    tail = rep[1:]
    return TailOrbit(rep, basis_norm(tuple(map(tail.count, set(tail)))))


def expand_orbit(rep: Sequence[int]) -> List[OccupationVector]:
    """All distinct rearrangements of entries 1..d-1 (entry 0 fixed), sorted."""
    return list(_orbit_members(tuple(rep)))


@lru_cache(maxsize=4096)
def _orbit_members(rep: OccupationVector) -> Tuple[OccupationVector, ...]:
    # Distinct tail rearrangements only: the orbit size, not (d-1)!.
    head = rep[:1]
    return tuple(head + perm for perm in multiset_permutations(rep[1:]))


def multiset_permutations(items: Iterable[int]) -> Iterator[Tuple[int, ...]]:
    """Each distinct rearrangement of `items` once, in lexicographic order."""
    perm = sorted(items)
    while True:
        yield tuple(perm)
        # Next permutation: raise the last ascent to the smallest larger
        # entry after it, then put the entries after it in increasing order.
        i = len(perm) - 2
        while i >= 0 and perm[i] >= perm[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(perm) - 1
        while perm[j] <= perm[i]:
            j -= 1
        perm[i], perm[j] = perm[j], perm[i]
        perm[i + 1:] = reversed(perm[i + 1:])


def is_eligible(u: Sequence[int], d: int, N: int) -> bool:
    """u may carry an amplitude in a doubly permutation-invariant
    weight-zero code word: a canonical representative of length d and sum
    N, with weight 0 and tail entries congruent mod d."""
    u = tuple(u)
    return (len(u) == d and sum(u) == N and min(u) >= 0
            and u == canonical_representative(u) and weight(u) == 0
            and all((x - u[1]) % d == 0 for x in u[2:]))


def _check_odd_dimension(d: int) -> None:
    if d < 3 or d % 2 == 0:
        raise InvalidInputError(f"dimension must be odd and >= 3, got {d}")


def check_dimensions(d: int, N: int) -> None:
    """Refuse (d, N) outside the domain of the codes: odd d >= 3, N >= 1."""
    _check_odd_dimension(d)
    if N < 1:
        raise InvalidInputError(f"need N >= 1, got {N}")


def check_code_space(d: int, N: int) -> None:
    """Refuse (d, N) that carries no code: beyond `check_dimensions`, the
    residue N mod d labels the irrep and must be a unit mod d."""
    check_dimensions(d, N)
    if math.gcd(N % d, d) != 1:
        raise InvalidInputError(
            f"N={N} has residue {N % d} not coprime to d={d}")


def iter_support_representatives(d: int, N: int) -> Iterator[OccupationVector]:
    """The vectors `is_eligible` accepts, in lexicographic order.

    Each non-increasing tail with entries congruent to c (mod d) gets the
    head that completes the sum N.  No weight filter is needed: the head
    sits at symbol 0, so the weight is c * (1 + ... + d-1) = c * d(d-1)/2
    mod d, which is 0 because `check_dimensions` makes d odd.
    """
    check_dimensions(d, N)
    yield from sorted((N - sum(tail),) + tail for residue in range(d)
                      for tail in _nonincreasing_tails(d - 1, N, residue, d,
                                                       upper=N))


def _nonincreasing_tails(length: int, budget: int, residue: int, modulus: int,
                         upper: int) -> Iterator[Tuple[int, ...]]:
    if length == 0:
        yield ()
        return
    value = upper - (upper - residue) % modulus
    while value >= 0:
        if value <= budget:
            for rest in _nonincreasing_tails(length - 1, budget - value,
                                             residue, modulus, value):
                yield (value,) + rest
        value -= modulus


def enumerate_supports(d: int, N: int, limit: Optional[int] = None) -> List[TailOrbit]:
    """Tail orbits of all eligible support representatives, or of the first
    `limit` of them."""
    if limit is not None and limit < 0:
        raise InvalidInputError(f"limit must be non-negative, got {limit}")
    reps = iter_support_representatives(d, N)
    return [tail_orbit(rep) for rep in itertools.islice(reps, limit)]


def sparsity_distance(u: Sequence[int], v: Sequence[int]
                      ) -> Tuple[int, int, Tuple[int, ...]]:
    """Shift-minimized L1 distance between two occupation vectors.

    Returns (min distance, argmin shift delta, sorted nonzero differences
    u_x - v_{x+delta} at the minimizing shift).  Ties break on smallest
    delta.
    """
    if len(u) != len(v) or sum(u) != sum(v):
        raise InvalidInputError("vectors must share (d, N)")
    dist, delta, diffs = min(_shifts(tuple(u), tuple(v)),
                             key=lambda shift: shift[0])
    return dist, delta, _pattern(diffs)


def _shifts(u: OccupationVector, v: OccupationVector
            ) -> Iterator[Tuple[int, int, List[int]]]:
    """(L1 distance, delta, differences u_x - v_{x+delta}) for each cyclic
    relabeling delta = 0..d-1 of v."""
    for delta in range(len(u)):
        diffs = [a - b for a, b in zip(u, v[delta:] + v[:delta])]
        yield sum(map(abs, diffs)), delta, diffs


def _pattern(diffs: List[int]) -> Tuple[int, ...]:
    return tuple(sorted(t for t in diffs if t))


@dataclass(frozen=True)
class SparsityViolation:
    u: OccupationVector
    v: OccupationVector
    delta: int
    distance: int
    pattern: Tuple[int, ...]


def is_effectively_sparse(support: Iterable[Sequence[int]]
                          ) -> Tuple[bool, Optional[SparsityViolation]]:
    """Check that no pair of support vectors is reachable by one dit flip or
    by a double flip on distinct index pairs, under any cyclic relabeling.

    Distance 2 is always forbidden; distance 4 is allowed only for the
    {+2, -2} pattern, a repeated same-pair flip.  That relaxation is not
    sound: a code whose members meet at {+2, -2} can pass `qf` but, with
    positive amplitudes, fails `full` (qutrit13's <1|S(0,1)S(0,1)|0> =
    104/9).  `verifier.flips_couple` is the rule that relies on this: on a
    support this predicate admits, two operators from {I, S(j,k)} couple
    distinct code words exactly at such a meet, and `search` rejects the
    code there.  The exact self-coincidence (u == v shifted, at distance
    0) is skipped; for weight-zero supports with N coprime residue it can
    only occur at delta = 0 with u == v.
    """
    members = [tuple(u) for u in support]
    for u in members:
        for v in members:
            violation = _violation(u, v)
            if violation is not None:
                return False, violation
    return True, None


def _violation(u: OccupationVector, v: OccupationVector
               ) -> Optional[SparsityViolation]:
    """The first shift at which v is too close to u, if any."""
    for dist, delta, diffs in _shifts(u, v):
        if _too_close(dist, diffs):
            return SparsityViolation(u, v, delta, dist, _pattern(diffs))
    return None


def _too_close(dist: int, diffs: List[int]) -> bool:
    """The sparsity rule on one relabeling's differences `diffs`, of L1
    norm `dist`: distance 2, or 4 with a pattern other than {+2, -2}."""
    return dist == 2 or (dist == 4 and _pattern(diffs) != (-2, 2))


@lru_cache(maxsize=1 << 16)
def orbits_compatible(r: OccupationVector, s: OccupationVector) -> bool:
    """True when no member of tail orbit r violates sparsity against any
    member of tail orbit s; `orbits_compatible(r, r)` checks r alone.

    A support is effectively sparse exactly when every unordered pair of
    its orbits, each one with itself too, is compatible: the test is
    pairwise over members, and symmetric, because swapping u and v negates
    the differences and {+2, -2} maps to itself.

    The verdict reads only the two heads and the two tail multisets, so
    its cost does not grow with the orbit sizes.  Every relabeling matches
    the d values of u one to one with those of v, so when sorted(r) and
    sorted(s) are more than 4 apart in L1 no member pair comes close.
    Otherwise, since the members run over every tail arrangement, two
    placements cover every member pair at every shift: at delta = 0 the
    heads meet and the tails match freely; at any delta != 0 r's head
    meets one tail value t of s, s's head one tail value w of r, and the
    rest match freely.
    """
    if sum(abs(x - y) for x, y in zip(sorted(r), sorted(s))) > 4:
        return True
    r0, s0 = r[0], s[0]
    r_tail, s_tail = sorted(r[1:]), sorted(s[1:])
    if _matching_too_close([r0 - s0], r_tail, s_tail):
        return False
    # A too-close relabeling moves no entry by more than 2.
    return not any(
        _matching_too_close([r0 - t, w - s0], _without(r_tail, w),
                            _without(s_tail, t))
        for t in set(s_tail) if abs(r0 - t) <= 2
        for w in set(r_tail) if abs(w - s0) <= 2)


def _matching_too_close(fixed: List[int], a: List[int], b: List[int]
                        ) -> bool:
    """Whether some one-to-one matching of the multisets a and b, with
    the differences `fixed` beside its own, is `_too_close`.

    Such a matching has at most 4 nonzero differences, each at most 2.  So
    it is enough to match the m values of a that b lacks, plus at most
    4 - m shared values, against b's m values that a lacks plus the same
    shared values, and to leave every other value on its equal.  A shared
    value that moves goes to a different value within 2 on each side.
    """
    only_a, only_b, shared = _multiset_split(a, b)
    spare = 4 - len(only_a) - sum(1 for x in fixed if x)
    if spare < 0:
        return False
    a_set, b_set = set(a), set(b)
    movable = [x for x in shared
               if any(x + e in a_set for e in (-2, -1, 1, 2))
               and any(x + e in b_set for e in (-2, -1, 1, 2))]
    for size in range(spare + 1):
        for extra in set(itertools.combinations(movable, size)):
            left = only_a + list(extra)
            for right in set(itertools.permutations(only_b + list(extra))):
                diffs = fixed + [x - y for x, y in zip(left, right)]
                if _too_close(sum(map(abs, diffs)), diffs):
                    return True
    return False


def _multiset_split(a: List[int], b: List[int]
                    ) -> Tuple[List[int], List[int], List[int]]:
    """(a - b, b - a, a & b) as multisets."""
    only_a: List[int] = []
    only_b = list(b)
    shared: List[int] = []
    for x in a:
        if x in only_b:
            only_b.remove(x)
            shared.append(x)
        else:
            only_a.append(x)
    return only_a, only_b, shared


def _without(values: List[int], x: int) -> List[int]:
    """`values` with one copy of x removed."""
    i = values.index(x)
    return values[:i] + values[i + 1:]


def support_is_sparse(reps: Sequence[Sequence[int]]) -> bool:
    """`is_effectively_sparse` of the orbits' members, from the cached
    pair verdicts of `orbits_compatible`, which expand no orbit.

    Gives the verdict only; `is_effectively_sparse` gives the witness.
    Each pair is asked for in sorted order, so that the cache holds one
    entry per unordered pair.
    """
    reps = sorted(map(tuple, reps))
    return all(orbits_compatible(r, s)
               for i, r in enumerate(reps) for s in reps[i:])


def sparsity_violation(reps: Sequence[Sequence[int]]
                       ) -> Optional[SparsityViolation]:
    """None when the orbits of `reps` form an effectively sparse support,
    else the member-wise witness of `is_effectively_sparse`.

    The verdict is `support_is_sparse`'s; the members are walked only to
    name the witness of a support that is not sparse.
    """
    if support_is_sparse(reps):
        return None
    return is_effectively_sparse(m for rep in reps for m in expand_orbit(rep))[1]


def expand_support(orbits: Iterable[TailOrbit]) -> List[OccupationVector]:
    """Concatenated member lists of a collection of tail orbits."""
    members: List[OccupationVector] = []
    for orbit in orbits:
        members.extend(expand_orbit(orbit.representative))
    return members
