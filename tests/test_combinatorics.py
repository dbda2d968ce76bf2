import itertools
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.utilities.iterables import multiset_permutations as sympy_permutations

from quditcodes.arith import InvalidInputError, RadicalSum
from quditcodes.codes import Code, OrbitAmplitude, validate
from quditcodes.combinatorics import (_violation, canonical_representative,
                                      check_occupation, cyclic_shift,
                                      enumerate_supports, expand_orbit,
                                      expand_support,
                                      is_effectively_sparse, is_eligible,
                                      iter_support_representatives,
                                      multiset_permutations, orbits_compatible,
                                      sparsity_distance, support_is_sparse,
                                      tail_orbit, weight)
from quditcodes.solver import build_qf_system

from conftest import meet


def occupations(d=3, max_total=15):
    return st.lists(st.integers(0, max_total), min_size=d, max_size=d).map(tuple)


# ---------------------------------------------------------------------------
# shifts and weights


@given(occupations(), st.integers(-5, 10), st.integers(-5, 10))
def test_shift_composes(u, a, b):
    assert cyclic_shift(cyclic_shift(u, a), b) == cyclic_shift(u, a + b)
    assert cyclic_shift(u, 0) == u


@given(occupations(5, 10), st.integers(0, 6))
def test_weight_under_shift(u, a):
    d = len(u)
    assert weight(cyclic_shift(u, a)) == (weight(u) + a * sum(u)) % d


def test_shift_moves_counts_forward():
    assert cyclic_shift((3, 5, 5), 1) == (5, 3, 5)
    assert cyclic_shift((13, 0, 0), 2) == (0, 0, 13)


def test_check_occupation():
    assert check_occupation([1, 2, 3], 3, 6) == (1, 2, 3)
    with pytest.raises(InvalidInputError):
        check_occupation([1, 2], None, None)  # even length
    with pytest.raises(InvalidInputError):
        check_occupation([1, -1, 3])
    with pytest.raises(InvalidInputError):
        check_occupation([1, 2, 3], 3, 7)


# ---------------------------------------------------------------------------
# tail orbits


@given(occupations(5, 6))
def test_canonical_representative_idempotent(u):
    rep = canonical_representative(u)
    assert canonical_representative(rep) == rep
    assert rep[0] == u[0] and sorted(rep[1:]) == sorted(u[1:])


# Tails drawn from few values, so most of them repeat entries.
orbit_inputs = st.one_of(occupations(5, 6),
                         *(occupations(d, 2) for d in (3, 5, 7)))


@given(orbit_inputs)
def test_orbit_size_matches_expansion(u):
    orbit = tail_orbit(u)
    members = expand_orbit(orbit.representative)
    assert len(members) == orbit.size
    assert all(m[0] == u[0] for m in members)
    assert tuple(u) in members
    tail = orbit.representative[1:]
    assert members == sorted({(u[0],) + perm
                              for perm in itertools.permutations(tail)})


@example([])
@given(st.lists(st.integers(0, 3), max_size=7))
def test_multiset_permutations_match_sympy_in_order(items):
    assert list(multiset_permutations(items)) == \
        [tuple(perm) for perm in sympy_permutations(items)]


def test_qutrit_orbit_sizes():
    assert tail_orbit((13, 0, 0)).size == 1
    assert tail_orbit((4, 9, 0)).size == 2
    assert tail_orbit((3, 5, 5)).size == 1


# ---------------------------------------------------------------------------
# support enumeration


def brute_force_representatives(d, N):
    reps = set()
    for u in itertools.product(range(N + 1), repeat=d):
        if sum(u) != N or weight(u) != 0:
            continue
        if any(x % d != u[1] % d for x in u[1:]):
            continue
        reps.add(canonical_representative(u))
    return sorted(reps)


@pytest.mark.parametrize("d, N", [(3, 13), (3, 7), (5, 6), (5, 16), (7, 6),
                                  (9, 4)])
def test_representatives_match_brute_force(d, N):
    assert list(iter_support_representatives(d, N)) == \
        brute_force_representatives(d, N)


@pytest.mark.parametrize("d, N", [(3, 13), (3, 7), (5, 6), (5, 16), (7, 5)])
def test_eligible_vectors_are_the_enumerated_representatives(d, N):
    eligible = [u for u in itertools.product(range(N + 1), repeat=d)
                if is_eligible(u, d, N)]
    assert eligible == list(iter_support_representatives(d, N))


def test_known_representative_counts():
    assert len(list(iter_support_representatives(3, 13))) == 21
    assert len(list(iter_support_representatives(5, 16))) == 15


def test_enumerate_supports_limit():
    orbits = enumerate_supports(3, 13, limit=5)
    assert len(orbits) == 5
    assert all(o.representative == canonical_representative(o.representative)
               for o in orbits)


def test_enumerate_supports_limit_edges():
    assert enumerate_supports(3, 13, limit=0) == []
    assert len(enumerate_supports(3, 13, limit=100)) == 21
    for limit in (-1, -3):
        with pytest.raises(InvalidInputError):
            enumerate_supports(3, 13, limit=limit)


def test_iter_support_representatives_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        list(iter_support_representatives(4, 10))
    with pytest.raises(InvalidInputError):
        list(iter_support_representatives(3, 0))


# ---------------------------------------------------------------------------
# sparsity


@given(occupations(3, 8), occupations(3, 8))
@settings(max_examples=80)
def test_sparsity_distance_symmetry(u, v):
    if sum(u) != sum(v):
        with pytest.raises(InvalidInputError):
            sparsity_distance(u, v)
        return
    du, _, _ = sparsity_distance(u, v)
    dv, _, _ = sparsity_distance(v, u)
    assert du == dv
    assert sparsity_distance(u, u)[0] == 0


def test_sparsity_distance_witness():
    dist, delta, pattern = sparsity_distance((3, 5, 5), (5, 3, 5))
    # (5,3,5) is (3,5,5) shifted by one, so the minimizing shift matches
    # them exactly.
    assert (dist, pattern) == (0, ())
    # (4,9,0) vs (3,5,5): shifts give distances 10, 12, 8; the minimum
    # wins and the nonzero differences come back sorted.
    assert sparsity_distance((4, 9, 0), (3, 5, 5)) == (8, 1, (-3, -1, 4))


def test_effective_sparsity_allows_repeated_pair_flip():
    # (3,5,5) -> +2 at symbol 0, -2 at symbol 1 -> (5,3,5), which is a
    # shift of (3,5,5): distance 4 with pattern {+2,-2} is tolerated.
    members = expand_support([tail_orbit(u) for u in
                              ((13, 0, 0), (4, 9, 0), (3, 5, 5))])
    ok, witness = is_effectively_sparse(members)
    assert ok and witness is None


def test_effective_sparsity_rejects_single_flip():
    # (2,3,3,3,3,3,3) is two flips of its own shift at distance 2.
    members = expand_support([tail_orbit(u) for u in
                              ((20, 0, 0, 0, 0, 0, 0),
                               (6, 14, 0, 0, 0, 0, 0),
                               (2, 3, 3, 3, 3, 3, 3))])
    ok, witness = is_effectively_sparse(members)
    assert not ok
    assert witness.distance == 2
    assert witness.u == (2, 3, 3, 3, 3, 3, 3)


def test_pair_table_matches_member_wise_predicate():
    # Sparsity is pairwise over orbits: the cached pair verdicts must give
    # the member-wise verdict on every subset of one to three orbits.
    for d, N in ((3, 13), (5, 16), (7, 20)):
        reps = list(iter_support_representatives(d, N))
        for size in (1, 2, 3):
            for subset in itertools.combinations(reps, size):
                members = [m for rep in subset for m in expand_orbit(rep)]
                assert support_is_sparse(subset) == \
                    is_effectively_sparse(members)[0], subset
        for r in reps:
            for s in reps:
                assert orbits_compatible(r, s) == orbits_compatible(s, r)


def member_wise_compatible(r, s):
    return not any(_violation(u, v) for u in expand_orbit(r)
                   for v in expand_orbit(s))


def test_pair_verdict_matches_member_wise_walk_exhaustively():
    # Every unordered pair of eligible orbits at d = 3..9 and N <= 21, each
    # orbit with itself too.  The count of incompatible pairs pins the rule
    # that both sides share (`_too_close`).
    pairs = [(r, s) for d in (3, 5, 7, 9) for N in range(1, 22)
             for r, s in itertools.combinations_with_replacement(
                 iter_support_representatives(d, N), 2)]
    assert len(pairs) == 8647
    verdicts = [orbits_compatible(r, s) for r, s in pairs]
    assert [pair for pair, ok in zip(pairs, verdicts)
            if ok != member_wise_compatible(*pair)] == []
    assert verdicts.count(False) == 1780


@st.composite
def eligible_orbit_pairs(draw):
    """Two eligible representatives at one (d, N) with d <= 9 and N = +-2
    (mod d) or not, as drawn, each with its tail in a drawn order."""
    d = draw(st.sampled_from((3, 5, 7, 9)))
    near = draw(st.booleans())
    N = draw(st.sampled_from([n for n in range(1, 41)
                              if (n % d in (2, d - 2)) == near]))
    reps = list(iter_support_representatives(d, N))

    def arranged():
        rep = draw(st.sampled_from(reps))
        return rep[:1] + tuple(draw(st.permutations(rep[1:])))

    return arranged(), arranged()


@st.composite
def any_orbit_pairs(draw):
    """Two occupation vectors of one sum at d = 3 or 5, with small entries,
    so that tails share values that lie within 2 of other values."""
    d = draw(st.sampled_from((3, 5)))
    r = draw(occupations(d, 3))
    tail = draw(occupations(d - 1, 3))
    assume(sum(tail) <= sum(r))
    return r, (sum(r) - sum(tail),) + tail


@given(st.one_of(eligible_orbit_pairs(), any_orbit_pairs()))
@settings(max_examples=500, deadline=None)
def test_pair_verdict_matches_member_wise_walk(pair):
    assert orbits_compatible(*pair) == member_wise_compatible(*pair)


def test_pair_verdict_keeps_the_repeated_flip_and_refuses_one_flip():
    # (3,5,5) meets its own relabeling (5,3,5) at {+2, -2}, which is
    # allowed; (2,3,3,3,3,3,3) is one flip from its own relabeling.
    assert orbits_compatible((3, 5, 5), (3, 5, 5))
    assert not orbits_compatible((2, 3, 3, 3, 3, 3, 3), (2, 3, 3, 3, 3, 3, 3))


def test_non_sparse_support_keeps_its_witness():
    # The pair table only gives the verdict; validate and build_qf_system
    # must still report the member-wise witness.
    support = ((20, 0, 0, 0, 0, 0, 0), (6, 14, 0, 0, 0, 0, 0),
               (2, 3, 3, 3, 3, 3, 3))
    _, witness = is_effectively_sparse(
        expand_support([tail_orbit(u) for u in support]))
    assert witness is not None
    code = Code(7, 20, 6, tuple(OrbitAmplitude(u, RadicalSum.of(1))
                                for u in support))
    report = validate(code)
    assert not report.checks["sparsity"]
    assert report.witnesses["sparsity"] == witness
    with pytest.raises(InvalidInputError) as info:
        build_qf_system(7, 20, support)
    assert str(info.value) == f"support is not effectively sparse: {witness}"


def test_strict_sparsity_of_large_codes():
    for support in (((16, 0, 0, 0, 0), (6, 10, 0, 0, 0), (0, 4, 4, 4, 4)),
                    ((36,) + (0,) * 6, (8, 28) + (0,) * 5, (0,) + (6,) * 6)):
        members = expand_support([tail_orbit(u) for u in support])
        ok, _ = is_effectively_sparse(members)
        assert ok
        # strict: every distinct pair (including self against a shift)
        # sits at distance > 4
        d = len(support[0])
        for u in members:
            for v in members:
                for delta in range(d):
                    w = cyclic_shift(v, delta)
                    dist = sum(abs(a - b) for a, b in zip(u, w))
                    assert dist == 0 or dist > 4


# ---------------------------------------------------------------------------
# meets: members that a repeated flip S(j,k)**2 bridges under a relabeling


def meeting_pairs(d, N):
    """Ordered pairs (u, v) of members of eligible orbits that meet; u may
    be v, meeting one of its own relabelings."""
    members = [m for rep in iter_support_representatives(d, N)
               for m in expand_orbit(rep)]
    return sum(meet(u, v) for u in members for v in members)


def test_no_eligible_members_meet_unless_n_is_plus_or_minus_2_mod_d():
    # Tail entries are congruent to c and the head to N + c (mod d), so at a
    # relabeling delta != 0 with d >= 5 a meet needs N = +-2 (mod d), and
    # at delta = 0 every difference is a multiple of d.
    cases = [(d, N) for d, top in ((5, 21), (7, 22), (9, 20))
             for N in range(d + 1, top + 1)
             if math.gcd(N % d, d) == 1 and N % d not in (2, d - 2)]
    assert len(cases) == 21
    assert [(d, N) for d, N in cases if meeting_pairs(d, N)] == []


@pytest.mark.parametrize("d, N, pairs", [(5, 17, 221), (7, 23, 715),
                                         (9, 20, 433)])
def test_eligible_members_meet_when_n_is_plus_or_minus_2_mod_d(d, N, pairs):
    assert meeting_pairs(d, N) == pairs
