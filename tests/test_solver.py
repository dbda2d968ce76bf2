import collections
import itertools
import weakref
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quditcodes import combinatorics, solver
from quditcodes.arith import InvalidInputError, RadicalSum
from quditcodes.codes import Code, OrbitAmplitude, validate
from quditcodes.operators import (ErrorOperator, basis_norm, error_basis,
                                  generator_action)
from quditcodes.combinatorics import (cyclic_shift, expand_orbit,
                                      is_effectively_sparse,
                                      iter_support_representatives,
                                      orbits_compatible, support_is_sparse,
                                      tail_orbit)
from quditcodes.solver import (build_qf_system, family_code, family_support,
                               passes_prefilter, search, solve_system)
from quditcodes.verifier import PairTables, flips_couple, kl_full

from conftest import meet, reports_identical

QUTRIT_SUPPORT = ((13, 0, 0), (4, 9, 0), (3, 5, 5))


def proportional(row, reference):
    pairs = [(a, b) for a, b in zip(row, reference) if a or b]
    if any(a == 0 or b == 0 for a, b in pairs):
        return False
    scale = Fraction(pairs[0][0], pairs[0][1])
    return all(Fraction(a, b) == scale for a, b in pairs)


# ---------------------------------------------------------------------------
# system construction


def test_qutrit_system_rows():
    system = build_qf_system(3, 13, QUTRIT_SUPPORT)
    references = ((13, -1, -2), (169, -121, 4), (13, 71, -22))
    for row, reference in zip(system.rows, references):
        assert proportional(row, reference), (row, reference)
    assert system.normalization == (1, 2, 1)


def test_rows_invariant_under_support_reordering():
    base = build_qf_system(3, 13, QUTRIT_SUPPORT)
    for perm in itertools.permutations(range(3)):
        support = [QUTRIT_SUPPORT[i] for i in perm]
        system = build_qf_system(3, 13, support)
        for row, reference in zip(system.rows, base.rows):
            assert tuple(row[perm.index(i)] for i in range(3)) == reference


def test_system_rejects_non_sparse_support():
    with pytest.raises(InvalidInputError, match="sparse"):
        build_qf_system(7, 20, ((20, 0, 0, 0, 0, 0, 0),
                                (2, 3, 3, 3, 3, 3, 3)))


def test_system_rejects_empty_support():
    with pytest.raises(InvalidInputError, match="support is empty"):
        build_qf_system(3, 13, ())


@pytest.mark.parametrize("support, first, second, rep", [
    (((4, 9, 0), (4, 0, 9), (1, 6, 6), (13, 0, 0)), (4, 9, 0), (4, 0, 9),
     (4, 9, 0)),
    (((13, 0, 0), (3, 5, 5), (13, 0, 0)), (13, 0, 0), (13, 0, 0), (13, 0, 0)),
])
def test_system_rejects_one_orbit_listed_twice(support, first, second, rep):
    # Two columns of one orbit once gave two "solutions" that were the same
    # code, with the weight on one copy or the other.
    with pytest.raises(InvalidInputError) as excinfo:
        build_qf_system(3, 13, support)
    assert str(excinfo.value) == (
        f"support lists one tail orbit twice: {first} and {second} "
        f"share the representative {rep}")


@pytest.mark.parametrize("d, N, support, message", [
    (5, 15, ((15, 0, 0, 0, 0),), "N=15 has residue 0 not coprime to d=5"),
    (9, 12, ((12,) + (0,) * 8,), "N=12 has residue 3 not coprime to d=9"),
    (4, 13, ((13, 0, 0, 0), (1, 4, 4, 4)),
     "dimension must be odd and >= 3, got 4"),
], ids=["d5-N15", "d9-N12", "d4-N13"])
def test_system_rejects_dimensions_that_carry_no_code(d, N, support, message):
    # Every vector is eligible: only the code-space rule refuses.
    with pytest.raises(InvalidInputError) as excinfo:
        build_qf_system(d, N, support)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("rep", [
    (12, 1, 0),      # weight 1
    (4, 9, 0, 0),    # wrong length
    (13, 0, 1),      # wrong sum
])
def test_system_rejects_ineligible_vectors(rep):
    with pytest.raises(InvalidInputError, match="not eligible"):
        build_qf_system(3, 13, ((13, 0, 0), rep))


@pytest.mark.parametrize("d, N, support, message", [
    (3, 13, ((1, 12, 0), (4, 9, 0), (4, 0, 9), (12, 0, 1)),
     "support vector (12, 1, 0) is not eligible at (d=3, N=13)"),
    (3, 13, ((1, 12, 0), (4, 9, 0), (4, 0, 9)),
     "support lists one tail orbit twice: (4, 9, 0) and (4, 0, 9) share "
     "the representative (4, 9, 0)"),
    (3, 13, ((13, 0, 0), (1, 12, 0)),
     "support is not effectively sparse: SparsityViolation(u=(13, 0, 0), "
     "v=(1, 0, 12), delta=2, distance=2, pattern=(-1, 1))"),
    (3, 16, ((13, 0, 0), (16, 0, 0)),
     "support vector (13, 0, 0) is not eligible at (d=3, N=16)"),
], ids=["ineligible-first", "repeat-before-sparsity", "not-sparse",
        "eligible-at-another-N"])
def test_system_refusals_come_in_order(d, N, support, message):
    # Every support vector's entry (orbit, eligibility, column) is built
    # once per (vector, d, N); the refusals still come in order: an
    # ineligible vector, then a repeated orbit, then a sparsity witness.
    # The first call caches (13, 0, 0) as eligible at (3, 13).
    build_qf_system(3, 13, ((13, 0, 0), (4, 9, 0)))
    for _ in range(2):
        with pytest.raises(InvalidInputError) as excinfo:
            build_qf_system(d, N, support)
        assert str(excinfo.value) == message


@st.composite
def tail_orbit_representatives(draw):
    """Any tail orbit with d = 3..9, eligible or not, of at most 20,000
    members."""
    d = draw(st.integers(3, 9))
    u = draw(st.lists(st.integers(0, 12), min_size=d, max_size=d))
    orbit = tail_orbit(u)
    assume(orbit.size <= 20000)
    return orbit.representative


@given(tail_orbit_representatives())
@example((13, 0, 0))
@example((0, 4, 4, 4, 4))
@settings(max_examples=150, deadline=None)
def test_columns_satisfy_the_rank_two_identity(rep):
    # The solver reads rays off rows 1 and 3 alone because of this
    # identity: row 2 is a rational combination of rows 1 and 3.
    d, N = len(rep), sum(rep)
    c = solver._qf_column(rep)
    assert (2 * N + d) * c[0] - 2 * c[1] + d * c[2] == 0


def column_from_generator_action(rep):
    """`_qf_column` from its definition: per member w and its last-word
    image w' = cyclic_shift(w, d-1), <D(d-2)> at w', <D(d-2)**2> at w
    minus w', and <S(0,1)**2> at w minus w', each expectation
    <S_w|E|S_w>/<S_w|S_w> summed from `generator_action` terms."""
    d = len(rep)
    phase, flip = ErrorOperator("D", d - 2), ErrorOperator("S", 0, 1)

    def mean(op, w):
        return sum(re for v, re, _ in generator_action(op, w) if v == w)

    def mean_sq(op, w):  # <S_w|E E|S_w> = |E|S_w>|**2, E Hermitian
        return Fraction(sum((re * re + im * im) * basis_norm(v)
                            for v, re, im in generator_action(op, w)),
                        basis_norm(w))

    column = [0, 0, 0]
    for w in expand_orbit(rep):
        last = cyclic_shift(w, d - 1)
        column[0] += mean(phase, last)
        column[1] += mean_sq(phase, w) - mean_sq(phase, last)
        column[2] += mean_sq(flip, w) - mean_sq(flip, last)
    return tuple(column)


@pytest.mark.parametrize("d, N", [(3, 16), (5, 21), (7, 27), (5, 22), (9, 29)])
def test_qf_columns_match_generator_action(d, N):
    # `_qf_column` keeps closed forms for D(d-2)'s eigenvalue and S(0,1)'s
    # image norm, since reading them through `generator_action` costs ten
    # times as much; this ties the forms to the reference copy of the
    # action.
    reps = list(iter_support_representatives(d, N))
    assert reps
    for rep in reps:
        assert solver._qf_column(rep) == column_from_generator_action(rep), rep


def test_system_to_json():
    system = build_qf_system(3, 13, QUTRIT_SUPPORT)
    payload = system.to_json()
    assert payload["d"] == 3 and payload["N"] == 13
    assert payload["normalization"] == [1, 2, 1]
    assert len(payload["rows"]) == 3


# ---------------------------------------------------------------------------
# solving


def test_qutrit_solution_is_unique_and_exact():
    system = build_qf_system(3, 13, QUTRIT_SUPPORT)
    solutions = solve_system(system)
    assert len(solutions) == 1
    solution = solutions[0]
    assert solution.xi == (Fraction(41, 405), Fraction(13, 81),
                           Fraction(26, 45))
    # normalization row (1,2,1) dotted with xi sums to one
    assert sum(s * x for s, x in zip((1, 2, 1), solution.xi)) == 1
    amplitudes = {o.representative: o.amplitude
                  for o in solution.code.orbits}
    assert amplitudes[(13, 0, 0)] == RadicalSum.sqrt(Fraction(41, 5),
                                                     Fraction(1, 9))
    assert amplitudes[(4, 9, 0)] == RadicalSum.sqrt(Fraction(1, 55),
                                                    Fraction(1, 9))
    assert amplitudes[(3, 5, 5)] == RadicalSum.sqrt(Fraction(1, 385),
                                                    Fraction(1, 18))
    assert validate(solution.code).passed


def test_solution_residuals_vanish():
    system = build_qf_system(3, 13, QUTRIT_SUPPORT)
    xi = solve_system(system)[0].xi
    for row in system.rows:
        assert sum(c * x for c, x in zip(row, xi)) == 0


def test_infeasible_support_yields_no_solutions():
    # Both members of this support see the same sign of the shifted phase
    # difference, so the first form admits no positive solution.
    system = build_qf_system(3, 13, ((13, 0, 0), (10, 3, 0)))
    assert solve_system(system) == []


@st.composite
def sparse_supports(draw, shapes=((3, 13), (3, 16), (5, 16), (5, 21),
                                  (7, 20), (7, 27))):
    """A sparse support of 2 to 4 orbits at one of the (d, N) `shapes`,
    grown greedily along a random order of the representatives."""
    d, N = draw(st.sampled_from(shapes))
    size = draw(st.integers(2, 4))
    support = []
    for rep in draw(st.permutations(list(iter_support_representatives(d, N)))):
        if len(support) < size and support_is_sparse(support + [rep]):
            support.append(rep)
    return d, N, tuple(support)


@given(sparse_supports())
@example((3, 13, QUTRIT_SUPPORT))
@settings(max_examples=100, deadline=None)
def test_amplitudes_square_to_xi_over_the_norm(case):
    d, N, support = case
    system = build_qf_system(d, N, support)
    for solution in solve_system(system):
        xi = dict(zip((o.representative for o in system.support), solution.xi))
        for orbit in solution.code.orbits:
            rep, amp = orbit.representative, orbit.amplitude
            assert amp * amp == RadicalSum.of(xi[rep] / basis_norm(rep))
            assert amp.to_float() > 0


@given(sparse_supports())
@example((3, 13, QUTRIT_SUPPORT))
@settings(max_examples=100, deadline=None)
def test_every_solution_passes_validate(case):
    # `search` does not run `validate`: the construction must guarantee
    # every structural check it makes.
    d, N, support = case
    for solution in solve_system(build_qf_system(d, N, support)):
        report = validate(solution.code)
        assert report.passed, (support, report.checks)


@given(sparse_supports(shapes=((3, 13), (3, 16), (5, 16), (5, 21), (5, 17),
                                (5, 22), (7, 30), (9, 29))),
       st.lists(st.fractions(min_value=Fraction(1, 50), max_value=1,
                             max_denominator=50), min_size=4, max_size=4))
@example((3, 13, QUTRIT_SUPPORT), [Fraction(1)] * 4)
@settings(max_examples=60, deadline=None)
def test_rows_decide_full_on_sparse_supports(case, squares):
    # On a solved ray, coupled flips decide `kl_full`.  On drawn positive
    # amplitudes sqrt(x), whose radicands mix, only positivity is used:
    # coupled flips make `kl_full` fail.  Flips couple exactly when two
    # members of the code meet (`flips_couple`'s docstring).  The shapes
    # hold both residue classes: members meet only at N = +-2 (mod d).
    d, N, support = case
    tables = PairTables(d, error_basis(d))

    def members_meet(code):
        members = [m for rep in code.support_representatives()
                   for m in expand_orbit(rep)]
        return any(meet(u, v) for u in members for v in members)

    for solution in solve_system(build_qf_system(d, N, support)):
        code = solution.code
        assert flips_couple(code, tables) == members_meet(code)
        assert flips_couple(code, tables) != \
            kl_full(code, _tables=tables).passed
    drawn = Code(d, N, N % d, tuple(
        OrbitAmplitude(tail_orbit(rep).representative, RadicalSum.sqrt(x))
        for rep, x in zip(support, squares)))
    assert flips_couple(drawn, tables) == members_meet(drawn)
    if flips_couple(drawn, tables):
        assert not kl_full(drawn, _tables=tables).passed


def test_solver_drops_zero_coordinates():
    # With four orbits the cone is spanned by rays supported on subsets;
    # solutions must never carry zero amplitudes.
    reps = list(iter_support_representatives(3, 13))
    for subset in itertools.combinations(reps, 4):
        members = [m for rep in subset for m in expand_orbit(rep)]
        if not is_effectively_sparse(members)[0]:
            continue
        system = build_qf_system(3, 13, subset)
        for solution in solve_system(system):
            assert all(x >= 0 for x in solution.xi)
            assert all(not o.amplitude.is_zero()
                       for o in solution.code.orbits)
            assert len(solution.code.orbits) == sum(1 for x in solution.xi
                                                    if x)
        break


def test_four_orbit_support_with_two_rays():
    # The positive cone on this support has two extreme rays, each on a
    # different three-orbit face.
    system = build_qf_system(3, 13, ((0, 11, 2), (1, 6, 6), (4, 9, 0),
                                     (7, 3, 3)))
    assert [s.xi for s in solve_system(system)] == [
        (Fraction(13, 72), 0, Fraction(5, 216), Fraction(16, 27)),
        (0, Fraction(26, 81), Fraction(10, 81), Fraction(35, 81)),
    ]


# Two rows of one to six small integers: rows 1 and 3 of a QF system.
two_row_matrices = st.integers(1, 6).flatmap(lambda m: st.lists(
    st.lists(st.integers(-3, 3), min_size=m, max_size=m),
    min_size=2, max_size=2))


def sympy_positive_rays(rows, n):
    """The ray finder as it was on sympy, kept as the reference."""
    rays = []
    for size in range(1, n + 1):
        for keep in itertools.combinations(range(n), size):
            basis = sympy.Matrix([[row[i] for i in keep]
                                  for row in rows]).nullspace()
            if len(basis) != 1:
                continue
            sign = 1 if basis[0][0] > 0 else -1
            vec = [sign * Fraction(int(x.p), int(x.q)) for x in basis[0]]
            if all(x > 0 for x in vec):
                full = [Fraction(0)] * n
                for i, x in zip(keep, vec):
                    full[i] = x
                rays.append(tuple(full))
    return rays


def scaled_to_first_entry(ray):
    first = next(x for x in ray if x)
    return tuple(Fraction(x) / first for x in ray)


@given(two_row_matrices)
@example([[0, 1, -2, 0, -1], [0, 0, 0, 1, -1]])
@settings(max_examples=200, deadline=None)
def test_positive_rays_match_sympy_reference(rows):
    # The example has a zero column (0), an opposite pair (1, 2) and a
    # positive triple (1, 3, 4).
    expected = sympy_positive_rays(rows, len(rows[0]))
    assert ([scaled_to_first_entry(r) for r in solver._positive_rays(*rows)]
            == [scaled_to_first_entry(r) for r in expected])


@pytest.mark.parametrize("d, N, sizes", [(3, 13, (3, 4)), (5, 16, (3,))])
def test_solutions_match_the_three_row_reference(d, N, sizes):
    # Rays read off rows 1 and 3 must be the rays of all three rows, on
    # every sparse support of these shapes.
    reps = list(iter_support_representatives(d, N))
    supports = 0
    for size in sizes:
        for subset in itertools.combinations(reps, size):
            if not support_is_sparse(subset):
                continue
            supports += 1
            system = build_qf_system(d, N, subset)
            expected = []
            for ray in sympy_positive_rays(system.rows, size):
                scale = sum(m * x for m, x in zip(system.normalization, ray))
                expected.append(tuple(x / scale for x in ray))
            expected.sort(reverse=True)
            assert [s.xi for s in solve_system(system)] == expected, subset
    assert supports == {(3, 13): 147, (5, 16): 16}[d, N]


def test_returned_rays_have_minimal_supports():
    # No solution's support may contain another's: every returned ray is
    # extreme and found once.
    reps = list(iter_support_representatives(3, 13))
    supports = solutions = 0
    for subset in itertools.combinations(reps, 4):
        members = [m for rep in subset for m in expand_orbit(rep)]
        if not is_effectively_sparse(members)[0]:
            continue
        supports += 1
        found = [frozenset(i for i, x in enumerate(s.xi) if x)
                 for s in solve_system(build_qf_system(3, 13, subset))]
        solutions += len(found)
        for a, b in itertools.permutations(found, 2):
            assert not a <= b, subset
    assert (supports, solutions) == (57, 64)


# ---------------------------------------------------------------------------
# prefilter soundness


def member_prefilter(support):
    """The prefilter read member by member: row 1 of `build_qf_system`
    needs a positive and a negative entry among the last shifted phase
    differences of all orbit members."""
    d = len(support[0])
    signs = set()
    for rep in support:
        for w in expand_orbit(rep):
            shifted = cyclic_shift(w, d - 1)
            diff = shifted[d - 2] - shifted[d - 1]
            if diff:
                signs.add(diff > 0)
    return len(signs) == 2


@pytest.mark.parametrize("d, N", [(3, 13), (5, 16)])
def test_prefilter_matches_the_member_loop_on_small_subsets(d, N):
    reps = list(iter_support_representatives(d, N))
    for k in (2, 3):
        for subset in itertools.combinations(reps, k):
            assert passes_prefilter(subset) == member_prefilter(subset), subset


@given(st.integers(3, 9).flatmap(lambda d: st.lists(
    st.lists(st.integers(0, 6), min_size=d, max_size=d).map(tuple),
    min_size=1, max_size=4)))
@example([(2, 1, 3)])
@example([(2, 2, 2), (0, 0, 0)])
@settings(max_examples=300, deadline=None)
def test_prefilter_matches_the_member_loop_on_any_vectors(support):
    # Tails in any order, eligible or not.
    assert passes_prefilter(support) == member_prefilter(support)


def test_prefilter_never_excludes_a_solvable_support():
    reps = list(iter_support_representatives(3, 13))
    for subset in itertools.combinations(reps, 3):
        members = [m for rep in subset for m in expand_orbit(rep)]
        if not is_effectively_sparse(members)[0]:
            continue
        if passes_prefilter(subset):
            continue
        system = build_qf_system(3, 13, subset)
        assert solve_system(system) == [], subset


# ---------------------------------------------------------------------------
# the three-orbit family


def test_family_support_shape():
    a, b, c = family_support(5)
    assert a == (16, 0, 0, 0, 0)
    assert b == (6, 10, 0, 0, 0)
    assert c == (0, 4, 4, 4, 4)
    with pytest.raises(InvalidInputError):
        family_support(3)
    with pytest.raises(InvalidInputError):
        family_support(6)


def test_family_d5_matches_shipped_code(corpus):
    code, note = family_code(5)
    shipped = corpus["c2_d5_n16"]
    assert code.support_representatives() == shipped.support_representatives()
    for ours, theirs in zip(code.orbits, shipped.orbits):
        assert ours.amplitude == theirs.amplitude
    assert note.solved_alpha_sq == (Fraction(1, 125), Fraction(2, 125125),
                                    Fraction(1, 131381250))


def test_family_d7_matches_shipped_code(corpus):
    code, note = family_code(7)
    shipped = corpus["c3_d7_n36"]
    assert code.support_representatives() == shipped.support_representatives()
    for ours, theirs in zip(code.orbits, shipped.orbits):
        assert ours.amplitude == theirs.amplitude
    assert note.solved_alpha_sq[0] == Fraction(13, 343)


def test_family_discrepancy_note():
    # The closed forms reproduce the first two solved amplitudes but not
    # the third, at every d; the note must report the mismatch as data.
    for d in (5, 7, 9):
        _, note = family_code(d)
        assert note.agreement == (True, True, False)
        payload = note.to_json()
        assert payload["agreement"] == [True, True, False]
        assert payload["d"] == d


def test_family_amplitudes_follow_closed_forms_in_d():
    # xi = alpha^2 * multinomial(N; u) per orbit.  xi_a and xi_b are the
    # published forms; xi_c is what normalization leaves, xi_a +
    # (d - 1) * xi_b + xi_c = 1, as the middle orbit has d - 1 members.
    for d in range(5, 41, 2):
        _, note = family_code(d)
        xi = tuple(a * basis_norm(u)
                   for a, u in zip(note.solved_alpha_sq, family_support(d)))
        assert xi == (
            Fraction(d ** 3 - 5 * d ** 2 + d - 1, 2 * d ** 3 * (d - 3)),
            Fraction((d - 1) ** 3, 2 * d ** 3 * (d - 3)),
            Fraction(d ** 2 - 1, 2 * d ** 2)), d
        assert xi[0] + (d - 1) * xi[1] + xi[2] == 1


# ---------------------------------------------------------------------------
# search


def test_search_rejects_bad_arguments():
    with pytest.raises(InvalidInputError):
        search(3, 12, 3)
    with pytest.raises(InvalidInputError):
        search(3, 13, 1)
    with pytest.raises(InvalidInputError):
        search(9, 21, 3)
    with pytest.raises(InvalidInputError, match="dimension"):
        search(0, 5, 3)


def test_search_d5_finds_published_support():
    result = search(5, 16, 3)
    assert result.exhausted
    supports = [c.support_representatives() for c in result.codes]
    assert ((0, 4, 4, 4, 4), (6, 10, 0, 0, 0), (16, 0, 0, 0, 0)) in supports
    for code in result.codes:
        assert validate(code).passed


def test_search_d3_finds_only_fully_verified_codes():
    result = search(3, 13, 3)
    assert result.exhausted
    supports = {c.support_representatives() for c in result.codes}
    assert supports == {
        ((1, 6, 6), (4, 9, 0), (7, 3, 3)),
        ((1, 6, 6), (4, 9, 0), (11, 1, 1)),
        ((1, 6, 6), (4, 9, 0), (13, 0, 0)),
    }
    # The (3,5,5)-supported code solves the quadratic forms but fails the
    # full check, so it must not be reported.
    assert tuple(sorted(QUTRIT_SUPPORT)) not in supports


def test_search_respects_candidate_cap():
    result = search(3, 13, 3, max_candidates=2,
                    verify=lambda code: False)
    assert result.candidates_tried == 2
    assert not result.exhausted
    assert result.codes == []


def test_search_candidates_are_the_member_wise_funnel(monkeypatch):
    # The pair table must hand the solver the same supports, in the same
    # order, as expanding members and testing every subset.
    solved = record_solved_supports(monkeypatch)
    for d, N in ((3, 13), (5, 16)):
        solved.clear()
        result = search(d, N, 3, verify=lambda code: False)
        expected = []
        for subset in itertools.combinations(
                iter_support_representatives(d, N), 3):
            members = [m for rep in subset for m in expand_orbit(rep)]
            if is_effectively_sparse(members)[0] and passes_prefilter(subset):
                expected.append(subset)
        assert solved == expected
        assert result.candidates_tried == len(expected)


def test_search_stops_at_its_time_budget(monkeypatch):
    # Each reading of the clock is one second later, so a 2.5 s budget
    # runs out at the third representative the self-compatibility prune
    # tests, before any subset is visited.
    ticks = itertools.count()
    monkeypatch.setattr(solver.time, "monotonic", lambda: next(ticks))
    result = search(3, 13, 3, max_seconds=2.5)
    assert not result.exhausted
    assert result.candidates_tried == 0 and result.codes == []


def test_search_reads_the_clock_for_every_subset_it_visits(monkeypatch):
    # The prune reads the clock once per representative (21 at (3, 13)),
    # then the subset loop once per subset visited, rejected ones too: a
    # budget of 21 + 10.5 ticks outlasts the prune and stops the loop at
    # its eleventh subset.  Two of the first ten are solved; reading the
    # clock only for tried candidates would let more through.
    reps = list(iter_support_representatives(3, 13))
    pruned = [r for r in reps if orbits_compatible(r, r)]
    visited = list(itertools.islice(itertools.combinations(pruned, 3), 10))
    expected = sum(support_is_sparse(s) and passes_prefilter(s)
                   for s in visited)
    assert (len(reps), expected) == (21, 2)
    ticks = itertools.count()
    monkeypatch.setattr(solver.time, "monotonic", lambda: next(ticks))
    result = search(3, 13, 3, max_seconds=len(reps) + 10.5,
                    verify=lambda code: False)
    assert not result.exhausted
    assert result.candidates_tried == expected and result.codes == []


def record_solved_supports(monkeypatch):
    """Route solver.build_qf_system through a wrapper that appends each
    support it is given."""
    solved = []
    build = solver.build_qf_system
    monkeypatch.setattr(solver, "build_qf_system",
                        lambda d, N, support: solved.append(support)
                        or build(d, N, support))
    return solved


@pytest.mark.parametrize("d, N", [(5, 21), (7, 27), (9, 29)])
def test_search_pruned_stream_is_the_unpruned_funnel(monkeypatch, d, N):
    # Dropping the orbits that fail against themselves removes only
    # subsets the funnel rejects: the same supports reach the solver, in
    # the same order.
    expected = [subset for subset in itertools.combinations(
                    iter_support_representatives(d, N), 3)
                if support_is_sparse(subset) and passes_prefilter(subset)]
    solved = record_solved_supports(monkeypatch)
    result = search(d, N, 3, verify=lambda code: False)
    assert solved == expected
    assert result.candidates_tried == len(expected)


@pytest.mark.parametrize("d, N, passing", [(5, 21, 11), (7, 27, 9)])
def test_search_asks_no_pair_of_an_orbit_that_fails_against_itself(
        monkeypatch, d, N, passing):
    # Such an orbit is asked about once, against itself, and then dropped.
    reps = list(iter_support_representatives(d, N))
    failing = {r for r in reps if not orbits_compatible(r, r)}
    assert len(reps) - len(failing) == passing
    asked = []
    check = combinatorics.orbits_compatible

    def recording(r, s):
        asked.append((r, s))
        return check(r, s)
    monkeypatch.setattr(combinatorics, "orbits_compatible", recording)
    monkeypatch.setattr(solver, "orbits_compatible", recording)
    search(d, N, 3)
    assert failing <= {r for r, s in asked if r == s}
    assert [(r, s) for r, s in asked if r != s and {r, s} & failing] == []


def test_search_rejects_nonpositive_time_budget():
    for budget in (0, -1, -0.5, float("nan")):
        with pytest.raises(InvalidInputError, match="max_seconds"):
            search(3, 13, 3, max_seconds=budget)


def test_search_with_custom_verifier():
    result = search(3, 13, 3, verify=lambda code: True)
    supports = {c.support_representatives() for c in result.codes}
    assert tuple(sorted(QUTRIT_SUPPORT)) in supports


@pytest.mark.parametrize("d, N, size", [(3, 16, 3), (5, 21, 3), (3, 13, 4),
                                         (5, 17, 3)])
def test_search_default_verify_matches_a_plain_full_check(d, N, size):
    # The flip coupling only rejects: the default returns what `kl_full`
    # alone does.  At (5, 17), N = 2 (mod 5), most solved codes are coupled.
    result = search(d, N, size)
    reference = search(d, N, size, verify=lambda code: kl_full(code).passed)
    assert result.codes and result.codes == reference.codes
    assert result.candidates_tried == reference.candidates_tried


def test_search_verifies_each_distinct_code_once(monkeypatch):
    # At k = 4 a ray on two or three orbits solves every support that
    # contains them, so one code comes back from many subsets; each is
    # verified once, and the output keeps every occurrence as before.
    solved = []
    solve = solver.solve_system

    def recording(system):
        solutions = solve(system)
        solved.extend(solution.code for solution in solutions)
        return solutions
    monkeypatch.setattr(solver, "solve_system", recording)
    calls = collections.Counter()

    def accept(code):
        return code.orbits[0].representative[0] % 2 == 0

    def verify(code):
        calls[code] += 1
        return accept(code)

    result = search(3, 16, 4, verify=verify)
    validated = {code for code in solved if validate(code).passed}
    assert len(solved) > 2 * len(set(solved))
    assert set(calls) == validated and set(calls.values()) == {1}
    expected = [code for code in solved if code in validated and accept(code)]
    expected.sort(key=lambda c: c.support_representatives())
    assert result.codes == expected
    assert 0 < len(set(result.codes)) < len(validated)


def test_search_rejects_candidate_cap_below_one():
    # A cap that admits no candidate would report an empty search as a
    # result.
    for cap in (0, -1):
        with pytest.raises(InvalidInputError):
            search(3, 13, 3, max_candidates=cap)


# ---------------------------------------------------------------------------
# pair tables shared by one search


def record_full_checks(monkeypatch):
    """Route solver.kl_full through a wrapper; each call appends its code,
    the `_tables` it was given and its report."""
    calls = []
    check = solver.kl_full

    def recording(code, *args, **kwargs):
        report = check(code, *args, **kwargs)
        calls.append((code, kwargs.get("_tables"), report))
        return report
    monkeypatch.setattr(solver, "kl_full", recording)
    return calls


@pytest.mark.parametrize("d, N", [(3, 13), (5, 16)])
def test_search_tables_give_the_reports_of_a_fresh_full_check(monkeypatch,
                                                              d, N):
    calls = record_full_checks(monkeypatch)
    search(d, N, 3)
    assert calls
    assert len({id(tables) for _, tables, _ in calls}) == 1
    for code, tables, report in calls:
        assert tables is not None
        assert reports_identical(report, kl_full(code))


@pytest.mark.parametrize("d, N", [(3, 16), (5, 17)])
def test_search_sends_only_passing_codes_to_the_full_check(monkeypatch, d, N):
    # The flip coupling rejects every code that fails, so each `kl_full`
    # the default `verify` makes passes.
    calls = record_full_checks(monkeypatch)
    result = search(d, N, 3)
    assert calls and all(report.passed for _, _, report in calls)
    assert {code for code, _, _ in calls} == set(result.codes)


def test_search_drops_its_tables_when_it_returns(monkeypatch):
    calls = record_full_checks(monkeypatch)
    search(3, 13, 3)
    tables = weakref.ref(calls[0][1])
    calls.clear()
    assert tables() is None


def test_search_refuses_inputs_beyond_its_caps():
    with pytest.raises(InvalidInputError, match="exceeds caps"):
        search(3, 70, 2)
    with pytest.raises(InvalidInputError, match="exceeds caps"):
        search(5, 16, 3, max_d=3)
    result = search(3, 70, 2, max_candidates=20, max_n=128)
    assert result.candidates_tried == 20 and not result.exhausted
