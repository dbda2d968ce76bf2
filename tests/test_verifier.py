import itertools
import json
from collections import defaultdict
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quditcodes.arith import ExactComplex, InvalidInputError, RadicalSum
from quditcodes.codes import (Code, OrbitAmplitude, code_from_json, codeword,
                              validate)
from quditcodes.combinatorics import (canonical_representative, cyclic_shift,
                                      expand_orbit,
                                      iter_support_representatives,
                                      support_is_sparse)
from quditcodes.operators import (ErrorOperator, basis_norm, error_basis,
                                  orbit_image)
from quditcodes.oracle import dense_kl
from quditcodes.solver import (build_qf_system, family_code, family_support,
                               search, solve_system)
from quditcodes import verifier
from quditcodes.verifier import (PairTables, Violation, _Gram, flips_couple,
                                 kl_full, kl_reduced, qf_check, run_level)

from conftest import (DUPLICATE_ORBIT_MESSAGE, duplicate_orbit_json,
                      reports_identical)


def as_rational(value):
    assert value.im.is_zero()
    return value.re.as_rational()


def tampered_qutrit(code):
    """qutrit13 with the (4, 9, 0) amplitude corrupted, as in criterion 08."""
    return Code(code.d, code.N, code.eta, (
        code.orbits[0],
        OrbitAmplitude((4, 9, 0), RadicalSum.sqrt(Fraction(1, 55),
                                                  Fraction(1, 10))),
        code.orbits[2]))


# ---------------------------------------------------------------------------
# full check


def test_full_check_passes_on_strictly_sparse_codes(corpus):
    for name in ("c2_d5_n16", "c3_d7_n36"):
        report = kl_full(corpus[name])
        assert report.passed, name
        assert report.checked_elements == (corpus[name].d ** 2) ** 2 * \
            corpus[name].d ** 2


def test_full_check_finds_exact_leak_in_qutrit_code(corpus):
    report = kl_full(corpus["qutrit13"])
    assert not report.passed
    # The third orbit (3,5,5) is a repeated same-pair dit flip away from
    # its own cyclic relabeling, so second-order flip terms connect
    # distinct code words.  The leak is exactly rational.
    values = {(v.e, v.f, v.i, v.j): v.value for v in report.violations}
    assert len(values) == 24
    assert as_rational(values[("S(0,1)", "S(0,1)", 0, 1)]) == Fraction(104, 9)
    assert all(e[0] in "SA" and f[0] in "SA"
               for (e, f, _, _) in values)
    # Diagonal constants are still code-word independent.
    assert as_rational(report.constants[("S(0,1)", "S(0,1)")]) == \
        Fraction(338, 9)
    assert as_rational(report.constants[("I", "I")]) == 1


def test_full_check_finds_first_order_leak_in_eta6_code(corpus):
    report = kl_full(corpus["c4_d7_n20_eta6"])
    assert not report.passed
    values = {(v.e, v.f, v.i, v.j): v.value for v in report.violations}
    # A single dit flip connects |0> and |1> through the dense orbit.
    assert as_rational(values[("I", "S(0,1)", 1, 0)]) == Fraction(120, 49)


def test_structural_and_arithmetic_zeros_are_tracked(corpus):
    report = kl_full(corpus["qutrit13"])
    assert report.checked_elements == 729
    assert report.structural_zeros == 642
    assert report.arithmetic_zeros == 30


def test_full_check_counts_on_family_d11():
    code, _ = family_code(11)
    report = kl_full(code, max_n=128)
    assert report.passed
    assert (report.checked_elements, report.structural_zeros,
            report.arithmetic_zeros) == (1_771_561, 1_768_314, 1_718)


def test_full_check_passes_on_family_d13():
    code, _ = family_code(13)
    report = kl_full(code, max_n=144)
    assert report.passed
    assert report.checked_elements == 13 ** 6


def test_shared_tables_keep_each_codes_own_report(corpus):
    # qutrit13 and its criterion-08 tampered twin share a support, so the
    # second check reads only tables the first one built; the per-code
    # value memo must not carry the first code's values over.
    code = corpus["qutrit13"]
    tampered = tampered_qutrit(code)
    tables = PairTables(3, error_basis(3))
    first = kl_full(code, _tables=tables)
    second = kl_full(tampered, _tables=tables)
    assert reports_identical(first, kl_full(code))
    assert reports_identical(second, kl_full(tampered))
    assert not reports_identical(first, second)


# ---------------------------------------------------------------------------
# orbit indexes: one sweep per code word against `orbit_image`


def reference_index(d, ops, rep):
    """The index `add_images` builds from `orbit_image` of each operator
    over each code word of the orbit of `rep`."""
    tables = PairTables(d, ops)
    words = [[cyclic_shift(m, i) for m in expand_orbit(rep)] for i in range(d)]
    tables.add_images(rep, [[orbit_image(op, word) for word in words]
                            for op in ops])
    return tables._index(rep)


def assert_index_matches_reference(d, ops, rep):
    # Dict equality compares each vector's entries in order, (a, i) order;
    # the vectors themselves come in the order the reference meets them.
    index = PairTables(d, ops)._index(rep)
    reference = reference_index(d, ops, rep)
    assert index == reference, (d, rep)
    assert list(index) == list(reference), (d, rep)


def operator_lists(d):
    """The error basis, qf's three operators, the basis with every A(j,k)
    but no S(j,k), and the basis reversed."""
    basis = error_basis(d)
    return {"basis": basis,
            "qf": [ErrorOperator("I"), ErrorOperator("D", d - 2),
                   ErrorOperator("S", 0, 1)],
            "no S": [op for op in basis if op.kind != "S"],
            "reversed": basis[::-1]}


@pytest.mark.parametrize("ops", ["basis", "qf", "no S", "reversed"])
@pytest.mark.parametrize("d, N", [(3, 13), (3, 16), (5, 16), (5, 21), (5, 22),
                                  (7, 20), (7, 27), (7, 36), (9, 29)])
def test_orbit_index_matches_orbit_images_on_supports(d, N, ops):
    reps = list(iter_support_representatives(d, N))
    assert reps
    for rep in reps:
        assert_index_matches_reference(d, operator_lists(d)[ops], rep)


@pytest.mark.parametrize("ops", ["basis", "qf", "no S", "reversed"])
@pytest.mark.parametrize("d", [5, 7, 9, 11, 13])
def test_orbit_index_matches_orbit_images_on_family_supports(d, ops):
    for rep in family_support(d):
        assert_index_matches_reference(d, operator_lists(d)[ops], rep)


@st.composite
def vectors_and_operators(draw):
    """A vector at d = 3 or 5 with small entries, zeros allowed anywhere,
    and a list drawn from the error basis, repeats and any order allowed."""
    d = draw(st.sampled_from((3, 5)))
    rep = tuple(draw(st.lists(st.integers(0, 4), min_size=d, max_size=d)))
    ops = draw(st.lists(st.sampled_from(error_basis(d)), max_size=12))
    return rep, ops


@given(vectors_and_operators())
@example(((0, 2, 0), error_basis(3)))
@example(((3, 0, 2, 0, 1), error_basis(5)))
@example(((0, 0, 0, 0, 0), error_basis(5)))
@settings(max_examples=150, deadline=None)
def test_orbit_index_matches_orbit_images_on_any_vector(drawn):
    rep, ops = drawn
    assert_index_matches_reference(len(rep), ops, rep)


def test_orbit_index_keeps_a_repeated_operator():
    # A repeated operator gets entries of its own at each position in the
    # list, as `add_images` gives it.
    s, a = ErrorOperator("S", 0, 2), ErrorOperator("A", 0, 2)
    ops = [a, s, ErrorOperator("D", 1), a, ErrorOperator("I"), s,
           ErrorOperator("D", 1)]
    for rep in [(3, 5, 5), (4, 9, 0), (13, 0, 0)]:
        assert_index_matches_reference(3, ops, rep)
    index = PairTables(3, ops)._index((3, 5, 5))
    assert {floor // 9 for entries in index.values()
            for _, _, floor, _, _ in entries} == set(range(len(ops)))


def test_orbit_index_drops_a_cancelled_mixed_flip():
    # In code word 0 of the orbit of (0, 2, 0), (0, 1, 1) is reached from
    # (0, 2, 0) gaining at 2 (h = 1) and from (0, 0, 2) gaining at 1
    # (g = 1): S(1,2) gives 2 there and A(1,2) gives i(h - g) = 0, which
    # `orbit_image` drops.
    ops = [ErrorOperator("S", 1, 2), ErrorOperator("A", 1, 2)]
    assert orbit_image(ops[1], [(0, 2, 0), (0, 0, 2)]) == {}
    assert_index_matches_reference(3, ops, (0, 2, 0))
    index = PairTables(3, ops)._index((0, 2, 0))
    # Entry (left, right, floor, re, im) of operator a in code word i has
    # right = a*d*d + i.  In words 1 and 2 one member reaches (0, 1, 1),
    # so A(1,2) has entries there (right 10 and 11), but not in word 0.
    assert [(right, re, im) for _, right, _, re, im in index[0, 1, 1]] == \
        [(0, 2, 0), (1, 1, 0), (2, 1, 0), (10, 0, -1), (11, 0, 1)]


# ---------------------------------------------------------------------------
# the element loop against a plain loop over every cell


def unhalved_tables(code):
    """Every ordered orbit pair's table over the whole error basis, both
    halves kept: (o, p) -> {(a, b, i, j): (re, im)}, the sum of
    basis_norm(u) * conj(A(u)) * B(u) over the vectors u that image a of
    orbit o in code word i (A) and image b of orbit p in word j (B) share.
    A pair of orbits that shares no vector has no entry."""
    d = code.d
    basis = error_basis(d)
    index = defaultdict(list)   # u -> (orbit, operator, code word, coefficient)
    for o, entry in enumerate(code.orbits):
        members = expand_orbit(entry.representative)
        for i in range(d):
            word = [cyclic_shift(m, i) for m in members]
            for a, op in enumerate(basis):
                for u, z in orbit_image(op, word).items():
                    index[u].append((o, a, i, z))
    tables = defaultdict(dict)
    for u, entries in index.items():
        norm = basis_norm(u)
        for o, a, i, (ra, ia) in entries:
            for p, b, j, (rb, ib) in entries:
                table = tables[o, p]
                re, im = table.get((a, b, i, j), (0, 0))
                table[a, b, i, j] = (re + norm * (ra * rb + ia * ib),
                                     im + norm * (ra * ib - ia * rb))
    return tables


def reference_elements(code):
    """(e, f, i, j) -> the exact <i|Ee Ef|j> of every element whose images
    share a vector: sum_{o,p} alpha_o alpha_p table_op, in `RadicalSum`
    arithmetic (every amplitude is real)."""
    names = [op.name() for op in error_basis(code.d)]
    alphas = [entry.amplitude for entry in code.orbits]
    elements = {}
    for (o, p), table in unhalved_tables(code).items():
        product = alphas[o] * alphas[p]
        for (a, b, i, j), (re, im) in table.items():
            key = (names[a], names[b], i, j)
            term = ExactComplex(product * re, product * im)
            elements[key] = elements[key] + term if key in elements else term
    return elements


def reference_rule(elements):
    """`_Gram.check` and `check_all_pairs` as plain loops over every cell
    of every ordered operator pair, reading `elements` alone (never the
    engine's tables or cells): a mirrored pair (b, a) is evaluated from its
    own elements, and each diagonal agreement is decided by subtracting
    the constant from the value."""

    def check_pair(gram, a, b, cells, ref, vanish):
        d, report = gram.d, gram.report
        float_mode = report.mode == "float"
        zero_value = complex(0.0) if float_mode else ExactComplex.ZERO
        name = gram.name_pairs[a * gram.n + b]

        def is_zero(value):
            if isinstance(value, ExactComplex):
                return value.is_zero()
            return abs(value) <= report.tolerance

        def element(cell):
            report.checked_elements += 1
            value = elements.get((*name, *divmod(cell, d)))
            if value is None:
                report.structural_zeros += 1
                return zero_value, True
            if float_mode:
                value = value.to_complex()
            zero = is_zero(value)
            report.arithmetic_zeros += zero
            return value, zero

        constant, constant_zero = element(ref)
        report.constants[name] = constant
        if vanish and not constant_zero:
            report.violations.append(Violation(*name, *divmod(ref, d),
                                               constant))
        for cell in sorted(cells):
            i, j = divmod(cell, d)
            value, zero = element(cell)
            if i == j:
                zero = is_zero(value - constant)
            if not zero:
                report.violations.append(Violation(*name, i, j, value))

    def check(gram, pairs, cells, ref=0, vanish=False, mirror=False):
        for pair in pairs:
            a, b = divmod(pair, gram.n)
            check_pair(gram, a, b, cells, ref, vanish)
            if mirror and a != b:
                check_pair(gram, b, a, cells, ref, vanish)

    def check_all_pairs(gram):
        cells = set(range(1, gram.d ** 2))
        for a in range(gram.n):
            for b in range(gram.n):
                check_pair(gram, a, b, cells, 0, False)
        return gram.report

    return check, check_all_pairs


LOOP_LEVELS = {"full": kl_full, "reduced": kl_reduced, "qf": qf_check}


def assert_loop_matches_reference(monkeypatch, code, mode):
    """Every level that accepts `code` gives the report of the plain loop
    over the reference elements, and counts as checked but not structural
    exactly the cells its operator pairs share (the only cells the engine
    visits), a mirrored pair's twice."""
    elements = reference_elements(code)
    shared = defaultdict(set)   # (e, f) -> the cells its images share
    for e, f, i, j in elements:
        shared[e, f].add(i * code.d + j)
    check = _Gram.check
    visits = []

    def counted(gram, pairs, cells, ref=0, vanish=False, mirror=False):
        for pair in pairs:
            a, b = divmod(pair, gram.n)
            for x, y in [(a, b), (b, a)] if mirror and a != b else [(a, b)]:
                here = shared.get(gram.name_pairs[x * gram.n + y], set())
                visits.append((ref in here) + len(here & cells))
        check(gram, pairs, cells, ref, vanish, mirror)

    reference_check, reference_check_all_pairs = reference_rule(elements)
    for level, run in LOOP_LEVELS.items():
        if level == "qf" and not verifier.validate(code).passed:
            continue
        visits.clear()
        with monkeypatch.context() as patch:
            patch.setattr(_Gram, "check", counted)
            report = run(code, mode, max_n=128)
        # Operator pairs that `check_all_pairs` books at once share no cell.
        assert report.checked_elements - report.structural_zeros == \
            sum(visits), (level, mode)
        with monkeypatch.context() as patch:
            patch.setattr(_Gram, "check", reference_check)
            patch.setattr(_Gram, "check_all_pairs", reference_check_all_pairs)
            reference = run(code, mode, max_n=128)
        assert reports_identical(report, reference), (level, mode)


def loop_code(corpus, name):
    if name == "tampered":
        return tampered_qutrit(corpus["qutrit13"])
    if name.startswith("family"):
        return family_code(int(name[len("family"):]))[0]
    if name == "one_orbit":
        # |4,0,0> and its shifts: pairs such as (D(0), D(0)) have a nonzero
        # constant and diagonal cells that are structural zeros.
        return Code(3, 4, 1, (OrbitAmplitude((4, 0, 0), RadicalSum.of(1)),))
    return corpus[name]


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("name", [
    "qutrit13", "c2_d5_n16", "c3_d7_n36", "c4_d7_n20_eta6", "tampered",
    "family5", "family7", "family9", "one_orbit"])
def test_element_loop_matches_every_cell_reference(monkeypatch, corpus, name,
                                                   mode):
    assert_loop_matches_reference(monkeypatch, loop_code(corpus, name), mode)


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("d, N, k, found", [
    (3, 16, 3, 23), (5, 21, 3, 24), (7, 27, 3, 0), (5, 22, 3, 42)])
def test_element_loop_matches_reference_on_search_codes(monkeypatch, d, N, k,
                                                        found, mode):
    codes = search(d, N, k).codes
    assert len(codes) == found
    for code in codes:
        assert_loop_matches_reference(monkeypatch, code, mode)


def perturbed_c2(coeff):
    """c2_d5_n16 with its first orbit's amplitude coefficient replaced."""
    data = json.loads(resources.files("quditcodes.data")
                      .joinpath("c2_d5_n16.json").read_text())
    data["orbits"][0]["amplitude"]["coeff"] = coeff
    return code_from_json(data)


def test_float_mode_agrees_within_tolerance_across_value_classes():
    # 1/5 becomes (10^12 + 1) / (5 * 10^12): the diagonal elements of a
    # pair now differ from its constant by about 4e-12, so they fall in
    # other value classes, and only float mode's tolerance accepts them.
    code = perturbed_c2([10 ** 12 + 1, 5 * 10 ** 12])
    exact = kl_full(code)
    assert not exact.passed
    assert all(v.i == v.j for v in exact.violations)
    assert len(exact.violations) == 139
    floats = kl_full(code, mode="float")
    assert floats.passed
    assert (floats.checked_elements, floats.structural_zeros) == \
        (exact.checked_elements, exact.structural_zeros)


def signed_c2():
    """c2_d5_n16 with its second orbit's amplitude negated."""
    data = json.loads(resources.files("quditcodes.data")
                      .joinpath("c2_d5_n16.json").read_text())
    data["orbits"][1]["amplitude"]["sign"] = -1
    return code_from_json(data)


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("variant", ["wide", "signed"])
def test_packed_classes_hold_wide_and_signed_components(monkeypatch, corpus,
                                                        variant, mode):
    # A value class packs one signed field per radicand and part, each an
    # integer over the denominator of `_radicals`.  "wide": 1/5 becomes
    # (10^30 + 1) / (5 * 10^30), so some element's field needs more than
    # 64 bits.  "signed": a negative amplitude gives numerators of both
    # signs.  The wide variant is not normalized, so `validate` fails it
    # and `qf_check` would refuse it; the test lets it through, so that
    # the qf level's classes are compared too.
    if variant == "wide":
        code = perturbed_c2([10 ** 30 + 1, 5 * 10 ** 30])
        assert not validate(code).passed
        denominator = verifier._radicals(code)[0]
        assert max(abs(c * denominator)
                   for value in reference_elements(code).values()
                   for part in (value.re, value.im)
                   for c in part.terms.values()) > 2 ** 64
        monkeypatch.setattr(verifier, "validate",
                            lambda _: validate(corpus["c2_d5_n16"]))
    else:
        code = signed_c2()
        numerators = [c for _, row in verifier._radicals(code)[1]
                      for c in row]
        assert min(numerators) < 0 < max(numerators)
    assert verifier.validate(code).passed
    assert_loop_matches_reference(monkeypatch, code, mode)


def assert_shared_full_matches_reference(monkeypatch, codes, mode):
    """`kl_full` over one `PairTables` shared by `codes`, as `search` runs
    it, gives each code the report of the plain loop over its reference
    elements, and counts as checked but not structural exactly the
    elements whose images share a vector (its constants and cells cover
    every cell of every ordered operator pair)."""
    d = codes[0].d
    tables = PairTables(d, error_basis(d))
    for code in codes:
        elements = reference_elements(code)
        report = kl_full(code, mode, _tables=tables)
        assert report.checked_elements - report.structural_zeros == \
            len(elements), (code, mode)
        reference_check, reference_check_all_pairs = reference_rule(elements)
        with monkeypatch.context() as patch:
            patch.setattr(_Gram, "check", reference_check)
            patch.setattr(_Gram, "check_all_pairs", reference_check_all_pairs)
            reference = kl_full(code, mode, _tables=tables)
        assert reports_identical(report, reference), (code, mode)


class _Enough(Exception):
    pass


def flip_rejected_codes(d, N, k, count):
    """The first `count` distinct codes that `search(d, N, k)` solves and
    `flips_couple` rejects."""
    tables = PairTables(d, error_basis(d))
    rejected = []

    def verify(code):
        if flips_couple(code, tables):
            rejected.append(code)
            if len(rejected) == count:
                raise _Enough
        return False

    with pytest.raises(_Enough):
        search(d, N, k, verify=verify)
    return rejected


def doubled(code):
    """`code` with its first orbit's amplitude doubled."""
    first = code.orbits[0]
    return Code(code.d, code.N, code.eta, (
        OrbitAmplitude(first.representative, first.amplitude * 2),
        *code.orbits[1:]))


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("variant", ["accepted", "doubled"])
@pytest.mark.parametrize("d, N", [(3, 16), (5, 21)])
def test_shared_tables_match_reference_on_search_codes(monkeypatch, d, N,
                                                       variant, mode):
    # Every code `search` accepts, and the same code with one amplitude
    # doubled: then some diagonal element leaves its constant.
    codes = search(d, N, 3).codes
    assert codes
    if variant == "doubled":
        codes = [doubled(code) for code in codes]
        assert all(any(v.i == v.j for v in kl_full(code).violations)
                   for code in codes)
    assert_shared_full_matches_reference(monkeypatch, codes, mode)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_shared_tables_match_reference_on_flip_rejected_codes(monkeypatch,
                                                              mode):
    # `search` never hands these to `kl_full`: their flips couple two code
    # words, so they have off-diagonal violations, mirrored ones included.
    codes = flip_rejected_codes(5, 27, 3, 10)
    assert len(set(codes)) == 10
    assert codes[0].support_representatives() == (
        (0, 8, 8, 8, 3), (0, 13, 8, 3, 3), (8, 11, 6, 1, 1))
    violations = kl_full(codes[0]).violations
    assert len(violations) == 80 and all(v.i != v.j for v in violations)
    assert_shared_full_matches_reference(monkeypatch, codes, mode)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_shared_tables_match_reference_on_diagonal_structural_zeros(
        monkeypatch, corpus, mode):
    # Search codes hold every diagonal cell of a pair or none; one_orbit's
    # (D(0), D(0)) has a nonzero constant and diagonal structural zeros.
    one_orbit = loop_code(corpus, "one_orbit")
    codes = [one_orbit, corpus["qutrit13"], loop_code(corpus, "tampered"),
             one_orbit]
    assert_shared_full_matches_reference(monkeypatch, codes, mode)


def test_reports_from_shared_tables_hold_their_own_constants(corpus):
    # `check_all_pairs` starts each report's constants from a copy of the
    # tables' zero template for its mode, so writing into one report
    # leaves every other report, and the next one, as they were.
    code = corpus["qutrit13"]
    fresh = {mode: kl_full(code, mode) for mode in ("exact", "float")}
    tables = PairTables(3, error_basis(3))
    reports = {mode: kl_full(code, mode, _tables=tables)
               for mode in ("exact", "float")}
    assert reports["exact"].constants is not reports["float"].constants
    # (I, S(0,1)) shares no cell in qutrit13, so its constant is the
    # template's zero.
    absent = ("I", "S(0,1)")
    assert fresh["exact"].constants[absent].is_zero()
    for written, other in [("exact", "float"), ("float", "exact")]:
        constants = reports[written].constants
        constants[absent] = constants.pop(("I", "I"))
        constants[("X", "Y")] = constants[absent]
        if written == "exact":
            assert reports_identical(reports[other], fresh[other])
        for mode in ("exact", "float"):
            assert reports_identical(kl_full(code, mode, _tables=tables),
                                     fresh[mode]), (written, mode)


# ---------------------------------------------------------------------------
# flip coupling, read off the pair tables


def validated_solutions(d, N, size):
    """Every distinct code solved on a sparse support of `size` orbits
    that passes validation."""
    codes = {}
    for subset in itertools.combinations(iter_support_representatives(d, N),
                                         size):
        if support_is_sparse(subset):
            for solution in solve_system(build_qf_system(d, N, subset)):
                if validate(solution.code).passed:
                    codes.setdefault(solution.code, None)
    return list(codes)


@pytest.mark.parametrize("d, N, size, total, passing",
                         [(3, 13, 3, 25, 3), (3, 16, 3, 172, 23),
                          (5, 16, 3, 3, 3), (3, 13, 4, 24, 3)])
def test_rows_decide_full_on_every_validated_solution(d, N, size, total,
                                                      passing):
    tables = PairTables(d, error_basis(d))
    codes = validated_solutions(d, N, size)
    verdicts = [kl_full(code, _tables=tables).passed for code in codes]
    assert (len(codes), sum(verdicts)) == (total, passing)
    assert [not flips_couple(code, tables) for code in codes] == verdicts


@pytest.mark.parametrize("source", ["shipped", (3, 16, 3), (5, 21, 3),
                                    (5, 22, 3)],
                         ids=["shipped", "3-16-3", "5-21-3", "5-22-3"])
def test_pair_tables_are_the_upper_half_of_hermitian_tables(corpus, source):
    # Each ordered orbit pair's unhalved table is the conjugate transpose
    # of its mirror's, key for key, so `PairTables.pair` keeps only the
    # operator pairs a <= b and the engine books the rest as mirrors.
    codes = (list(corpus.values()) if source == "shipped"
             else search(*source).codes)
    assert codes
    for code in codes:
        d, k = code.d, len(code.orbits)
        basis = error_basis(d)
        n = len(basis)
        unhalved = unhalved_tables(code)
        tables = PairTables(d, basis)
        keys = [canonical_representative(entry.representative)
                for entry in code.orbits]
        for o, p in itertools.product(range(k), repeat=2):
            table = unhalved.get((o, p), {})
            assert {(b, a, j, i): (re, -im)
                    for (a, b, i, j), (re, im) in table.items()} == \
                unhalved.get((p, o), {})
            bound, _, pairs = tables.pair(keys[o], keys[p])
            entries = [(a, b, *divmod(cell, d), re, im)
                       for pair, listed in pairs.items()
                       for a, b in [divmod(pair, n)]
                       for cell, re, im in listed]
            # Grouped by operator pair a*n + b, one entry per cell.
            assert {(a, b, i, j): (re, im)
                    for a, b, i, j, re, im in entries} == {
                key: z for key, z in table.items() if key[0] <= key[1]}
            assert len(entries) == len({entry[:4] for entry in entries})
            assert all(listed for listed in pairs.values())
            assert bound == max((abs(x) for *_, re, im in entries
                                 for x in (re, im)), default=0)


@pytest.mark.parametrize("d, N, coupled", [(3, 16, 241), (5, 17, 25)])
def test_pair_flip_verdicts_match_a_rescan_of_the_table(d, N, coupled):
    # Each pair table carries its flip-coupling verdict, decided when the
    # table is built; each must be what a scan of the table's cells
    # (a*n + b -> [(i*d + j, re, im)]) gives.
    tables = PairTables(d, error_basis(d))
    n = len(tables.ops)
    flips = {a for a, op in enumerate(tables.ops) if op.kind in ("I", "S")}

    def rescan(o, p):
        for pair, entries in tables.pair(o, p)[2].items():
            a, b = divmod(pair, n)
            for cell, _, _ in entries:
                i, j = divmod(cell, d)
                if a in flips and b in flips and i != j:
                    return True
        return False
    reps = list(iter_support_representatives(d, N))
    verdicts = [tables.pair(o, p)[1] for o in reps for p in reps]
    assert verdicts == [rescan(o, p) for o in reps for p in reps]
    assert all(tables.pair(o, p) is tables.pair(o, p)
               for o in reps for p in reps)
    assert sum(verdicts) == coupled


def signed_qutrit13(o):
    """qutrit13 with orbit o's amplitude negated."""
    data = json.loads(resources.files("quditcodes.data")
                      .joinpath("qutrit13.json").read_text())
    data["orbits"][o]["amplitude"]["sign"] = -1
    return code_from_json(data)


@pytest.mark.parametrize("o", [0, 1, 2])
def test_flips_couple_gives_no_verdict_without_positive_amplitudes(corpus, o):
    # The verdict rests on every term of a coupled element being positive,
    # so a negative amplitude (which code files allow) or a zero one gives
    # False and leaves the code to `kl_full`.
    tables = PairTables(3, error_basis(3))
    assert flips_couple(corpus["qutrit13"], tables)
    assert not flips_couple(signed_qutrit13(o), tables)
    orbits = list(corpus["qutrit13"].orbits)
    orbits[o] = OrbitAmplitude(orbits[o].representative, RadicalSum.zero())
    assert not flips_couple(Code(3, 13, 1, tuple(orbits)), tables)


def test_rows_decide_full_on_shipped_tampered_and_family_codes(corpus):
    codes = dict(corpus, tampered=tampered_qutrit(corpus["qutrit13"]))
    for d in (5, 7, 9):
        codes[f"family{d}"] = family_code(d)[0]
    coupled = []
    for name, code in codes.items():
        tables = PairTables(code.d, error_basis(code.d))
        if flips_couple(code, tables):
            coupled.append(name)
        assert (name in coupled) != kl_full(code, max_n=128).passed, name
    assert coupled == ["qutrit13", "c4_d7_n20_eta6", "tampered"]


# ---------------------------------------------------------------------------
# reduced check


@pytest.mark.parametrize("check", [kl_full, kl_reduced, qf_check, dense_kl])
def test_checks_refuse_a_code_that_lists_one_orbit_twice(check):
    # Keyed by listing, the code would pass `kl_full` on the later
    # listing's amplitude.  `dense_kl` refuses before any dense work.
    with pytest.raises(InvalidInputError) as excinfo:
        check(code_from_json(duplicate_orbit_json()))
    assert str(excinfo.value) == DUPLICATE_ORBIT_MESSAGE


@pytest.mark.parametrize("check", [kl_full, kl_reduced, qf_check, dense_kl])
def test_checks_refuse_an_empty_code(check):
    with pytest.raises(InvalidInputError, match="^code is empty$"):
        check(Code(3, 13, 1, ()))


@pytest.mark.parametrize("read", [
    kl_full, kl_reduced, qf_check, dense_kl,
    lambda code: codeword(code, 0),
    lambda code: flips_couple(code, PairTables(3, error_basis(3))),
    lambda code: build_qf_system(3, 13, code.support_representatives()),
], ids=["kl_full", "kl_reduced", "qf_check", "dense_kl", "codeword",
        "flips_couple", "build_qf_system"])
def test_readers_refuse_an_empty_representative(read):
    # Only the API can list (): `check_occupation` refuses a short
    # representative in a code file.  Every reader keys orbits by
    # `canonical_representative`, which refuses it.
    code = Code(3, 13, 1, (OrbitAmplitude((), RadicalSum.of(1)),))
    with pytest.raises(InvalidInputError, match="^empty occupation vector$"):
        read(code)


def test_reduced_check_agrees_with_full_on_corpus(corpus):
    for name, code in corpus.items():
        reduced = kl_reduced(code)
        full = kl_full(code)
        assert reduced.passed == full.passed, name


@pytest.mark.parametrize("name, counts", [
    ("qutrit13", (358, 289, 21, 24)),
    ("c2_d5_n16", (10167, 9944, 113, 0)),
    ("c3_d7_n36", (86908, 86283, 317, 0)),
    ("c4_d7_n20_eta6", (86908, 84597, 317, 1686)),
])
def test_reduced_check_counts_on_corpus(corpus, name, counts):
    # (checked, structural zeros, arithmetic zeros, violations)
    report = kl_reduced(corpus[name])
    assert (report.checked_elements, report.structural_zeros,
            report.arithmetic_zeros, len(report.violations)) == counts


def test_reduced_check_is_smaller_than_full(corpus):
    code = corpus["c2_d5_n16"]
    assert kl_reduced(code).checked_elements < kl_full(code).checked_elements


# ---------------------------------------------------------------------------
# quadratic-form check


def test_qf_check_values_on_qutrit(corpus):
    report = qf_check(corpus["qutrit13"])
    assert report.passed
    assert report.constants[("I", "D(1)")].is_zero()
    assert as_rational(report.constants[("D(1)", "D(1)")]) == 26
    assert as_rational(report.constants[("S(0,1)", "S(0,1)")]) == \
        Fraction(338, 9)


def test_qf_check_reports_each_failing_form():
    # The qutrit support with xi = 1/4 on every member: a valid code off
    # the solution ray, so all three forms fail at the last code word.
    support = ((13, 0, 0), (4, 9, 0), (3, 5, 5))
    code = Code(3, 13, 1, tuple(
        OrbitAmplitude(u, RadicalSum.sqrt(Fraction(1, 4)
                                          / basis_norm(u)))
        for u in support))
    assert validate(code).passed
    report = qf_check(code)
    assert (report.checked_elements, report.structural_zeros,
            report.arithmetic_zeros) == (5, 0, 0)
    assert {k: as_rational(v) for k, v in report.constants.items()} == {
        ("I", "D(1)"): Fraction(-5, 2), ("D(1)", "D(1)"): Fraction(81, 2),
        ("S(0,1)", "S(0,1)"): 35}
    assert {(v.e, v.f, v.i, v.j): as_rational(v.value)
            for v in report.violations} == {
        ("I", "D(1)", 2, 2): Fraction(-5, 2),
        ("D(1)", "D(1)", 2, 2): Fraction(107, 2),
        ("S(0,1)", "S(0,1)", 2, 2): Fraction(39, 2)}


def test_qf_check_passes_on_validated_corpus(corpus):
    assert qf_check(corpus["c2_d5_n16"]).passed
    assert qf_check(corpus["c3_d7_n36"]).passed


def test_qf_check_refuses_invalid_codes(corpus):
    with pytest.raises(InvalidInputError, match="sparse"):
        qf_check(corpus["c4_d7_n20_eta6"])


def test_qf_pass_does_not_imply_full_pass(corpus):
    # The quadratic forms only cover same-pair flips, so the qutrit code
    # satisfies them while failing the full check: the reduction to three
    # scalars is sound only for strictly sparse supports.
    code = corpus["qutrit13"]
    assert qf_check(code).passed
    assert not kl_full(code).passed


# ---------------------------------------------------------------------------
# plumbing


def test_run_level_dispatch(corpus):
    code = corpus["c2_d5_n16"]
    for level in ("full", "reduced", "qf"):
        report = run_level(code, level)
        assert report.level == level and report.passed
    with pytest.raises(InvalidInputError):
        run_level(code, "extra")


def test_scale_caps(corpus):
    code = corpus["qutrit13"]
    with pytest.raises(InvalidInputError):
        kl_full(code, max_n=10)
    big = Code(15, 16, 1, corpus["c2_d5_n16"].orbits)
    with pytest.raises(InvalidInputError):
        kl_full(big)


def test_float_mode(corpus):
    report = kl_full(corpus["c2_d5_n16"], mode="float")
    assert report.passed
    report = kl_full(corpus["qutrit13"], mode="float")
    assert not report.passed
    assert any(abs(v.value) > 1e-6 for v in report.violations)


def test_unknown_mode_or_bad_tolerance_is_refused(corpus):
    # Mode names are case-sensitive: "Float" is neither exact nor float.
    code = corpus["c2_d5_n16"]
    with pytest.raises(InvalidInputError, match="mode"):
        kl_full(code, mode="Float")
    with pytest.raises(InvalidInputError, match="mode"):
        run_level(code, "full", "bogus")
    with pytest.raises(InvalidInputError, match="tolerance"):
        kl_full(code, mode="float", tolerance=0.5)
    with pytest.raises(InvalidInputError, match="mode"):
        qf_check(code, mode="FLOAT")
    with pytest.raises(InvalidInputError, match="mode"):
        kl_reduced(code, mode="")


def reference_json(report):
    """`KLReport.to_json` with every constant and violation rendered on
    its own, value by value."""
    def render(value):
        z = value.to_complex() if isinstance(value, ExactComplex) else complex(value)
        return z.real, z.imag

    constants = []
    for (e, f), value in sorted(report.constants.items()):
        re, im = render(value)
        constants.append({"e": e, "f": f, "re": re, "im": im})
    violations = []
    for v in sorted(report.violations, key=lambda v: (v.e, v.f, v.i, v.j)):
        re, im = render(v.value)
        violations.append({"e": v.e, "f": v.f, "i": v.i, "j": v.j,
                           "value": {"re": re, "im": im}})
    return {"level": report.level, "pass": report.passed,
            "mode": report.mode, "tolerance": report.tolerance,
            "checked_elements": report.checked_elements,
            "structural_zeros": report.structural_zeros,
            "arithmetic_zeros": report.arithmetic_zeros,
            "constants": constants, "violations": violations}


@pytest.mark.parametrize("name, level, mode", [
    (name, level, "exact") for name in ("qutrit13", "c2_d5_n16", "c3_d7_n36",
                                        "c4_d7_n20_eta6")
    for level in ("full", "reduced", "qf")
    if (name, level) != ("c4_d7_n20_eta6", "qf")] + [
    ("c3_d7_n36", "full", "float")])
def test_report_to_json_renders_each_shared_value_once(corpus, name, level,
                                                       mode):
    # The checks of a construct-verify run (eta6 fails validation, so qf
    # refuses it): rendering each shared value object once must give what
    # rendering every constant and violation separately gives.
    report = run_level(corpus[name], level, mode)
    assert report.to_json() == reference_json(report)


def test_report_to_json(corpus):
    report = kl_full(corpus["qutrit13"])
    payload = report.to_json()
    assert payload["pass"] is False
    assert payload["level"] == "full"
    assert payload["checked_elements"] == 729
    assert len(payload["violations"]) == 24
    first = payload["violations"][0]
    assert set(first) == {"e", "f", "i", "j", "value"}
    assert isinstance(first["value"]["re"], float)
    assert len(payload["constants"]) == len(report.constants)
