import itertools
from fractions import Fraction

import pytest

from quditcodes.arith import ExactComplex, InvalidInputError, RadicalSum
from quditcodes.codes import (Code, OrbitAmplitude, code_from_json, codeword,
                              validate)
from quditcodes.combinatorics import (iter_support_representatives,
                                      support_is_sparse)
from quditcodes.operators import basis_norm, error_basis
from quditcodes.oracle import dense_kl
from quditcodes.solver import build_qf_system, family_code, solve_system
from quditcodes.verifier import (PairTables, flips_couple, kl_full,
                                 kl_reduced, qf_check, run_level)

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


@pytest.mark.parametrize("d, N, coupled", [(3, 16, 241), (5, 17, 25)])
def test_pair_flip_verdicts_match_a_rescan_of_the_table(d, N, coupled):
    # `flips_couple` reads one verdict per ordered pair table, decided the
    # first time the table is asked about; each must be what a scan of the
    # table's keys ((a*n + b)*d + i)*d + j gives.
    tables = PairTables(d, error_basis(d))
    n = len(tables.ops)
    flips = {a for a, op in enumerate(tables.ops) if op.kind in ("I", "S")}

    def rescan(o, p):
        for key in tables.pair(o, p):
            rest, j = divmod(key, d)
            pair, i = divmod(rest, d)
            a, b = divmod(pair, n)
            if a in flips and b in flips and i != j:
                return True
        return False
    reps = list(iter_support_representatives(d, N))
    verdicts = [tables.flips_couple(o, p) for o in reps for p in reps]
    assert verdicts == [rescan(o, p) for o in reps for p in reps]
    assert verdicts == [tables.flips_couple(o, p) for o in reps for p in reps]
    assert sum(verdicts) == coupled


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
