import random
import re
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import chain, zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditcodes.arith import ExactComplex, InvalidInputError, RadicalSum
from quditcodes.codes import Code, OrbitAmplitude, codeword, codeword_orbits
from quditcodes.combinatorics import canonical_representative
from quditcodes.operators import (ErrorOperator, StateVector, apply_generator,
                                  basis_norm, error_basis, inner_product)
from quditcodes.oracle import (SLOT_BITS, CollapseError, class_images,
                               collapse, dense_apply, dense_codewords,
                               dense_kl, dense_relabel,
                               dense_symmetric_vector, occupation_of, pack,
                               states_agree, unpack)
import quditcodes.oracle as oracle
from quditcodes.verifier import kl_full

from conftest import reports_identical, shipped_code


def tiny_code():
    # One orbit, exactly normalized: d=3, N=4, support {(4,0,0)}.  It is a
    # valid (if useless) input whose reports are cheap to compare.
    return Code(3, 4, 1, (OrbitAmplitude((4, 0, 0), RadicalSum.of(1)),))


# ---------------------------------------------------------------------------
# digit-string states


def test_dense_symmetric_vector_counts():
    vec = dense_symmetric_vector((2, 1, 0))
    assert len(vec) == basis_norm((2, 1, 0)) == 3
    assert all(occupation_of(s, 3) == (2, 1, 0) for s in vec)


def test_dense_symmetric_vector_term_cap():
    with pytest.raises(InvalidInputError):
        dense_symmetric_vector((10, 10, 10), term_cap=100)


def test_dense_symmetric_vector_refuses_a_count_too_long_to_print():
    # multinomial(40000; 20000, 20000, 0) has over 12,000 digits, past
    # what int-to-str may format: the refusal must not print it.
    with pytest.raises(InvalidInputError):
        dense_symmetric_vector((20000, 20000, 0))


def test_dense_relabel_shifts_digits():
    vec = dense_relabel(dense_symmetric_vector((2, 1, 0)), 1, 3)
    assert all(occupation_of(s, 3) == (0, 2, 1) for s in vec)


def test_dense_inner_product_is_term_count():
    # The string sum of |a_s|**2, and the norm-weighted class sum that the
    # collapse hands to the Gram engine in its place.
    vec = dense_symmetric_vector((2, 1, 0))
    assert sum(re * re + im * im
               for re, im in (unpack(v, 2) for v in vec.values())) == 3
    assert sum(basis_norm(u) * (re * re + im * im)
               for u, (re, im) in collapse(vec, 3, 2).items()) == 3


def test_dense_expand_matches_symmetric_vector():
    # Dense states hold Gaussian integers, so psi = |S_u>/2 is compared
    # as 2 psi against the dense expansion of |S_u>.
    psi = StateVector.basis((2, 1, 0)).scaled(ExactComplex.of(Fraction(1, 2)))
    expanded = dense_symmetric_vector((2, 1, 0))
    assert states_agree(expanded, psi.scaled(2))
    assert not states_agree(expanded, psi)


def test_states_agree_detects_mismatch():
    psi = StateVector.basis((2, 1, 0))
    other = dense_symmetric_vector((1, 2, 0))
    assert not states_agree(other, psi)


def assert_lane_counts_exact(strings, d):
    """The lane counts of every digit, and the occupations read off them,
    equal bytes.count string by string."""
    counts = oracle._digit_counts(strings, range(d))
    assert [list(column) for column in counts] == [
        [s.count(c) for s in strings] for c in range(d)]
    state = dict.fromkeys(strings, 1)
    assert oracle._occupations(state, d) == [occupation_of(s, d)
                                             for s in state]


@st.composite
def digit_strings(draw):
    # Random bytes reduced mod d (digits only), mod d + 1 (one byte past
    # the digits) or not at all: no digit counts the bytes >= d.
    d, N = draw(st.integers(2, 13)), draw(st.integers(1, 64))
    count = draw(st.integers(1, 40))
    modulus = draw(st.sampled_from([d, d + 1, 256]))
    joined = draw(st.binary(min_size=N * count, max_size=N * count)).translate(
        bytes(x % modulus for x in range(256)))
    return d, [joined[i:i + N] for i in range(0, len(joined), N)]


@given(digit_strings())
@settings(max_examples=200, deadline=None)
def test_lane_counts_equal_occupation_of(case):
    d, strings = case
    assert_lane_counts_exact(strings, d)


@pytest.mark.parametrize("N", [255, 256, 300, 511, 766])
def test_lane_counts_stay_exact_past_one_byte(N):
    # A byte lane holds 255: longer strings are counted in blocks of 255
    # sites, so a count of N never wraps modulo 256.
    rng = random.Random(N)
    for d in (2, 3, 13):
        strings = [bytes(N), bytes([d - 1]) * N, bytes([d]) * N,
                   bytes(rng.randrange(d + 2) for _ in range(N))]
        for string in strings:
            assert_lane_counts_exact([string], d)
        assert_lane_counts_exact(strings, d)


# ---------------------------------------------------------------------------
# differential action tests


def test_dense_apply_matches_combinatorial_on_random_words():
    rng = random.Random(3)
    ops = [op for op in (ErrorOperator("S", 0, 1), ErrorOperator("A", 1, 2),
                         ErrorOperator("D", 0), ErrorOperator("S", 0, 2),
                         ErrorOperator("A", 0, 2), ErrorOperator("D", 1))]
    for _ in range(20):
        u = tuple(rng.randint(0, 3) for _ in range(3))
        if sum(u) == 0:
            continue
        word = [rng.choice(ops) for _ in range(3)]
        sparse = StateVector.basis(u)
        dense = dense_symmetric_vector(u)
        for op in word:
            sparse = apply_generator(op, sparse)
            dense = dense_apply(op, dense)
        assert states_agree(dense, sparse), (u, [op.name() for op in word])


def test_dense_codewords_match_combinatorial(corpus):
    # A dense code word carries a unit in its orbit's slot pair; with the
    # orbit amplitudes substituted it must equal the combinatorial one.
    code = corpus["qutrit13"]
    alphas = [ExactComplex.real(entry.amplitude) for entry in code.orbits]
    width = 2 * len(alphas)
    dense = dense_codewords(code)
    for k in range(code.d):
        image = collapse(dense[k], code.d, width)
        assert image == {u: unpack(pack([0] * 2 * o + [1]), width)
                         for u, o in codeword_orbits(code, k).items()}
        assert codeword(code, k).terms == {
            u: alphas[z.index(1) // 2] for u, z in image.items()}


# ---------------------------------------------------------------------------
# full-check equivalence


def test_dense_kl_matches_combinatorial_on_tiny_code():
    code = tiny_code()
    assert reports_identical(dense_kl(code), kl_full(code))


def test_dense_kl_matches_combinatorial_on_tampered_tiny_code():
    orbits = (OrbitAmplitude((4, 0, 0), RadicalSum.of(Fraction(1, 3))),
              OrbitAmplitude((1, 3, 0), RadicalSum.sqrt(Fraction(1, 5))))
    code = Code(3, 4, 1, orbits)
    dense = dense_kl(code)
    sparse = kl_full(code)
    assert not dense.passed
    assert reports_identical(dense, sparse)


# Two-orbit d=3 codes whose amplitudes are rationally related, so that some
# image terms cancel exactly for these amplitudes but not for others.  Both
# checkers must call such an element an arithmetic zero, not a structural
# one: a structural zero is one that holds whatever the amplitudes are.
RELATED_AMPLITUDE_CODES = [
    (3, (0, 2, 1), (0, 3, 0), Fraction(1, 2)),
    (3, (0, 2, 1), (2, 1, 0), Fraction(1)),
    (3, (0, 3, 0), (2, 1, 0), Fraction(2)),
    (4, (0, 2, 2), (0, 4, 0), Fraction(1, 3)),
    (4, (1, 2, 1), (1, 3, 0), Fraction(1, 2)),
    (4, (1, 2, 1), (3, 1, 0), Fraction(1, 2)),
    (5, (0, 3, 2), (2, 2, 1), Fraction(2)),
    (5, (0, 3, 2), (2, 3, 0), Fraction(1)),
    (5, (0, 4, 1), (2, 2, 1), Fraction(3)),
    (5, (0, 5, 0), (2, 3, 0), Fraction(4)),
    (5, (1, 2, 2), (1, 4, 0), Fraction(1, 3)),
    (5, (2, 2, 1), (2, 3, 0), Fraction(1, 2)),
    (5, (2, 2, 1), (4, 1, 0), Fraction(1, 3)),
]


@pytest.mark.parametrize(
    "N, first, second, ratio", RELATED_AMPLITUDE_CODES,
    ids=[f"N{N}-{''.join(map(str, u))}-{''.join(map(str, v))}-"
         f"{r.numerator}over{r.denominator}"
         for N, u, v, r in RELATED_AMPLITUDE_CODES])
def test_dense_kl_matches_combinatorial_on_related_amplitudes(N, first, second,
                                                              ratio):
    code = Code(3, N, N % 3 or 1,
                (OrbitAmplitude(first, RadicalSum.of(ratio)),
                 OrbitAmplitude(second, RadicalSum.of(1))))
    assert reports_identical(kl_full(code), dense_kl(code))


def test_dense_kl_matches_combinatorial_when_image_terms_cancel():
    # A(1,2) sends both members (1,2,0) and (1,0,2) of the one orbit to
    # (1,1,1), with coefficients +i and -i: that key drops out of the image
    # for every amplitude, so it must not count as an overlap.
    code = Code(3, 3, 1, (OrbitAmplitude((1, 2, 0), RadicalSum.of(1)),))
    assert reports_identical(kl_full(code), dense_kl(code))


def test_dense_kl_term_cap():
    code = shipped_code("c3_d7_n36")
    with pytest.raises(InvalidInputError):
        dense_kl(code, term_cap=1000)


# ---------------------------------------------------------------------------
# the collapse check and the packed slots


def test_collapse_rejects_a_changed_or_missing_string(monkeypatch):
    u = (2, 2, 1)
    op = ErrorOperator("S", 0, 1)
    sparse = apply_generator(op, StateVector.basis(u))
    good = dense_apply(op, dense_symmetric_vector(u))
    assert states_agree(good, sparse)
    victim = next(iter(good))
    changed = dict(good)
    changed[victim] += 1
    missing = dict(good)
    del missing[victim]
    for bad in (changed, missing):
        assert not states_agree(bad, sparse)
        with pytest.raises(ValueError):
            collapse(bad, 3, 2)

    # The same corruptions inside dense_kl: the check runs on every image.
    code = tiny_code()
    honest = dense_apply

    def corrupt(edit):
        def apply(op, state, term_cap=oracle.DEFAULT_TERM_CAP):
            out = dict(honest(op, state, term_cap))
            if op.kind == "S" and out:
                edit(out, next(iter(out)))
            return out
        return apply

    def change(out, s):
        out[s] += 1

    def delete(out, s):
        del out[s]

    for edit in (change, delete):
        monkeypatch.setattr(oracle, "dense_apply", corrupt(edit))
        with pytest.raises(ValueError, match="fails the collapse"):
            dense_kl(code)
    monkeypatch.setattr(oracle, "dense_apply", honest)
    assert reports_identical(dense_kl(code), kl_full(code))


def test_collapse_refuses_strings_of_two_lengths(monkeypatch):
    # Each string alone is one class of norm 1, so only the lengths can
    # refuse this state.
    state = {bytes(2): pack((1, 0)), bytes(3): pack((1, 0))}
    message = r"strings of lengths \[2, 3\] in one state$"
    with pytest.raises(CollapseError, match="^" + message):
        collapse(state, 3, 2)
    with pytest.raises(CollapseError, match="^" + message):
        dense_apply(ErrorOperator("D", 0), state)
    with pytest.raises(CollapseError,
                       match="^the state fails the collapse: " + message):
        next(class_images([ErrorOperator("I")], state, 3, 2))

    # An image that gains a string one site longer, of a class of norm 1.
    honest = dense_apply

    def longer(op, state, term_cap=oracle.DEFAULT_TERM_CAP):
        out = dict(honest(op, state, term_cap))
        if out:
            out[bytes(len(next(iter(out))) + 1)] = next(iter(out.values()))
        return out

    monkeypatch.setattr(oracle, "dense_apply", longer)
    word = dense_symmetric_vector((2, 1, 0))
    # A(0,1) is read off the S(0,1) images of the class parts.
    for op, applied in ((ErrorOperator("S", 0, 1), "S(0,1)"),
                        (ErrorOperator("A", 0, 1), "S(0,1)"),
                        (ErrorOperator("D", 0), "D(0)")):
        with pytest.raises(CollapseError,
                           match=rf"^dense image under {re.escape(applied)} "
                                 "fails the collapse: strings of lengths "
                                 r"\[3, 4\] in one state$"):
            next(class_images([op], word, 3, 2))


def test_collapse_refuses_a_value_wider_than_width():
    state = {bytes(1): pack((1, 0, 2))}
    assert collapse(state, 3, 3) == {(1, 0, 0): (1, 0, 2)}
    with pytest.raises(CollapseError,
                       match=r"^class \(1, 0, 0\) has more than 2 slots$"):
        collapse(state, 3, 2)


def test_dense_apply_refuses_an_operator_without_a_site_matrix():
    with pytest.raises(InvalidInputError,
                       match=r"^no site matrix for X\(0,1\)$"):
        dense_apply(ErrorOperator("X", 0, 1), dense_symmetric_vector((1, 1, 0)))
    # S(j,j) and A(j,j) are not in the error basis: a one-entry-per-column
    # site matrix would merge their two columns.
    for op in (ErrorOperator("S", 1, 1), ErrorOperator("A", 1, 1)):
        with pytest.raises(InvalidInputError,
                           match=rf"^no site matrix for {re.escape(op.name())}$"):
            dense_apply(op, dense_symmetric_vector((1, 2, 0)))


def test_dense_kl_reads_the_caps_before_any_dense_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("dense_apply called before the caps")

    monkeypatch.setattr(oracle, "dense_apply", refuse)
    code = Code(3, 67, 1, (OrbitAmplitude((67, 0, 0), RadicalSum.of(1)),))
    with pytest.raises(InvalidInputError,
                       match=r"^\(d=3, N=67\) exceeds caps "):
        dense_kl(code)


def test_pack_round_trips_signed_slots():
    limit = (1 << (SLOT_BITS - 1)) - 1
    for slots in ((0, 0), (1, -1), (-limit, limit), (limit, 0, -limit, 7),
                  (0, 0, 0, -1, 0, 0)):
        assert unpack(pack(slots), len(slots)) == slots
    with pytest.raises(InvalidInputError):
        pack((limit + 1,))


def test_dense_apply_compositions_stay_exact_at_d3_n5():
    # Four-operator words at N=5 reach slots up to N**4 = 625 with both
    # signs; the packed sums must agree exactly with the combinatorial word.
    rng = random.Random(11)
    ops = [op for op in error_basis(3) if op.kind != "I"]
    for u in ((5, 0, 0), (2, 2, 1), (1, 3, 1), (0, 4, 1)):
        for length in (3, 4):
            word = [rng.choice(ops) for _ in range(length)]
            sparse = StateVector.basis(u)
            dense = dense_symmetric_vector(u)
            for op in word:
                sparse = apply_generator(op, sparse)
                dense = dense_apply(op, dense)
            assert states_agree(dense, sparse), (u, [op.name() for op in word])


def test_dense_apply_refuses_slots_past_the_bound():
    # |out| <= N * max|in|: at N = 5, an input slot m is safe exactly when
    # 5 * m stays below 2**(SLOT_BITS - 1).
    half = 1 << (SLOT_BITS - 1)
    safe = (half - 1) // 5
    op = ErrorOperator("D", 0)
    for slots in ((safe, -safe), (-safe, 0, 0, safe)):
        out = dense_apply(op, {bytes(5): pack(slots)})
        assert out == {bytes(5): pack([5 * s for s in slots])}
    flip = ErrorOperator("A", 0, 1)
    string = bytes((0, 1, 0, 2, 0))
    for bad in (ErrorOperator("D", 0), flip):
        with pytest.raises(InvalidInputError):
            dense_apply(bad, {string: pack((safe + 1, 0))})
        with pytest.raises(InvalidInputError):
            dense_apply(bad, {string: pack((0, 0, -(safe + 1), 0))})


def times_i(slots, power):
    """i**power times each (re, im) slot pair."""
    for _ in range(power):
        slots = tuple(x for re, im in zip(slots[::2], slots[1::2])
                      for x in (-im, re))
    return slots


def naive_apply(op, state):
    """The site matrix of op applied at one site at a time: each string
    with digit c at site p sends i**phase times its value to the string
    with that site replaced, by slicing, by the row digit."""
    if op.kind == "I":
        return state
    matrix = oracle._site_matrix(op)
    out = {}
    for string, value in state.items():
        for p, digit in enumerate(string):
            if digit in matrix:
                row, phase = matrix[digit]
                target = string[:p] + bytes([row]) + string[p + 1:]
                out[target] = out.get(target, 0) + pack(
                    times_i(unpack(value, 8), phase))
    return {s: v for s, v in out.items() if v}


def test_dense_apply_matches_a_site_by_site_reference():
    # Random states with a few distinct signed multi-slot values, one of
    # them the negative of another so that images cancel: every operator
    # kind, including A with its two added values i*v and -i*v.
    rng = random.Random(20)
    for d in range(2, 8):
        for N in range(1, 10):
            for _ in range(2):
                first = pack([rng.randint(-99, 99)
                              for _ in range(rng.randint(1, 8))])
                values = [first, -first] + [
                    pack([rng.randint(-99, 99)
                          for _ in range(rng.randint(1, 8))])
                    for _ in range(2)]
                state = {bytes(rng.randrange(d) for _ in range(N)):
                         rng.choice(values)
                         for _ in range(rng.randint(1, 3 * d * N))}
                state = {s: v for s, v in state.items() if v}
                for op in error_basis(d):
                    assert dense_apply(op, state) == naive_apply(op, state), \
                        (d, N, op.name())


def test_diagonal_dense_apply_matches_a_site_by_site_reference():
    # D(l) reads its digit counts off the lanes: states of hundreds of
    # strings, with bytes no digit counts, and single strings long enough
    # to need more than one byte per lane.
    rng = random.Random(22)
    for d in (2, 3, 5, 13):
        values = [pack([rng.randint(-99, 99)
                        for _ in range(rng.randint(1, 8))]) for _ in range(3)]
        for N in (1, 7, 13, 64):
            state = {bytes(rng.randrange(d + 1) for _ in range(N)):
                     rng.choice(values) for _ in range(400)}
            for l in range(d - 1):
                op = ErrorOperator("D", l)
                assert dense_apply(op, state) == naive_apply(op, state), \
                    (d, N, l)
        for N in (255, 256, 300):
            for string in (bytes([1]) * N,
                           bytes(rng.randrange(d + 1) for _ in range(N))):
                state = {string: values[0]}
                for l in range(d - 1):
                    op = ErrorOperator("D", l)
                    assert dense_apply(op, state) == naive_apply(op, state), \
                        (d, N, l)


# ---------------------------------------------------------------------------
# a naive evaluator, so that the shared join does not certify itself


def naive_kl(code):
    """Every <i|Ea Eb|j> by apply_generator and inner_product, no index."""
    basis, d = error_basis(code.d), code.d
    words = [codeword(code, i) for i in range(d)]
    image = {(op, i): apply_generator(op, words[i])
             for op in basis for i in range(d)}
    constants, violations, checked = {}, {}, 0
    for ea in basis:
        for eb in basis:
            name = (ea.name(), eb.name())
            for i in range(d):
                for j in range(d):
                    value = inner_product(image[ea, i], image[eb, j])
                    checked += 1
                    if i == j == 0:
                        constants[name] = value
                    elif not (value if i != j
                              else value - constants[name]).is_zero():
                        violations[name + (i, j)] = value
    return checked, constants, violations


def matches_naive(report, naive):
    checked, constants, violations = naive
    return (report.passed == (not violations)
            and report.checked_elements == checked
            and {k: repr(v) for k, v in report.constants.items()}
            == {k: repr(v) for k, v in constants.items()}
            and {(v.e, v.f, v.i, v.j): repr(v.value) for v in report.violations}
            == {k: repr(v) for k, v in violations.items()})


@st.composite
def tiny_codes(draw):
    N = draw(st.integers(1, 5))
    occupations = [(a, b, N - a - b) for a in range(N + 1)
                   for b in range(N + 1 - a)]
    reps = sorted({canonical_representative(u) for u in occupations})
    chosen = draw(st.lists(st.sampled_from(reps), min_size=1, max_size=3,
                           unique=True))
    fractions = st.fractions(min_value=Fraction(1, 9), max_value=3,
                             max_denominator=9)
    amplitudes = st.one_of(fractions.map(RadicalSum.of),
                           fractions.map(RadicalSum.sqrt))
    return Code(3, N, N % 3 or 1,
                tuple(OrbitAmplitude(rep, draw(amplitudes)) for rep in chosen))


@given(tiny_codes())
@settings(max_examples=60, deadline=None)
def test_both_checkers_match_the_naive_evaluator(code):
    naive = naive_kl(code)
    assert matches_naive(kl_full(code), naive)
    assert matches_naive(dense_kl(code), naive)


# ---------------------------------------------------------------------------
# pattern-shared images against the per-operator path


def assert_shared_images_match(word, d, width):
    """class_images must equal collapse(dense_apply(op, word)) exactly,
    operator by operator."""
    basis = error_basis(d)
    for op, image in zip(basis, class_images(basis, word, d, width),
                         strict=True):
        assert image == collapse(dense_apply(op, word), d, width), op.name()


@given(tiny_codes())
@settings(max_examples=40, deadline=None)
def test_shared_images_match_per_operator_images(code):
    width = 2 * len(code.orbits)
    for word in dense_codewords(code):
        assert_shared_images_match(word, 3, width)


def test_shared_images_match_per_operator_images_on_qutrit13():
    word = dense_codewords(shipped_code("qutrit13"))[0]
    assert_shared_images_match(word, 3, 6)


@pytest.mark.parametrize("u", [(2, 1, 0, 1, 1), (0, 3, 0, 0, 2),
                               (1, 1, 1, 0, 0, 1, 0), (0, 0, 2, 0, 1, 0, 1)])
def test_shared_images_match_per_operator_images_at_d5_d7(u):
    assert_shared_images_match(dense_symmetric_vector(u), len(u), 2)


def test_shared_images_cancel_across_classes():
    # Two classes that A(0,1) maps onto one: a string of (2,1,0) gets
    # -i*a from two strings of (1,2,0) and +i*b from one of (3,0,0), so
    # b = 2a cancels it there, while S(0,1) leaves 4a.
    a, b = (1, -2), (2, -4)
    word = dict.fromkeys(dense_symmetric_vector((1, 2, 0)), pack(a))
    word.update(dict.fromkeys(dense_symmetric_vector((3, 0, 0)), pack(b)))
    assert_shared_images_match(word, 3, 2)
    basis = error_basis(3)
    images = dict(zip((op.name() for op in basis),
                      class_images(basis, word, 3, 2)))
    assert (2, 1, 0) not in images["A(0,1)"]
    assert images["S(0,1)"][2, 1, 0] == (4, -8)


def test_shared_images_keep_the_term_cap_of_each_image():
    # An assembled image is refused exactly when it holds more strings
    # than the cap, as dense_apply refuses its own output.  Two classes,
    # so that an image can exceed the cap while each class part's does not.
    word = {**dense_symmetric_vector((3, 1, 0)),
            **dense_symmetric_vector((1, 2, 1))}
    for op in error_basis(3)[1:]:
        strings = len(dense_apply(op, word))
        assert strings
        assert next(class_images([op], word, 3, 2, term_cap=strings))
        with pytest.raises(InvalidInputError):
            next(class_images([op], word, 3, 2, term_cap=strings - 1))


# ---------------------------------------------------------------------------
# runs: the collapse, the value groups and the D(l) classes read off the
# input


@pytest.mark.parametrize("op", [ErrorOperator("S", 0, 1),
                                ErrorOperator("A", 0, 1),
                                ErrorOperator("D", 0)],
                         ids=lambda op: op.name())
def test_dense_apply_refuses_strings_of_two_lengths(op):
    # Off the diagonal N was read from the first string: S(0,1) sent the
    # first state to {b"\x01": 1, b"\x02": 1}, a digit S(0,1) cannot
    # write.
    for state in ({b"\x00": 1, b"\x00\x01": 1},    # one value group
                  {b"\x00": 1, b"\x00\x01": 2}):   # one length per group
        with pytest.raises(CollapseError,
                           match=r"^strings of lengths \[1, 2\] in one "
                                 "state$"):
            dense_apply(op, state)
    # Lengths 2, 1 and 3 add up to N = 2 times three strings.
    with pytest.raises(CollapseError,
                       match=r"^strings of lengths \[1, 2, 3\] in one state$"):
        dense_apply(op, {b"\x00\x00": 1, b"\x00": 1, b"\x00\x00\x00": 1})


def counter_rule_message(state, d):
    """The refusal of the (class, value) Counter rule: pairs counted over
    the whole state, the first failing pair in first-appearance order."""
    seen = set()
    pairs = Counter(zip((occupation_of(s, d) for s in state), state.values()))
    for (u, _), n in pairs.items():
        if u in seen or n != basis_norm(u):
            return f"class {u} is not {basis_norm(u)} strings with one value"
        seen.add(u)
    return None


def corrupt_words(word, d):
    """Three corruptions of a code word, each in grouped string order: a
    class carrying two values, its strings interleaved with another
    class's; a class short one string; one string with a changed digit."""
    classes = defaultdict(list)
    for s in word:
        classes[occupation_of(s, d)].append(s)
    u, w = [t for t in classes if basis_norm(t) > 1][:2]
    mixed = {t: {s: word[s] for s in ss} for t, ss in classes.items()}
    mixed[u] = {s: word[s] + (i % 2) for i, s in enumerate(classes[u])}
    merged = dict(chain.from_iterable(
        zip_longest(mixed.pop(u).items(), mixed.pop(w).items(),
                    fillvalue=(None, None))))
    merged.pop(None, None)
    two_values = {**merged, **{s: v for part in mixed.values()
                               for s, v in part.items()}}
    short = dict(word)
    del short[classes[u][-1]]
    changed = dict(word)
    s = classes[w][0]
    changed[bytes([(s[0] + 1) % d]) + s[1:]] = changed.pop(s)
    return two_values, short, changed


@pytest.mark.parametrize("name", ["tiny", "qutrit13"])
def test_collapse_does_not_depend_on_string_order(name):
    code = tiny_code() if name == "tiny" else shipped_code("qutrit13")
    d, width = code.d, 2 * len(code.orbits)
    rng = random.Random(len(name))
    for word in dense_codewords(code)[:2]:
        grouped = collapse(word, d, width)
        items = list(word.items())
        rng.shuffle(items)
        assert collapse(dict(items), d, width) == grouped
    if name == "tiny":   # every class of the tiny code holds one string
        return
    word = dense_codewords(code)[0]
    for bad in corrupt_words(word, d):
        items = list(bad.items())
        rng.shuffle(items)
        for state in (bad, dict(items)):
            message = counter_rule_message(state, d)
            assert message is not None
            with pytest.raises(CollapseError, match=f"^{re.escape(message)}$"):
                collapse(state, d, width)


def corrupt_d0(edit, d):
    """dense_apply with edit applied to each D(0) image."""
    honest = dense_apply

    def apply(op, state, term_cap=oracle.DEFAULT_TERM_CAP):
        out = dict(honest(op, state, term_cap))
        if op.kind == "D" and op.j == 0:
            edit(out, state, d)
        return out
    return apply


def change_a_digit(out, state, d):
    # The last string, so the image keeps its string order: read by
    # position, the changed string would keep its old class.
    s = next(reversed(out))
    new = next(t for t in (s[:p] + bytes([c]) + s[p + 1:]
                           for p in range(len(s)) for c in range(d))
               if t not in state)
    out[new] = out.pop(s)


def drop_a_string(out, state, d):
    del out[next(iter(out))]


def rename_onto_another_class(out, state, d):
    s = next(iter(out))
    t = next(t for t in out if occupation_of(t, d) != occupation_of(s, d)
             and out[t] == out[s])
    out[t] = out.pop(s)


# D(0) sends three classes of the d = 5 word, three strings each, to one
# value (2, 0), so a string renamed from one onto another keeps its value.
# Every class of the tiny code holds one string, so a changed digit leaves
# only the new string's class to refuse.
D5_CODE = Code(5, 3, 3, (OrbitAmplitude((2, 1, 0, 0, 0), RadicalSum.of(1)),))


def test_diagonal_image_of_the_d5_word_repeats_a_value():
    word = dense_codewords(D5_CODE)[0]
    image = collapse(dense_apply(ErrorOperator("D", 0), word), 5, 2)
    assert sorted(image.values()) == [(1, 0), (2, 0), (2, 0), (2, 0)]


@pytest.mark.parametrize("edit, code", [
    (change_a_digit, tiny_code()), (change_a_digit, D5_CODE),
    (drop_a_string, D5_CODE), (rename_onto_another_class, D5_CODE)],
    ids=["change_a_digit-tiny", "change_a_digit-d5", "drop_a_string-d5",
         "rename_onto_another_class-d5"])
def test_reused_classes_do_not_hide_a_corrupt_diagonal_image(monkeypatch,
                                                             edit, code):
    word = dense_codewords(code)[0]
    monkeypatch.setattr(oracle, "dense_apply", corrupt_d0(edit, code.d))
    message = r"dense image under D\(0\) fails the collapse: class "
    with pytest.raises(CollapseError, match="^" + message):
        next(class_images([ErrorOperator("D", 0)], word, code.d, 2))
    with pytest.raises(CollapseError, match="^code word 0: " + message):
        dense_kl(code)


def test_dense_apply_gives_nothing_on_an_all_zero_state():
    state = dict.fromkeys(dense_symmetric_vector((2, 1, 1)), 0)
    for op in (ErrorOperator("S", 0, 1), ErrorOperator("A", 0, 1),
               ErrorOperator("D", 0)):
        assert dense_apply(op, state) == {}, op.name()


@pytest.mark.parametrize("u", [(2, 1, 0), (1, 2, 0, 2, 0)])
def test_one_value_in_two_runs_matches_a_site_by_site_reference(u):
    # One value v on the strings of u, in two runs split by a string of
    # the top digit only (value w) that S(0,1) and A(0,1) do not move:
    # every S(0,1) move adds v.
    d, v, w = len(u), pack((3, -1)), pack((5, 2))
    strings = list(dense_symmetric_vector(u))
    state = {strings[0]: v, bytes([d - 1]) * sum(u): w,
             **dict.fromkeys(strings[1:], v)}
    for op in error_basis(d):
        assert dense_apply(op, state) == naive_apply(op, state), op.name()
