import random
from fractions import Fraction

import pytest

from quditcodes.arith import ExactComplex, InvalidInputError, RadicalSum, multinomial
from quditcodes.codes import Code, OrbitAmplitude
from quditcodes.operators import ErrorOperator, StateVector, apply_generator
from quditcodes.oracle import (dense_apply, dense_codewords, dense_expand,
                               dense_inner_product, dense_kl, dense_relabel,
                               dense_symmetric_vector, occupation_of,
                               states_agree)
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
    assert len(vec.terms) == multinomial(3, (2, 1, 0)).value() == 3
    assert all(occupation_of(s, 3) == (2, 1, 0) for s in vec.terms)


def test_dense_symmetric_vector_term_cap():
    with pytest.raises(InvalidInputError):
        dense_symmetric_vector((10, 10, 10), term_cap=100)


def test_dense_relabel_shifts_digits():
    vec = dense_relabel(dense_symmetric_vector((2, 1, 0)), 1)
    assert all(occupation_of(s, 3) == (0, 2, 1) for s in vec.terms)


def test_dense_inner_product_is_term_count():
    vec = dense_symmetric_vector((2, 1, 0))
    assert dense_inner_product(vec, vec) == ExactComplex.of(3)


def test_dense_expand_matches_symmetric_vector():
    psi = StateVector.basis((2, 1, 0)).scaled(ExactComplex.of(Fraction(1, 2)))
    expanded = dense_expand(psi)
    assert states_agree(expanded, psi)


def test_states_agree_detects_mismatch():
    psi = StateVector.basis((2, 1, 0))
    other = dense_symmetric_vector((1, 2, 0))
    assert not states_agree(other, psi)


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
    from quditcodes.codes import codeword
    code = corpus["qutrit13"]
    dense = dense_codewords(code)
    for k in range(code.d):
        assert states_agree(dense[k], codeword(code, k))


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
