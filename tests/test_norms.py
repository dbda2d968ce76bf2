"""The integer norm <S_u|S_u> and the factored multinomial agree, and the
factored forms are built from a prime table that callers cannot change."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditcodes.arith import (FactoredNatural, InvalidInputError, factorize,
                              multinomial)
from quditcodes.operators import basis_norm


@st.composite
def occupations(draw, lengths=st.integers(3, 13), max_sum=144):
    """A tuple of non-negative counts whose sum is at most max_sum; entries
    are drawn from what is left, so skewed vectors are as likely as flat
    ones."""
    left, u = draw(st.integers(0, max_sum)), []
    for _ in range(draw(lengths)):
        c = draw(st.integers(0, left))
        u.append(c)
        left -= c
    return tuple(draw(st.permutations(u)))


@settings(max_examples=300, deadline=None)
@given(occupations())
def test_basis_norm_is_the_multinomial(u):
    quotient = math.factorial(sum(u))
    for c in u:
        quotient //= math.factorial(c)
    assert basis_norm(u) == quotient == multinomial(sum(u), u).value()


@settings(max_examples=300, deadline=None)
@given(occupations(lengths=st.integers(1, 8), max_sum=60))
def test_multinomial_factors_are_the_factorization_of_its_value(u):
    n = multinomial(sum(u), u)
    assert n.factors == factorize(n.value())


def test_factorial_matches_math_up_to_300():
    for n in range(301):
        assert FactoredNatural.factorial(n).value() == math.factorial(n)


@given(st.lists(st.integers(-5, 20), min_size=1, max_size=6), st.integers(0, 60))
def test_multinomial_refuses_bad_counts(counts, n):
    if min(counts) >= 0 and sum(counts) == n:
        assert multinomial(n, counts).value() >= 1
    else:
        with pytest.raises(InvalidInputError):
            multinomial(n, counts)


def test_basis_norm_refuses_negative_counts():
    with pytest.raises(InvalidInputError):
        basis_norm((3, -1, 2))


def test_returned_factors_do_not_share_the_prime_table():
    first = multinomial(30, (10, 10, 10))
    expected = dict(first.factors)
    first.factors[2] = 0
    first.factors[1_000_003] = 7
    assert multinomial(30, (10, 10, 10)).factors == expected

    fact = FactoredNatural.factorial(40)
    expected = dict(fact.factors)
    fact.factors.clear()
    assert FactoredNatural.factorial(40).factors == expected
    assert FactoredNatural.factorial(40).value() == math.factorial(40)
