"""The integer norm <S_u|S_u> is the multinomial coefficient of u."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditcodes.arith import InvalidInputError
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
    assert basis_norm(u) == quotient


def test_basis_norm_refuses_negative_counts():
    with pytest.raises(InvalidInputError):
        basis_norm((3, -1, 2))

