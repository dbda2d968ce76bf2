import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from quditcodes.arith import (ExactComplex, InvalidInputError, RadicalSum,
                              UnfactorableError, factorize, squarefree_split)

rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
radicands = st.sampled_from([1, 2, 3, 5, 6, 7, 10, 13, 15])


def radical_sums():
    return st.lists(st.tuples(radicands, rationals), max_size=3).map(
        lambda pairs: sum((RadicalSum.sqrt(r, c) for r, c in pairs),
                          RadicalSum.zero()))


# ---------------------------------------------------------------------------
# factorization


@pytest.mark.parametrize("n", [1, 2, 12, 97, 2 ** 20, 3 * 5 * 7 * 11 * 13,
                               10 ** 12 + 39, 230945, 60500902])
def test_factorize_round_trip(n):
    product = 1
    for p, e in factorize(n).items():
        assert e > 0
        product *= p ** e
    assert product == n


def test_factorize_rejects_nonpositive():
    with pytest.raises(InvalidInputError):
        factorize(0)


@pytest.mark.parametrize("n, expected", [(1, (1, 1)), (4, (2, 1)),
                                         (12, (2, 3)), (45, (3, 5)),
                                         (205, (1, 205))])
def test_squarefree_split(n, expected):
    assert squarefree_split(n) == expected


@settings(deadline=None)
@given(st.integers(1, 10 ** 12 - 1))
def test_factorize_matches_sympy_below_the_trial_bound_squared(n):
    assert factorize(n) == sympy.factorint(n)
    square, squarefree = squarefree_split(n)
    assert square ** 2 * squarefree == n
    assert all(e == 1 for e in sympy.factorint(squarefree).values())


def test_factorize_refuses_two_primes_above_the_trial_bound_at_once():
    start = time.perf_counter()
    with pytest.raises(UnfactorableError):
        factorize((10 ** 6 + 3) * (10 ** 6 + 33))
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# radical sums


def test_sqrt_canonicalizes_rational_radicands():
    # (1/9) * sqrt(41/5) == (1/45) * sqrt(205)
    assert RadicalSum.sqrt(Fraction(41, 5), Fraction(1, 9)) == \
        RadicalSum.sqrt(205, Fraction(1, 45))
    assert RadicalSum.sqrt(12) == RadicalSum.sqrt(3, 2)
    assert RadicalSum.sqrt(0, 5) == RadicalSum.zero()


def test_sqrt_splits_numerator_and_denominator_apart():
    # Both are primes above the trial bound: their product does not factor
    # within the budget, but each of them does on its own.
    p, q = 10 ** 6 + 3, 10 ** 6 + 33
    assert RadicalSum.sqrt(Fraction(p, q)) == \
        RadicalSum({p * q: Fraction(1, q)})


def test_sqrt_rejects_negative_radicand():
    with pytest.raises(InvalidInputError):
        RadicalSum.sqrt(-2)


@given(radical_sums(), radical_sums(), radical_sums())
@settings(max_examples=60, deadline=None)
def test_radical_sum_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == RadicalSum.zero()
    assert a * RadicalSum.of(1) == a


@given(radical_sums(), radical_sums())
@settings(max_examples=60, deadline=None)
def test_radical_sum_float_agreement(a, b):
    assert (a * b).to_float() == pytest.approx(a.to_float() * b.to_float(),
                                               abs=1e-8)
    assert (a + b).to_float() == pytest.approx(a.to_float() + b.to_float(),
                                               abs=1e-9)


def test_zero_test_is_structural():
    # sqrt(8) - 2*sqrt(2) must cancel exactly.
    assert (RadicalSum.sqrt(8) - RadicalSum.sqrt(2, 2)).is_zero()
    assert not (RadicalSum.sqrt(2) - RadicalSum.sqrt(3)).is_zero()


def test_rational_queries():
    q = RadicalSum.of(Fraction(3, 7))
    assert q.is_rational() and q.as_rational() == Fraction(3, 7)
    with pytest.raises(InvalidInputError):
        RadicalSum.sqrt(2).as_rational()


def test_radical_sum_json_round_trip():
    a = RadicalSum.sqrt(205, Fraction(1, 45)) + RadicalSum.of(Fraction(-2, 3))
    assert RadicalSum.from_json(a.to_json()) == a


# ---------------------------------------------------------------------------
# exact complexes


def complex_of(z: ExactComplex) -> complex:
    return z.to_complex()


@given(radical_sums(), radical_sums(), radical_sums(), radical_sums())
@settings(max_examples=40, deadline=None)
def test_exact_complex_field_operations(ar, ai, br, bi):
    a = ExactComplex(ar, ai)
    b = ExactComplex(br, bi)
    assert complex_of(a * b) == pytest.approx(complex_of(a) * complex_of(b),
                                              abs=1e-7)
    assert complex_of(a + b) == pytest.approx(complex_of(a) + complex_of(b),
                                              abs=1e-9)
    assert complex_of(a.conjugate()) == pytest.approx(
        complex_of(a).conjugate(), abs=1e-9)
    assert complex_of(a.times_i(3)) == pytest.approx(complex_of(a) * 3j,
                                                     abs=1e-8)


def test_exact_complex_constants():
    assert ExactComplex.ZERO.is_zero()
    assert ExactComplex.ONE * ExactComplex.I == ExactComplex.I
    assert ExactComplex.I * ExactComplex.I == -ExactComplex.ONE
    assert ExactComplex.I.conjugate() == ExactComplex.I.times_i(1).times_i(1)
