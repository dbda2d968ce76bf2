"""Exact scalar arithmetic: factorization, sums of square roots, exact complexes.

Amplitudes of the codes handled by this library are of the form
``(rational) * sqrt(rational)``, and Knill-Laflamme matrix elements are
integer combinations of products of such numbers.  Everything here is
closed under the operations we need: sums of rational multiples of square
roots of distinct square-free integers form a ring, and the zero test is
exact because those square roots are linearly independent over Q.

Rationals are ``fractions.Fraction``; Python integers are already
arbitrary precision.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Mapping, Tuple, Union

Rational = Union[int, Fraction]

# Work budget for integer factorization.  Paper-scale radicands factor
# instantly; the cap makes pathological inputs fail loudly instead of
# hanging.
TRIAL_BOUND = 10**6


class UnfactorableError(Exception):
    """An integer exceeded the factorization work budget."""


class InvalidInputError(ValueError):
    """Operation preconditions were violated."""


# ---------------------------------------------------------------------------
# Integer factorization


def factorize(n: int) -> Dict[int, int]:
    """Factor a positive integer into a prime -> exponent map.

    Trial division alone: the cofactor left once f*f exceeds it is prime.
    Raises UnfactorableError when f passes ``TRIAL_BOUND`` first, so every
    n below about TRIAL_BOUND**2 = 10**12 factors, and no n hangs.
    """
    if n < 1:
        raise InvalidInputError(f"cannot factor non-positive integer {n}")
    factors: Dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    # 6k+-1 wheel.
    f = 5
    while f * f <= n:
        if f > TRIAL_BOUND:
            raise UnfactorableError(f"{n} has no prime factor below {TRIAL_BOUND}")
        for p in (f, f + 2):
            while n % p == 0:
                factors[p] = factors.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        factors[n] = 1
    return factors


def squarefree_split(n: int) -> Tuple[int, int]:
    """Write n = square_part**2 * squarefree_part and return the two parts."""
    square, squarefree = 1, 1
    for p, e in factorize(n).items():
        square *= p ** (e // 2)
        if e % 2:
            squarefree *= p
    return square, squarefree


# ---------------------------------------------------------------------------
# Radical sums


class RadicalSum:
    """Finite sum ``sum_i c_i * sqrt(r_i)`` with rational c_i and distinct
    square-free positive integer radicands r_i (r=1 is the rational part).

    Canonical: no zero coefficients; zero is the empty sum.  Equality and
    the zero test are exact.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, Fraction] | None = None):
        # Callers are expected to pass canonical terms; public constructors
        # below do the canonicalization.
        self.terms: Dict[int, Fraction] = dict(terms or {})

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "RadicalSum":
        return cls({})

    @classmethod
    def of(cls, value: Rational) -> "RadicalSum":
        q = Fraction(value)
        return cls({1: q} if q else {})

    @classmethod
    def sqrt(cls, radicand: Rational, coeff: Rational = 1) -> "RadicalSum":
        """coeff * sqrt(radicand) for a non-negative rational radicand."""
        r = Fraction(radicand)
        c = Fraction(coeff)
        if r < 0:
            raise InvalidInputError(f"negative radicand {r}")
        if r == 0 or c == 0:
            return cls.zero()
        # sqrt(p/q) = sqrt(p*q)/q.  p and q are coprime, so splitting each
        # on its own gives the squarefree part of p*q as a product, and
        # each factorization stays within its own budget.
        p_square, p_free = squarefree_split(r.numerator)
        q_square, q_free = squarefree_split(r.denominator)
        return cls({p_free * q_free:
                    Fraction(c * p_square * q_square, r.denominator)})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "RadicalSum") -> "RadicalSum":
        terms = dict(self.terms)
        for r, c in other.terms.items():
            s = terms.get(r, Fraction(0)) + c
            if s:
                terms[r] = s
            else:
                terms.pop(r, None)
        return RadicalSum(terms)

    def __neg__(self) -> "RadicalSum":
        return RadicalSum({r: -c for r, c in self.terms.items()})

    def __sub__(self, other: "RadicalSum") -> "RadicalSum":
        return self + (-other)

    def __mul__(self, other: Union["RadicalSum", Rational]) -> "RadicalSum":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return RadicalSum.zero()
            q = Fraction(other)
            return RadicalSum({r: c * q for r, c in self.terms.items()})
        terms: Dict[int, Fraction] = {}
        for r1, c1 in self.terms.items():
            for r2, c2 in other.terms.items():
                # sqrt(r1)*sqrt(r2) = g*sqrt((r1/g)*(r2/g)) with g = gcd;
                # the cofactors are coprime and square-free, so no
                # factorization is needed here.
                g = math.gcd(r1, r2)
                r = (r1 // g) * (r2 // g)
                c = c1 * c2 * g
                s = terms.get(r, Fraction(0)) + c
                if s:
                    terms[r] = s
                else:
                    terms.pop(r, None)
        return RadicalSum(terms)

    __rmul__ = __mul__

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return all(r == 1 for r in self.terms)

    def as_rational(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_rational():
            raise InvalidInputError(f"{self} is irrational")
        return self.terms[1]

    def to_float(self) -> float:
        return math.fsum(float(c) * math.sqrt(r) for r, c in self.terms.items())

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RadicalSum.of(other)
        return isinstance(other, RadicalSum) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for r in sorted(self.terms):
            c = self.terms[r]
            parts.append(str(c) if r == 1 else f"{c}*sqrt({r})")
        return " + ".join(parts)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> list:
        out = []
        for r in sorted(self.terms):
            c = self.terms[r]
            out.append({
                "radicand_num": r, "radicand_den": 1,
                "coeff_num": c.numerator, "coeff_den": c.denominator,
            })
        return out

    @classmethod
    def from_json(cls, data: list) -> "RadicalSum":
        total = cls.zero()
        for term in data:
            radicand = Fraction(term["radicand_num"], term["radicand_den"])
            coeff = Fraction(term["coeff_num"], term["coeff_den"])
            total = total + cls.sqrt(radicand, coeff)
        return total


class ExactComplex:
    """Exact complex number with RadicalSum real and imaginary parts."""

    __slots__ = ("re", "im")

    ZERO: "ExactComplex"
    ONE: "ExactComplex"
    I: "ExactComplex"

    def __init__(self, re: RadicalSum, im: RadicalSum | None = None):
        self.re = re
        self.im = im if im is not None else RadicalSum.zero()

    @classmethod
    def of(cls, value: Rational) -> "ExactComplex":
        return cls(RadicalSum.of(value))

    @classmethod
    def real(cls, value: RadicalSum) -> "ExactComplex":
        return cls(value)

    def __add__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re + other.re, self.im + other.im)

    def __neg__(self) -> "ExactComplex":
        return ExactComplex(-self.re, -self.im)

    def __sub__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __mul__(self, other: Union["ExactComplex", Rational]) -> "ExactComplex":
        if isinstance(other, (int, Fraction)):
            return ExactComplex(self.re * other, self.im * other)
        return ExactComplex(self.re * other.re - self.im * other.im,
                            self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def conjugate(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im)

    def times_i(self, k: Rational = 1) -> "ExactComplex":
        """self * (i * k)."""
        return ExactComplex(-(self.im * k), self.re * k)

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def to_complex(self) -> complex:
        return complex(self.re.to_float(), self.im.to_float())

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExactComplex)
                and self.re == other.re and self.im == other.im)

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"({self.re!r}) + ({self.im!r})i"


ExactComplex.ZERO = ExactComplex(RadicalSum.zero())
ExactComplex.ONE = ExactComplex(RadicalSum.of(1))
ExactComplex.I = ExactComplex(RadicalSum.zero(), RadicalSum.of(1))
