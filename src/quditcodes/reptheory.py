"""Symmetric-power dimensions, central characters, and branching counts.

Restricting the N-th symmetric power of the defining representation to
the group generated by clock and shift splits it into d-dimensional
irreps labeled by a unit residue eta; the irrep with eta congruent to N
appears with multiplicity dim/d and all others are absent.  All
root-of-unity sums reduce to full-period geometric sums, so everything
here is exact integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import InvalidInputError


@dataclass(frozen=True)
class CentralCharacterValue:
    """magnitude * zeta_d**phase_exponent, kept in exponent form."""

    magnitude: int
    phase_exponent: int
    d: int


def sym_dim(d: int, N: int) -> int:
    if d < 2 or N < 0:
        raise InvalidInputError(f"need d >= 2 and N >= 0, got ({d}, {N})")
    return math.comb(N + d - 1, N)


def central_character(d: int, N: int, l: int) -> CentralCharacterValue:
    """Character of the l-th central phase on the symmetric power."""
    return CentralCharacterValue(sym_dim(d, N), (l * N) % d, d)


def branching_multiplicity(d: int, N: int, eta: int) -> int:
    """Multiplicity of the eta-labeled d-dimensional irrep.

    The character inner product collapses to a single delta: summing
    zeta**(l(N - eta)) over a full period gives d when N and eta are
    congruent and 0 otherwise, leaving dim/d or 0.  d divides dim because
    N * C(N+d-1, N) = d * C(N+d-1, d) and gcd(N, d) = 1.
    """
    if math.gcd(N, d) != 1:
        raise InvalidInputError(
            f"branching requires gcd(N, d) = 1, got N={N}, d={d}")
    if not is_valid_code_space(d, N, eta):
        return 0
    return sym_dim(d, N) // d


def is_valid_code_space(d: int, N: int, eta: int) -> bool:
    """Whether the symmetric power contains d-dimensional irreps labeled eta."""
    if math.gcd(eta % d, d) != 1:
        raise InvalidInputError(f"eta={eta} is not a unit mod d={d}")
    return N % d == eta % d
