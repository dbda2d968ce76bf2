"""Error operators on the symmetric subspace and their combinatorial action.

The error basis consists of the identity together with the images of the
su(d) generators: dit flips S(j,k) = |j><k| + |k><j|, mixed flips
A(j,k) = -i|j><k| + i|k><j|, and phase differences D(l) = |l><l| -
|l+1><l+1|, each summed over the N sites.  On the (unnormalized)
permutation-invariant basis these act combinatorially:

    S(p,q)|S_u> = (u_p+1)|S_v> + (u_q+1)|S_w>
    A(p,q)|S_u> = -i(u_p+1)|S_v> + i(u_q+1)|S_w>
    D(l)  |S_u> = (u_l - u_{l+1})|S_u>

where v moves one count from q to p and w one count from p to q, and a
vector with a negative entry is the zero vector.  The A action is a
derived formula; the dense-tensor oracle validates it exactly.
`generator_action` is the reference copy of these formulas.  Two hot
paths restate them, each tied to it by a test:
`verifier.PairTables._index` (every image of an orbit, one sweep per code
word) and `solver._qf_column` (closed forms for the qf columns).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .arith import ExactComplex, InvalidInputError
from .combinatorics import (OccupationVector, basis_norm, check_occupation,
                            cyclic_shift, weight)


@dataclass(frozen=True)
class ErrorOperator:
    """One element of the error basis: kind 'I', 'S', 'A', or 'D'."""

    kind: str
    j: int = 0
    k: int = 0

    def name(self) -> str:
        if self.kind == "I":
            return "I"
        if self.kind == "D":
            return f"D({self.j})"
        return f"{self.kind}({self.j},{self.k})"

    @staticmethod
    def parse(text: str) -> "ErrorOperator":
        text = text.strip()
        if text == "I":
            return ErrorOperator("I")
        kind, rest = text[0], text[1:].strip("()")
        indices = [int(x) for x in rest.split(",")]
        if kind == "D":
            return ErrorOperator("D", indices[0])
        return ErrorOperator(kind, indices[0], indices[1])


def error_basis(d: int) -> List[ErrorOperator]:
    """The d**2 element basis: I, all S(j,k), all A(j,k), all D(l)."""
    ops = [ErrorOperator("I")]
    ops += [ErrorOperator("S", j, k) for j in range(d) for k in range(j + 1, d)]
    ops += [ErrorOperator("A", j, k) for j in range(d) for k in range(j + 1, d)]
    ops += [ErrorOperator("D", l) for l in range(d - 1)]
    return ops


class StateVector:
    """Sparse vector in the symmetric subspace, keyed by occupation vector.

    The basis is orthogonal but not orthonormal: <S_u|S_u> equals the
    multinomial coefficient of u.  Amplitudes are ExactComplex; zero
    amplitudes are never stored.
    """

    __slots__ = ("d", "N", "terms")

    def __init__(self, d: int, N: int,
                 terms: Mapping[OccupationVector, ExactComplex]):
        self.d = d
        self.N = N
        self.terms: Dict[OccupationVector, ExactComplex] = {
            u: a for u, a in terms.items() if not a.is_zero()
        }

    @classmethod
    def basis(cls, u: OccupationVector) -> "StateVector":
        return cls(len(u), sum(u), {tuple(u): ExactComplex.ONE})

    def scaled(self, factor) -> "StateVector":
        return StateVector(self.d, self.N,
                           {u: a * factor for u, a in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        return f"StateVector(d={self.d}, N={self.N}, {len(self.terms)} terms)"


def _bump(u: OccupationVector, up: int, down: int) -> Optional[OccupationVector]:
    if u[down] == 0:
        return None
    v = list(u)
    v[up] += 1
    v[down] -= 1
    return tuple(v)


def generator_action(op: ErrorOperator, u: OccupationVector
                     ) -> List[Tuple[OccupationVector, int, int]]:
    """op|S_u> as terms (v, re, im): |S_v> with coefficient re + i*im.

    The reference copy of the action formulas in the module docstring.
    Each coefficient is real (I, S, D) or imaginary (A), and zero
    coefficients are left out.
    """
    if op.kind == "I":
        return [(u, 1, 0)]
    if op.kind == "D":
        c = u[op.j] - u[op.j + 1]
        return [(u, c, 0)] if c else []
    p, q = op.j, op.k
    terms = []
    v = _bump(u, p, q)   # gains at p, loses at q
    if v is not None:
        c = u[p] + 1
        terms.append((v, c, 0) if op.kind == "S" else (v, 0, -c))
    w = _bump(u, q, p)
    if w is not None:
        c = u[q] + 1
        terms.append((w, c, 0) if op.kind == "S" else (w, 0, c))
    return terms


OrbitImage = Dict[OccupationVector, Tuple[int, int]]


def orbit_image(op: ErrorOperator, members: Iterable[OccupationVector]
                ) -> OrbitImage:
    """op|S_u> summed over `members`: each target v mapped to its nonzero
    Gaussian-integer coefficient (re, im), read off `generator_action`."""
    out: Dict[OccupationVector, List[int]] = {}
    for u in members:
        for v, re, im in generator_action(op, u):
            z = out.get(v)
            if z is None:
                out[v] = [re, im]
            else:
                z[0] += re
                z[1] += im
    return {v: (re, im) for v, (re, im) in out.items() if re or im}


def _check_fits(op: ErrorOperator, d: int) -> None:
    """Refuse an operator whose action reads a count outside u[0..d-1]:
    D(l) reads u[l] and u[l+1], and S(j,k) and A(j,k) read u[j] and u[k].
    S(j,j) and A(j,j), not in the error basis, are refused too."""
    if op.kind not in ("S", "A", "D"):
        raise InvalidInputError(f"unknown operator kind {op.kind!r}")
    read = (op.j, op.j + 1) if op.kind == "D" else (op.j, op.k)
    if min(read) < 0 or max(read) >= d or read[0] == read[1]:
        raise InvalidInputError(f"operator {op.name()} does not fit d={d}")


def apply_generator(op: ErrorOperator, psi: StateVector) -> StateVector:
    """Apply one error-basis element to a state, term by term."""
    if op.kind == "I":
        return psi
    _check_fits(op, psi.d)
    out: Dict[OccupationVector, ExactComplex] = {}
    for u, amp in psi.terms.items():
        for v, re, im in generator_action(op, u):
            term = amp.times_i(im) if im else amp * re
            out[v] = out[v] + term if v in out else term
    return StateVector(psi.d, psi.N, out)


def apply_logical_x(psi: StateVector, a: int) -> StateVector:
    """Relabel every basis vector by the a-th power of the logical shift."""
    return StateVector(psi.d, psi.N,
                       {cyclic_shift(u, a): amp for u, amp in psi.terms.items()})


def z_eigenexponent(u: OccupationVector) -> int:
    """Exponent m with clock-operator eigenvalue zeta_d**m on |S_u>."""
    return weight(u)


def inner_product(phi: StateVector, psi: StateVector) -> ExactComplex:
    """<phi|psi> = sum_u conj(amp_phi) * amp_psi * <S_u|S_u>."""
    if (phi.d, phi.N) != (psi.d, psi.N):
        raise InvalidInputError("state vectors live in different spaces")
    small, large = (phi, psi) if len(phi.terms) <= len(psi.terms) else (psi, phi)
    total = ExactComplex.ZERO
    for u, a in small.terms.items():
        b = large.terms.get(u)
        if b is None:
            continue
        if small is phi:
            total = total + a.conjugate() * b * basis_norm(u)
        else:
            total = total + b.conjugate() * a * basis_norm(u)
    return total


# ---------------------------------------------------------------------------
# Conjugation identities of the error basis under the logical shift/clock.


CONJUGATION_IDENTITIES = ("x_dagger_s_x", "x_dagger_a_x", "x_dagger_d_x", "z_dagger_s_z")


def check_conjugation_identity(d: int, N: int, identity: str,
                               basis_vectors: Iterable[OccupationVector],
                               indices: Optional[Tuple[int, int]] = None
                               ) -> Tuple[bool, Optional[dict]]:
    """Verify one conjugation identity on the given basis vectors, exactly,
    on the (v, re, im) terms of `generator_action`.

    The shift identities state that conjugating S(j,k), A(j,k), or D(l) by
    the logical shift decrements every index mod d: the `orbit_image` of
    cyclic_shift(u, 1) relabeled by -1 must equal the decremented, signed
    operator's `orbit_image` of u.  The clock identity multiplies the term of
    S(j,k)|S_u> that gains at j by zeta**(k-j) and the other by
    zeta**(j-k): each term's weight drop from u must be that exponent.
    Each basis vector must have length d and sum N (`check_occupation`).
    """
    if identity not in CONJUGATION_IDENTITIES:
        raise InvalidInputError(f"unknown identity {identity!r}")
    for u in basis_vectors:
        u = check_occupation(u, d, N)
        if identity == "z_dagger_s_z":
            j, k = indices if indices else (0, 1)
            op = ErrorOperator("S", j, k)
            _check_fits(op, d)
            for v, _, _ in generator_action(op, u):
                expected = (k - j if v[j] > u[j] else j - k) % d
                if (weight(u) - weight(v)) % d != expected:
                    return False, {"u": u, "branch": v,
                                   "expected_exponent": expected}
            continue
        if identity == "x_dagger_d_x":
            l = indices[0] if indices else 1
            if l == 0:
                raise InvalidInputError("shifted phase index leaves the basis range")
            op = ErrorOperator("D", l)
        else:
            j, k = indices if indices else (1, 2)
            op = ErrorOperator("S" if identity == "x_dagger_s_x" else "A", j, k)
        _check_fits(op, d)
        image, sign = _decremented(op, d)
        _check_fits(image, d)
        lhs = orbit_image(op, [cyclic_shift(u, 1)]).items()
        rhs = orbit_image(image, [u]).items()
        if ({cyclic_shift(v, -1): z for v, z in lhs}
                != {v: (sign * re, sign * im) for v, (re, im) in rhs}):
            return False, {"u": u, "identity": identity}
    return True, None


def _decremented(op: ErrorOperator, d: int) -> Tuple[ErrorOperator, int]:
    """X^dagger op X as (operator, sign): every index decremented, mod d for
    a pair, whose sort negates A since A(k,j) = -A(j,k)."""
    if op.kind == "D":
        return ErrorOperator("D", op.j - 1), 1
    a, b = (op.j - 1) % d, (op.k - 1) % d
    return (ErrorOperator(op.kind, min(a, b), max(a, b)),
            -1 if op.kind == "A" and a > b else 1)
