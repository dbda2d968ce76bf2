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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .arith import ExactComplex, InvalidInputError
from .combinatorics import OccupationVector, basis_norm, cyclic_shift, weight


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

    The one copy of the action formulas in the module docstring.  Each
    coefficient is real (I, S, D) or imaginary (A), and zero coefficients
    are left out.
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


def apply_generator(op: ErrorOperator, psi: StateVector) -> StateVector:
    """Apply one error-basis element to a state, term by term."""
    if op.kind == "I":
        return psi
    if op.kind not in ("S", "A", "D"):
        raise InvalidInputError(f"unknown operator kind {op.kind!r}")
    if max(op.j, op.k) >= psi.d:
        raise InvalidInputError(f"operator {op.name()} does not fit d={psi.d}")
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
    """Verify one conjugation identity on the given basis vectors.

    The shift identities state that conjugating S(j,k), A(j,k), or D(l) by
    the logical shift decrements every index mod d; they are checked
    exactly.  The clock identity mixes S and A with the real and imaginary
    parts of a d-th root of unity; it is checked by exact phase-exponent
    bookkeeping on each branch (and numerically in the float tests).
    """
    if identity not in CONJUGATION_IDENTITIES:
        raise InvalidInputError(f"unknown identity {identity!r}")
    for u in basis_vectors:
        u = tuple(u)
        psi = StateVector.basis(u)
        if identity in ("x_dagger_s_x", "x_dagger_a_x"):
            kind = "S" if identity == "x_dagger_s_x" else "A"
            j, k = indices if indices else (1, 2)
            lhs = apply_logical_x(
                apply_generator(ErrorOperator(kind, j, k), apply_logical_x(psi, 1)), -1)
            rhs = apply_generator(
                ErrorOperator(kind, *_sorted_pair((j - 1) % d, (k - 1) % d)), psi)
            # A(k,j) = -A(j,k): account for the index sort.
            if kind == "A" and _pair_flipped((j - 1) % d, (k - 1) % d):
                rhs = rhs.scaled(-1)
            if not _states_equal(lhs, rhs):
                return False, {"u": u, "identity": identity}
        elif identity == "x_dagger_d_x":
            l = indices[0] if indices else 1
            if l == 0:
                raise InvalidInputError("shifted phase index leaves the basis range")
            lhs = apply_logical_x(
                apply_generator(ErrorOperator("D", l), apply_logical_x(psi, 1)), -1)
            rhs = apply_generator(ErrorOperator("D", l - 1), psi)
            if not _states_equal(lhs, rhs):
                return False, {"u": u, "identity": identity}
        else:  # z_dagger_s_z
            j, k = indices if indices else (0, 1)
            ok, witness = _check_clock_conjugation(u, j, k)
            if not ok:
                return False, witness
    return True, None


def _sorted_pair(a: int, b: int) -> Tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _pair_flipped(a: int, b: int) -> bool:
    return a > b


def _states_equal(a: StateVector, b: StateVector) -> bool:
    if set(a.terms) != set(b.terms):
        return False
    return all((a.terms[u] - b.terms[u]).is_zero() for u in a.terms)


def _check_clock_conjugation(u: OccupationVector, j: int, k: int
                             ) -> Tuple[bool, Optional[dict]]:
    """Exact exponent form of the clock conjugation of a dit flip.

    Conjugating S(j,k) by the logical clock multiplies the branch that
    moves a count from k to j by zeta**(k-j) and the reverse branch by
    zeta**(j-k).  Equivalently the branch phase exponent equals the weight
    drop from input to output, which is what we verify.
    """
    d = len(u)
    w_in = weight(u)
    v = _bump(u, j, k)
    w = _bump(u, k, j)
    for out, expected in ((v, (k - j) % d), ((w), (j - k) % d)):
        if out is None:
            continue
        if (w_in - weight(out)) % d != expected:
            return False, {"u": u, "branch": out, "expected_exponent": expected}
    return True, None
