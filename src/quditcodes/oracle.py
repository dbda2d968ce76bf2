"""Brute-force reference implementation over explicit digit strings.

Everything here works in the full N-site computational basis (strings of
base-d digits), deriving operator actions from the single-site matrices
alone.  It deliberately shares no code with the combinatorial action
formulas; agreement between the two paths is the correctness gate for
those formulas, and `dense_kl` re-runs the full matrix-element check
with no combinatorial shortcuts.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Tuple

from sympy.utilities.iterables import multiset_permutations

from .arith import ExactComplex, InvalidInputError, RadicalSum, multinomial
from .codes import Code
from .combinatorics import OccupationVector, expand_orbit
from .operators import ErrorOperator, StateVector, error_basis
from .verifier import KLReport, Violation

DEFAULT_TERM_CAP = 200_000

DigitString = bytes


class DigitStringState:
    """Sparse vector over length-N digit strings."""

    __slots__ = ("d", "N", "terms")

    def __init__(self, d: int, N: int,
                 terms: Mapping[DigitString, ExactComplex]):
        self.d = d
        self.N = N
        self.terms: Dict[DigitString, ExactComplex] = {
            s: a for s, a in terms.items() if not a.is_zero()
        }

    def __add__(self, other: "DigitStringState") -> "DigitStringState":
        terms = dict(self.terms)
        for s, a in other.terms.items():
            terms[s] = terms[s] + a if s in terms else a
        return DigitStringState(self.d, self.N, terms)

    def scaled(self, factor) -> "DigitStringState":
        return DigitStringState(
            self.d, self.N, {s: a * factor for s, a in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms


def occupation_of(string: DigitString, d: int) -> OccupationVector:
    return tuple(string.count(x) for x in range(d))


def dense_symmetric_vector(u: Iterable[int],
                           term_cap: int = DEFAULT_TERM_CAP) -> DigitStringState:
    """Amplitude 1 on every distinct rearrangement of the multiset of u."""
    u = tuple(u)
    d, N = len(u), sum(u)
    count = multinomial(N, u).value()
    if count > term_cap:
        raise InvalidInputError(
            f"{count} rearrangements of {u} exceed the term cap {term_cap}")
    digits = [x for x, n in enumerate(u) for _ in range(n)]
    terms = {bytes(perm): ExactComplex.ONE
             for perm in multiset_permutations(digits, N)}
    return DigitStringState(d, N, terms)


def _site_matrix(op: ErrorOperator) -> Dict[int, List[Tuple[int, int]]]:
    """column digit -> [(row digit, phase code)]; phase codes 0..3 mean i**code."""
    if op.kind == "S":
        return {op.k: [(op.j, 0)], op.j: [(op.k, 0)]}
    if op.kind == "A":
        # -i|j><k| + i|k><j|
        return {op.k: [(op.j, 3)], op.j: [(op.k, 1)]}
    if op.kind == "D":
        return {op.j: [(op.j, 0)], op.j + 1: [(op.j + 1, 2)]}
    raise InvalidInputError(f"no site matrix for {op.name()}")


def _phased(amp: ExactComplex, code: int, memo: dict) -> ExactComplex:
    if code == 0:
        return amp
    key = (id(amp), code)
    cached = memo.get(key)
    if cached is None:
        if code == 2:
            cached = -amp
        else:
            cached = amp.times_i(1 if code == 1 else -1)
        memo[key] = cached
    return cached


def dense_apply(op: ErrorOperator, state: DigitStringState,
                term_cap: int = DEFAULT_TERM_CAP) -> DigitStringState:
    """Sum of the single-site matrix applied at each of the N sites."""
    if op.kind == "I":
        return state
    matrix = _site_matrix(op)
    columns = set(matrix)
    out: Dict[DigitString, ExactComplex] = {}
    memo: dict = {}
    for string, amp in state.terms.items():
        for site, digit in enumerate(string):
            if digit not in columns:
                continue
            for row, phase in matrix[digit]:
                new = string[:site] + bytes((row,)) + string[site + 1:]
                contrib = _phased(amp, phase, memo)
                out[new] = out[new] + contrib if new in out else contrib
    if len(out) > term_cap:
        raise InvalidInputError(f"dense apply exceeded term cap {term_cap}")
    return DigitStringState(state.d, state.N, out)


def dense_relabel(state: DigitStringState, a: int) -> DigitStringState:
    """Logical shift: add a to every digit mod d."""
    d = state.d
    table = bytes((x + a) % d if x < d else x for x in range(256))
    return DigitStringState(
        d, state.N,
        {string.translate(table): amp for string, amp in state.terms.items()})


def dense_inner_product(phi: DigitStringState, psi: DigitStringState
                        ) -> ExactComplex:
    total = ExactComplex.ZERO
    small, large = (phi, psi) if len(phi.terms) <= len(psi.terms) else (psi, phi)
    for s, a in small.terms.items():
        b = large.terms.get(s)
        if b is None:
            continue
        if small is phi:
            total = total + a.conjugate() * b
        else:
            total = total + b.conjugate() * a
    return total


def dense_expand(psi: StateVector,
                 term_cap: int = DEFAULT_TERM_CAP) -> DigitStringState:
    """Digit-string expansion of an occupation-keyed state (for comparisons)."""
    out = DigitStringState(psi.d, psi.N, {})
    for u, amp in psi.terms.items():
        out = out + dense_symmetric_vector(u, term_cap=term_cap).scaled(amp)
    return out


def states_agree(dense: DigitStringState, sparse: StateVector,
                 term_cap: int = DEFAULT_TERM_CAP) -> bool:
    """Exact equality of a digit-string state and an occupation-keyed one."""
    expanded = dense_expand(sparse, term_cap)
    if set(expanded.terms) != set(dense.terms):
        return False
    for s, a in dense.terms.items():
        if not (a - expanded.terms[s]).is_zero():
            return False
    return True


def dense_codewords(code: Code,
                    term_cap: int = DEFAULT_TERM_CAP) -> List[DigitStringState]:
    terms: Dict[DigitString, ExactComplex] = {}
    for entry in code.orbits:
        amp = ExactComplex.real(entry.amplitude)
        for member in expand_orbit(entry.representative):
            vec = dense_symmetric_vector(member, term_cap)
            for s in vec.terms:
                terms[s] = amp
    zero = DigitStringState(code.d, code.N, terms)
    return [dense_relabel(zero, k) if k else zero for k in range(code.d)]


# ---------------------------------------------------------------------------
# Full matrix-element check over digit strings.
#
# Per-string amplitudes in the images are integer linear combinations of
# the orbit amplitudes with Gaussian-integer coefficients, so states are
# stored as dicts bytes -> flat int tuple (re_0, im_0, re_1, im_1, ...),
# one slot pair per orbit.  All inner loops are pure integer arithmetic;
# radicals enter only once per matrix element.


def _vector_codewords(code: Code) -> Tuple[List[RadicalSum], List[Dict[bytes, tuple]]]:
    alphas = [entry.amplitude for entry in code.orbits]
    k = len(alphas)
    terms: Dict[bytes, tuple] = {}
    for slot, entry in enumerate(code.orbits):
        unit = tuple(1 if n == 2 * slot else 0 for n in range(2 * k))
        for member in expand_orbit(entry.representative):
            for s in dense_symmetric_vector(member).terms:
                terms[s] = unit
    codewords = [terms]
    for a in range(1, code.d):
        table = bytes((x + a) % code.d if x < code.d else x for x in range(256))
        codewords.append({s.translate(table): z for s, z in terms.items()})
    return alphas, codewords


def _vector_apply(op: ErrorOperator, state: Dict[bytes, tuple],
                  width: int) -> Dict[bytes, tuple]:
    if op.kind == "I":
        return state
    matrix = _site_matrix(op)
    columns = set(matrix)
    out: Dict[bytes, tuple] = {}
    for string, z in state.items():
        for site, digit in enumerate(string):
            if digit not in columns:
                continue
            for row, phase in matrix[digit]:
                new = string[:site] + bytes((row,)) + string[site + 1:]
                # multiply the Gaussian pairs by i**phase
                if phase == 0:
                    contrib = z
                elif phase == 1:
                    contrib = tuple(-z[n + 1] if n % 2 == 0 else z[n - 1]
                                    for n in range(width))
                elif phase == 2:
                    contrib = tuple(-x for x in z)
                else:
                    contrib = tuple(z[n + 1] if n % 2 == 0 else -z[n - 1]
                                    for n in range(width))
                old = out.get(new)
                out[new] = contrib if old is None else tuple(
                    a + b for a, b in zip(old, contrib))
    return {s: z for s, z in out.items() if any(z)}


def dense_kl(code: Code, mode: str = "exact",
             tolerance: float = 1e-10,
             term_cap: int = DEFAULT_TERM_CAP) -> KLReport:
    """Full matrix-element check in the digit-string basis.

    Produces the same report schema and element order as the
    combinatorial full check so the two can be compared field by field.
    """
    for entry in code.orbits:
        if multinomial(code.N, entry.representative).value() > term_cap:
            raise InvalidInputError(
                f"orbit {entry.representative} exceeds the term cap {term_cap}")
    report = KLReport("full", mode, tolerance)
    alphas, codewords = _vector_codewords(code)
    k = len(alphas)
    width = 2 * k
    products = [[alphas[o] * alphas[p] for p in range(k)] for o in range(k)]
    basis = error_basis(code.d)
    images = {op: [_vector_apply(op, cw, width) for cw in codewords]
              for op in basis}

    def element(ea: ErrorOperator, eb: ErrorOperator, i: int, j: int) -> ExactComplex:
        phi, psi = images[ea][i], images[eb][j]
        common = phi.keys() & psi.keys()
        report.checked_elements += 1
        if not common:
            report.structural_zeros += 1
            return ExactComplex.ZERO
        sums = [0] * (2 * k * k)
        for s in common:
            a = phi[s]
            b = psi[s]
            n = 0
            for o in range(k):
                ra, ia = a[2 * o], a[2 * o + 1]
                for p in range(k):
                    rb, ib = b[2 * p], b[2 * p + 1]
                    sums[n] += ra * rb + ia * ib
                    sums[n + 1] += ra * ib - ia * rb
                    n += 2
        re = RadicalSum.zero()
        im = RadicalSum.zero()
        n = 0
        for o in range(k):
            for p in range(k):
                if sums[n]:
                    re = re + products[o][p] * sums[n]
                if sums[n + 1]:
                    im = im + products[o][p] * sums[n + 1]
                n += 2
        value = ExactComplex(re, im)
        if value.is_zero():
            report.arithmetic_zeros += 1
        if mode == "float":
            return value.to_complex()
        return value

    def is_zero(value) -> bool:
        if isinstance(value, ExactComplex):
            return value.is_zero()
        return abs(value) <= tolerance

    for ea in basis:
        for eb in basis:
            name = (ea.name(), eb.name())
            constant = element(ea, eb, 0, 0)
            report.constants[name] = constant
            for i in range(code.d):
                for j in range(code.d):
                    if i == 0 and j == 0:
                        continue
                    value = element(ea, eb, i, j)
                    if i != j:
                        if not is_zero(value):
                            report.violations.append(Violation(*name, i, j, value))
                    elif not is_zero(value - constant):
                        report.violations.append(Violation(*name, i, j, value))
    return report
