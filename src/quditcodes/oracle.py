"""Independent dense checker over explicit digit strings.

A dense state is a dict from a length-N digit string (bytes, one base-d
digit per site) to a packed slot vector: one Python int holding signed
slots of SLOT_BITS bits each, one Gaussian integer (re, im) per orbit of a
code, so that a string's coefficient is sum_o (re_o + i*im_o) alpha_o.  A
single vector is the case of one orbit with alpha = 1.  Packing is linear,
so adding packed values adds their slots as long as every slot stays in
range; `dense_apply` checks a proven bound on its output slots before it
adds anything and raises rather than let a carry cross into the next slot.

What stays independent of the combinatorial path: operator actions come
only from the single-site matrices (`_site_matrix`) applied at every site
of every digit string by `dense_apply`, and code words and their
relabelings are built string by string.  Nothing here calls
`operators.generator_action`.

`dense_apply` sweeps the sites in C rather than looping over strings in
Python.  The strings that share a packed value are grouped run by run
(code words and basis vectors come in runs of one value), joined into
one bytes object and translated to a 0/1 mask per column c; at site p,
`compress(keys, mask[p::N])` picks the strings (read as base-256
numerals) with digit c there, and adding one step moves them all.  One
`Counter` per added value counts the moves that land on each target, and
a target's value is its count times that added value.  When every move
adds one value, as S(j,k) does on a state of one value, the image is one
dict built from that counter, with one product per distinct count.

Digits are counted the same way (`_digit_counts`), for all strings at once,
which share one length N (`_string_length`, the one length rule).  The N
site slices mask[p::N] of digit c's mask, read as little-endian integers,
add up to one byte lane per string that holds its count of c: a lane holds
up to 255 sites without a carry, which covers every N the caps admit, and
longer strings are counted in blocks of 255 sites.  The occupation classes
(`collapse`, the class split of `class_images`) and the diagonal D(l) path
of `dense_apply` read these counts, and `class_images` counts its input
state once: for the split, the identity's collapse and the D(l) images,
whose strings are the input's own strings.  A D(l) image string's class is
looked up by its bytes in a call-local dict of the input's classes; an
image holding a string the input does not hold is counted afresh, whole.
The collapse counts (class, value) pairs run by run: images come in runs of
one class and one value, so the per-string work is C-level iteration.

Images are shared by pattern (`class_images`).  On the part of a state
that lies in one occupation class u, an off-diagonal operator on digits
{j, k} sends its column-j moves to class u - e_j + e_k and its column-k
moves to u - e_k + e_j, two disjoint classes.  So S(j,k) is applied once
to each class part, and the image of every operator on {j, k} is read off
those parts: the part through column c is weighted by the i**phase of
that operator's site-matrix entry for c.  D(l) is applied to the whole
state.  Every `dense_apply` output is collapsed to occupation classes, and
the collapse is a check, not a shortcut: every class u must hold exactly
basis_norm(u) strings, all carrying one packed value, so that
sum_s conj(a_s) b_s over strings equals the engine's norm-weighted sum
over classes.

What is shared: `dense_kl` splits the class images by orbit, keys them
as `kl_full` does (`combinatorics.distinct_orbit_keys`) in a `PairTables`,
and hands that to `kl_full`.  The join itself is guarded in the tests by
a naive evaluator built on `apply_generator` and `inner_product`, and
`quditcodes oracle` compares `class_images` with `generator_action`.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import cache
from itertools import chain, compress, groupby, repeat
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .arith import ExactComplex, InvalidInputError, RadicalSum
from .codes import Code
from .combinatorics import (OccupationVector, basis_norm,
                            distinct_orbit_keys, expand_orbit,
                            multiset_permutations)
from .config import Config, check_scale
from .operators import ErrorOperator, StateVector, error_basis
from .verifier import KLReport, PairTables, kl_full

DEFAULT_TERM_CAP = Config.oracle_term_cap

DigitString = bytes
DenseState = Dict[DigitString, int]
# One Gaussian integer (re, im) per orbit, flattened to (re_0, im_0, ...).
SlotVector = Tuple[int, ...]
ClassImage = Dict[OccupationVector, SlotVector]

SLOT_BITS = 32
_HALF = 1 << (SLOT_BITS - 1)   # every slot lies strictly inside (-_HALF, _HALF)
_MASK = (1 << SLOT_BITS) - 1


def pack(slots: Iterable[int]) -> int:
    value = 0
    for s in reversed(tuple(slots)):
        if not -_HALF < s < _HALF:
            raise InvalidInputError(f"slot {s} does not fit {SLOT_BITS} bits")
        value = (value << SLOT_BITS) + s
    return value


def unpack(value: int, width: int = 0) -> SlotVector:
    """The slots of a packed value, padded with zeros to `width`."""
    slots = []
    while value or len(slots) < width:
        s = ((value + _HALF) & _MASK) - _HALF
        slots.append(s)
        value = (value - s) >> SLOT_BITS
    return tuple(slots)


def _rotate(z: SlotVector, power: int) -> SlotVector:
    """z * i**power, applied to each (re, im) slot pair."""
    if power % 2 == 0:
        return tuple(-x for x in z) if power == 2 else z
    sign = 1 if power == 1 else -1
    return tuple(x for re, im in zip(z[::2], z[1::2] + (0,))
                 for x in (-sign * im, sign * re))


def occupation_of(string: DigitString, d: int) -> OccupationVector:
    return tuple(map(string.count, range(d)))


def dense_symmetric_vector(u: Iterable[int],
                           term_cap: int = DEFAULT_TERM_CAP) -> DenseState:
    """Coefficient 1 on every distinct rearrangement of the multiset of u."""
    u = tuple(u)
    if basis_norm(u) > term_cap:
        raise InvalidInputError(
            f"more than {term_cap} rearrangements of {u} (the term cap)")
    digits = [x for x, n in enumerate(u) for _ in range(n)]
    return {bytes(perm): 1 for perm in multiset_permutations(digits)}


def _site_matrix(op: ErrorOperator) -> Dict[int, Tuple[int, int]]:
    """column digit -> (row digit, phase code); phase codes 0..3 mean i**code.

    Each column and each row holds at most one entry, so S(j,j) and A(j,j),
    whose two columns the dict would merge, have none."""
    if op.kind == "S" and op.j != op.k:
        return {op.k: (op.j, 0), op.j: (op.k, 0)}
    if op.kind == "A" and op.j != op.k:
        # -i|j><k| + i|k><j|
        return {op.k: (op.j, 3), op.j: (op.k, 1)}
    if op.kind == "D":
        return {op.j: (op.j, 0), op.j + 1: (op.j + 1, 2)}
    raise InvalidInputError(f"no site matrix for {op.name()}")


@cache
def _column_table(c: int) -> bytes:
    """The `bytes.translate` table that maps digit c to 1 and every other
    byte to 0."""
    return bytes(x == c for x in range(256))


class CollapseError(ValueError):
    """A dense image that is not one vector per occupation class, or a
    state whose strings differ in length."""


_LANE = 255   # the most sites one byte lane counts without a carry


def _string_length(strings: Iterable[DigitString]) -> int:
    """The one length N of the strings (0 for none); the oracle's only
    length rule.  Raises CollapseError when the strings differ in length."""
    lengths = sorted(set(map(len, strings)))
    if len(lengths) > 1:
        raise CollapseError(f"strings of lengths {lengths} in one state")
    return lengths[0] if lengths else 0


def _digit_counts(strings: Sequence[DigitString],
                  digits: Iterable[int]) -> List[Sequence[int]]:
    """For each digit c, its count in every string, in string order.

    The strings are joined and translated to a 0/1 mask per digit; the
    site slices mask[p::N], read as little-endian integers, add up to one
    byte lane per string (see the module docstring).  Raises
    CollapseError when the strings differ in length (`_string_length`).
    """
    N = _string_length(strings)
    joined = b"".join(strings)
    out = []
    for c in digits:
        mask = joined.translate(_column_table(c))
        counts: Sequence[int] = bytes(len(strings))
        for first in range(0, N, _LANE):
            lanes = sum(int.from_bytes(mask[p::N], "little")
                        for p in range(first, min(N, first + _LANE)))
            block = lanes.to_bytes(len(strings), "little")
            counts = list(map(int.__add__, counts, block)) if first else block
        out.append(counts)
    return out


def dense_apply(op: ErrorOperator, state: DenseState,
                term_cap: int = DEFAULT_TERM_CAP) -> DenseState:
    """Sum of the single-site matrix of op applied at each of the N sites.

    A row of a site matrix holds at most one entry, a power of i, so an
    output slot is a sum of at most N input slots: |out| <= N * max|in|.
    The call raises before adding anything when that bound leaves the slot
    range.

    The strings are grouped by runs of one value and swept one (value,
    column, site) at a time, not one string at a time (see the module
    docstring).  N is `_string_length` of the whole input (CollapseError).
    """
    if op.kind == "I" or not state:
        return state
    matrix = _site_matrix(op)
    N = _string_length(state)
    groups: Dict[int, List[DigitString]] = defaultdict(list)
    for v, run in groupby(state.items(), key=itemgetter(1)):
        groups[v].extend(map(itemgetter(0), run))
    peak = max((abs(s) for v in groups for s in unpack(v)), default=0)
    if N * peak >= _HALF:
        raise InvalidInputError(
            f"slots up to {N} * {peak} do not fit {SLOT_BITS} bits")
    # Per distinct input value, what each column digit adds: i**phase * value.
    adds = {v: {c: pack(_rotate(unpack(v), phase))
                for c, (_, phase) in matrix.items()} for v in groups}
    out: DenseState = {}
    if all(row == col for col, (row, _) in matrix.items()):
        # Diagonal: the sites with digit c add adds[c] to the string itself.
        for v, strings in groups.items():
            per_digit = _digit_counts(strings, adds[v])
            columns = [map(add.__mul__, count) for add, count in
                       zip(adds[v].values(), per_digit)]
            totals = list(map(sum, zip(*columns)))
            out.update(compress(zip(strings, totals), totals))
    else:
        # Read as a base-256 numeral, a string turns digit c at site p into
        # row r by adding (r - c) * 256**(N - 1 - p).  counts[a][t]: how
        # many (string, site) moves that add a land on the numeral t.
        steps = {col: [(row - col) << 8 * (N - 1 - p) for p in range(N)]
                 for col, (row, _) in matrix.items()}
        counts: Dict[int, Counter] = defaultdict(Counter)
        for v, strings in groups.items():
            joined = b"".join(strings)
            keys = list(map(int.from_bytes, strings, repeat("big")))
            for col, add in adds[v].items():
                if col not in joined:
                    continue
                mask = joined.translate(_column_table(col))
                # Built eagerly: each map binds this column's step and mask.
                moves = [map(step.__add__, compress(keys, mask[p::N]))
                         for p, step in enumerate(steps[col])]
                counts[add].update(chain.from_iterable(moves))
        if len(counts) == 1:
            # One added value: a target's value is its count times it, one
            # product per distinct count.
            (add, counter), = counts.items()
            if not add:
                return {}
            products = {n: add * n for n in set(counter.values())}
            out = dict(zip(map(int.to_bytes, counter, repeat(N),
                               repeat("big")),
                           map(products.__getitem__, counter.values())))
        else:
            numerals: Dict[int, int] = {}
            for add, counter in counts.items():
                weighted = dict(zip(counter,
                                    map(add.__mul__, counter.values())))
                for t in weighted.keys() & numerals.keys():
                    weighted[t] += numerals[t]
                numerals.update(weighted)
            values = list(numerals.values())
            out = dict(compress(zip(map(int.to_bytes, numerals, repeat(N),
                                        repeat("big")), values), values))
    if len(out) > term_cap:
        raise InvalidInputError(f"dense apply exceeded term cap {term_cap}")
    return out


def dense_relabel(state: DenseState, a: int, d: int) -> DenseState:
    """Logical shift: add a to every digit mod d."""
    table = bytes((x + a) % d if x < d else x for x in range(256))
    return {string.translate(table): v for string, v in state.items()}


def dense_codewords(code: Code,
                    term_cap: int = DEFAULT_TERM_CAP) -> List[DenseState]:
    """The d code words, with a unit in the slot pair of each string's orbit."""
    zero: DenseState = {}
    for o, entry in enumerate(code.orbits):
        unit = pack([0] * 2 * o + [1])
        for member in expand_orbit(entry.representative):
            zero.update(dict.fromkeys(dense_symmetric_vector(member, term_cap),
                                      unit))
    return [dense_relabel(zero, k, code.d) if k else zero
            for k in range(code.d)]


def _occupations(state: DenseState, d: int) -> List[OccupationVector]:
    """occupation_of every string of a state, in order, from the lane
    counts of `_digit_counts`."""
    return list(zip(*_digit_counts(list(state), range(d))))


def collapse(state: DenseState, d: int, width: int) -> ClassImage:
    """The slot vector of each occupation class of a dense state.

    Checks that the state is one vector per class: class u holds exactly
    basis_norm(u) strings, all with one packed value of at most `width`
    slots.  Raises CollapseError naming the first class that is not, or
    when the strings differ in length.
    """
    return _classes(state, _occupations(state, d), width)


def _classes(state: DenseState, occupations: List[OccupationVector],
             width: int) -> ClassImage:
    """`collapse` of a state whose `_occupations` are already counted.

    Consecutive strings with one class and one value are counted as one
    run; the runs of each (class, value) pair are added up, in the order
    the pairs first appear, so a class is refused whatever the string
    order."""
    runs: Dict[Tuple[OccupationVector, int], int] = {}
    for key, run in groupby(zip(occupations, state.values())):
        runs[key] = runs.get(key, 0) + len(list(run))
    out = {}
    for (u, v), n in runs.items():
        if u in out or n != basis_norm(u):
            raise CollapseError(f"class {u} is not {basis_norm(u)} strings "
                                "with one value")
        out[u] = unpack(v, width)
        if len(out[u]) > width:
            raise CollapseError(f"class {u} has more than {width} slots")
    return out


def class_images(ops: Iterable[ErrorOperator], state: DenseState, d: int,
                 width: int, term_cap: int = DEFAULT_TERM_CAP
                 ) -> Iterator[ClassImage]:
    """collapse(dense_apply(op, state), d, width) for each op in turn.

    The identity's image is the collapsed state, and D(l)'s is the
    collapsed `dense_apply` on the whole state, whose strings' classes are
    read off the state's own counts by string (and counted afresh when
    the image holds a string the state does not).  The image of an operator
    on digits {j, k} is read off the collapsed images of S(j,k) on each
    class part of the state (see the module docstring); those are built
    once per pair and shared.  An assembled image may hold at most term_cap
    strings, the cap `dense_apply` puts on its own output.  On a state with
    no negative slot (code words, basis vectors) no class part's S(j,k)
    image outgrows the assembled S(j,k) image, so the parts' own caps
    refuse nothing more.  Raises CollapseError naming the operator whose
    `dense_apply` output fails the collapse.

    The parts are split by source class, not by column, because every
    string action goes through `dense_apply(op, state, term_cap)` with a
    real error operator: that call is the seam the tests replace to inject
    corrupted images, so it takes no partial site matrix.
    """
    def collapsed(op: ErrorOperator, image: DenseState,
                  occupations: Optional[List[OccupationVector]] = None
                  ) -> ClassImage:
        try:
            if occupations is None:
                occupations = _occupations(image, d)
            return _classes(image, occupations, width)
        except CollapseError as exc:
            raise CollapseError(f"dense image under {op.name()} fails the "
                                f"collapse: {exc}") from exc

    # Counted once: the class split, the identity's collapse and the D(l)
    # images (by string, through `known`) share it.
    try:
        occupations = _occupations(state, d)
    except CollapseError as exc:
        raise CollapseError(f"the state fails the collapse: {exc}") from exc
    parts: Dict[OccupationVector, DenseState] = defaultdict(dict)
    for u, run in groupby(zip(occupations, state.items()), key=itemgetter(0)):
        parts[u].update(map(itemgetter(1), run))
    known = dict(zip(state, occupations))
    shared = {}   # (j, k) -> [(u, collapsed S(j,k) image of class part u)]
    for op in ops:
        if op.kind == "I":
            yield collapsed(op, state, occupations)
            continue
        if op.kind == "D":
            image = dense_apply(op, state, term_cap)
            reused = list(map(known.get, image))
            yield collapsed(op, image, None if None in reused else reused)
            continue
        pair = (min(op.j, op.k), max(op.j, op.k))
        if pair not in shared:
            flip = ErrorOperator("S", *pair)
            shared[pair] = [(u, collapsed(flip, dense_apply(flip, part,
                                                            term_cap)))
                            for u, part in parts.items()]
        matrix = _site_matrix(op)
        out: ClassImage = {}
        for u, image in shared[pair]:
            for t, z in image.items():
                # t lost a digit j (column j) or a digit k (column k).
                z = _rotate(z, matrix[op.j if t[op.j] < u[op.j] else op.k][1])
                out[t] = (tuple(x + y for x, y in zip(out[t], z))
                          if t in out else z)
        image = {t: z for t, z in out.items() if any(z)}
        if sum(map(basis_norm, image)) > term_cap:
            raise InvalidInputError(
                f"dense apply exceeded term cap {term_cap}")
        yield image


def states_agree(dense: DenseState, sparse: StateVector) -> bool:
    """Exact equality of a single-vector dense state and an
    occupation-keyed one: the collapse, then each class compared as a
    Gaussian integer."""
    try:
        image = collapse(dense, sparse.d, 2)
    except CollapseError:
        return False
    return image.keys() == sparse.terms.keys() and all(
        ExactComplex(RadicalSum.of(re), RadicalSum.of(im)) == sparse.terms[u]
        for u, (re, im) in image.items())


def dense_kl(code: Code, term_cap: int = DEFAULT_TERM_CAP) -> KLReport:
    """Full matrix-element check from digit-string images, in exact mode.

    The error basis acts on the dense code words; each collapsed image is
    split into one image per orbit, and `kl_full` decides them, so the
    reports can be compared field by field.  The caps come first.
    """
    check_scale(code.d, code.N, Config.max_d, Config.max_n)
    keys = distinct_orbit_keys(code.support_representatives(), "code")
    k = len(keys)
    words = dense_codewords(code, term_cap)
    basis = error_basis(code.d)
    images = [[] for _ in basis]   # images[a][i]: class -> slots, all orbits
    for i, word in enumerate(words):
        try:
            for row, image in zip(images, class_images(basis, word, code.d,
                                                       2 * k, term_cap)):
                row.append(image)
        except CollapseError as exc:
            raise CollapseError(f"code word {i}: {exc}") from exc
    tables = PairTables(code.d, basis)
    for o, key in enumerate(keys):
        tables.add_images(key, [[{u: z[2 * o:2 * o + 2] for u, z in image.items()
                                  if z[2 * o] or z[2 * o + 1]}
                                 for image in row] for row in images])
    return kl_full(code, _tables=tables)
