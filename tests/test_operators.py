import itertools
import random
import re

import pytest

from quditcodes.arith import ExactComplex, InvalidInputError
from quditcodes.combinatorics import cyclic_shift, weight
import quditcodes.operators as operators
from quditcodes.operators import (CONJUGATION_IDENTITIES, ErrorOperator,
                                  StateVector, apply_generator, apply_logical_x,
                                  check_conjugation_identity, error_basis,
                                  inner_product, z_eigenexponent)
from quditcodes.oracle import (dense_apply, dense_symmetric_vector,
                               states_agree)


def all_occupations(d, N):
    for cuts in itertools.combinations(range(N + d - 1), d - 1):
        prev, u = -1, []
        for c in cuts:
            u.append(c - prev - 1)
            prev = c
        u.append(N + d - 2 - prev)
        yield tuple(u)


def test_error_basis_size_and_names():
    for d in (3, 5, 7):
        basis = error_basis(d)
        assert len(basis) == d * d
        names = [op.name() for op in basis]
        assert names[0] == "I"
        assert len(set(names)) == d * d
        for op in basis:
            assert ErrorOperator.parse(op.name()) == op


# ---------------------------------------------------------------------------
# the oracle gate: combinatorial actions against the dense site-by-site
# actions, exhaustively at small scale.  The mixed-flip formula is derived
# rather than quoted, so everything downstream depends on this agreement.


@pytest.mark.parametrize("d, max_n", [(3, 5), (5, 3)])
def test_generator_actions_match_dense_oracle(d, max_n):
    for N in range(1, max_n + 1):
        for u in all_occupations(d, N):
            dense_u = dense_symmetric_vector(u)
            for op in error_basis(d):
                if op.kind == "I":
                    continue
                sparse = apply_generator(op, StateVector.basis(u))
                dense = dense_apply(op, dense_u)
                assert states_agree(dense, sparse), (u, op.name())


def test_actions_match_dense_oracle_on_compositions():
    # Random two-operator words, so errors that cancel on basis vectors
    # but not on superpositions would still surface.
    rng = random.Random(7)
    ops = [op for op in error_basis(3) if op.kind != "I"]
    for _ in range(25):
        u = tuple(rng.randint(0, 2) for _ in range(3))
        if sum(u) == 0:
            continue
        a, b = rng.choice(ops), rng.choice(ops)
        sparse = apply_generator(a, apply_generator(b, StateVector.basis(u)))
        dense = dense_apply(a, dense_apply(b, dense_symmetric_vector(u)))
        assert states_agree(dense, sparse), (u, a.name(), b.name())


# ---------------------------------------------------------------------------
# individual actions


def test_phase_difference_is_diagonal():
    psi = StateVector.basis((3, 5, 5))
    out = apply_generator(ErrorOperator("D", 0), psi)
    assert out.terms == {(3, 5, 5): ExactComplex.of(-2)}
    out = apply_generator(ErrorOperator("D", 1), psi)
    assert out.is_zero()


def test_dit_flip_moves_one_count():
    psi = StateVector.basis((4, 9, 0))
    out = apply_generator(ErrorOperator("S", 0, 1), psi)
    assert out.terms == {(5, 8, 0): ExactComplex.of(5),
                         (3, 10, 0): ExactComplex.of(10)}


def test_mixed_flip_phases():
    psi = StateVector.basis((1, 1, 0))
    out = apply_generator(ErrorOperator("A", 0, 1), psi)
    assert out.terms == {(2, 0, 0): ExactComplex.of(2).times_i(-1),
                         (0, 2, 0): ExactComplex.of(2).times_i(1)}


def test_apply_generator_rejects_out_of_range():
    with pytest.raises(InvalidInputError):
        apply_generator(ErrorOperator("S", 0, 5), StateVector.basis((1, 1, 1)))
    with pytest.raises(InvalidInputError,
                       match="^unknown operator kind 'X'$"):
        apply_generator(ErrorOperator("X", 0, 1), StateVector.basis((1, 1, 1)))


def test_logical_x_relabels():
    psi = StateVector.basis((4, 9, 0))
    assert set(apply_logical_x(psi, 1).terms) == {(0, 4, 9)}
    assert set(apply_logical_x(psi, 3).terms) == {(4, 9, 0)}


def test_z_eigenexponent():
    assert z_eigenexponent((13, 0, 0)) == 0
    assert z_eigenexponent((4, 9, 0)) == weight((4, 9, 0)) == 0
    assert z_eigenexponent((1, 1, 0)) == 1


# ---------------------------------------------------------------------------
# inner products


def test_inner_product_includes_basis_norms():
    u = (4, 9, 0)
    psi = StateVector.basis(u)
    value = inner_product(psi, psi)
    assert value == ExactComplex.of(715)  # C(13, 4)


def test_inner_product_conjugates_first_argument():
    u = (1, 1, 0)
    psi = StateVector.basis(u)
    phi = psi.scaled(ExactComplex.I)
    assert inner_product(phi, psi) == ExactComplex.of(2).times_i(-1)
    assert inner_product(psi, phi) == ExactComplex.of(2).times_i(1)


@pytest.mark.parametrize("v", [(1, 1, 0), (1, 1, 1, 0, 0)],
                         ids=["other-N", "other-d"])
def test_inner_product_refuses_vectors_from_different_spaces(v):
    with pytest.raises(InvalidInputError,
                       match="^state vectors live in different spaces$"):
        inner_product(StateVector.basis((1, 1, 1)), StateVector.basis(v))


def test_different_weight_vectors_are_orthogonal():
    rng = random.Random(11)
    found = 0
    while found < 100:
        d = rng.choice((3, 5))
        N = rng.randint(2, 8)
        u = tuple(sorted(rng.choices(range(N + 1), k=d)))
        v = tuple(sorted(rng.choices(range(N + 1), k=d)))
        if sum(u) != N or sum(v) != N or weight(u) == weight(v):
            continue
        found += 1
        value = inner_product(StateVector.basis(u), StateVector.basis(v))
        assert value.is_zero()


# ---------------------------------------------------------------------------
# conjugation identities


def random_occupations(rng, d, N, count):
    out = []
    while len(out) < count:
        cuts = sorted(rng.randint(0, N) for _ in range(d - 1))
        out.append(tuple(b - a for a, b in zip([0] + cuts, cuts + [N])))
    return out


@pytest.mark.parametrize("identity", CONJUGATION_IDENTITIES)
def test_conjugation_identities_on_random_vectors(identity):
    rng = random.Random(hash(identity) % 2 ** 31)
    for d, N in ((3, 6), (5, 7)):
        vectors = random_occupations(rng, d, N, 100)
        if identity == "x_dagger_d_x":
            indices = (rng.randint(1, d - 2), 0)
        else:
            j = rng.randint(0, d - 2)
            k = rng.randint(j + 1, d - 1)
            indices = (j, k)
        ok, witness = check_conjugation_identity(d, N, identity, vectors,
                                                 indices)
        assert ok, witness


def test_unknown_identity_rejected():
    with pytest.raises(InvalidInputError):
        check_conjugation_identity(3, 4, "nonsense", [(2, 1, 1)])


def test_clock_identity_reads_generator_action(monkeypatch):
    # Negative control: at d >= 5, the S(j,k) term that moves a count from
    # j to k lands on a relabeled vector.  The clock check must see it.
    honest = operators.generator_action

    def relabeled(op, u):
        return [(cyclic_shift(v, 1) if op.kind == "S" and len(u) >= 5
                 and v[op.k] > u[op.k] else v, re, im)
                for v, re, im in honest(op, u)]

    vectors = random_occupations(random.Random(7), 5, 7, 100)
    monkeypatch.setattr(operators, "generator_action", relabeled)
    ok, witness = check_conjugation_identity(5, 7, "z_dagger_s_z", vectors,
                                             (1, 3))
    assert not ok
    assert set(witness) == {"u", "branch", "expected_exponent"}
    u = next(v for v in vectors if v[1] > 0)
    assert witness == {"u": u, "expected_exponent": (1 - 3) % 5,
                       "branch": cyclic_shift(
                           (u[0], u[1] - 1, u[2], u[3] + 1, u[4]), 1)}
    monkeypatch.undo()
    assert check_conjugation_identity(5, 7, "z_dagger_s_z", vectors,
                                      (1, 3)) == (True, None)

    # The refusals, each raised per vector: an operator that does not fit
    # d, a vector of another length or sum than (d, N), a phase index that
    # leaves the basis range, and an unknown identity.
    with pytest.raises(InvalidInputError,
                       match=r"^operator S\(1,5\) does not fit d=5$"):
        check_conjugation_identity(5, 7, "x_dagger_s_x", vectors, (1, 5))
    with pytest.raises(InvalidInputError, match="^expected length 7, got "):
        check_conjugation_identity(7, 7, "x_dagger_s_x", vectors, (1, 2))
    with pytest.raises(InvalidInputError,
                       match=r"^\(1, 2, 0\) does not sum to 999$"):
        check_conjugation_identity(3, 999, "x_dagger_s_x", [(1, 2, 0)],
                                   (0, 1))
    with pytest.raises(InvalidInputError,
                       match="^shifted phase index leaves the basis range$"):
        check_conjugation_identity(5, 7, "x_dagger_d_x", vectors, (0, 0))
    with pytest.raises(InvalidInputError,
                       match="^unknown identity 'nonsense'$"):
        check_conjugation_identity(5, 7, "nonsense", vectors)
    for identity, indices in (("x_dagger_s_x", (1, 5)),
                              ("x_dagger_a_x", (1, 5)),
                              ("x_dagger_d_x", (0, 0)),
                              ("z_dagger_s_z", (1, 3))):
        assert check_conjugation_identity(5, 7, identity, [],
                                          indices) == (True, None)


def test_shift_identities_read_generator_action(monkeypatch):
    # Negative control: A(0,1)'s term that gains at 0 changes sign, so the
    # right side of X^dagger A(1,2) X = A(0,1) no longer matches the left
    # on any u with u[1] > 0.  The shift check must see it.
    honest = operators.generator_action

    def flipped(op, u):
        return [(v, re, -im if op == ErrorOperator("A", 0, 1)
                 and v[0] > u[0] else im) for v, re, im in honest(op, u)]

    vectors = random_occupations(random.Random(7), 5, 7, 100)
    monkeypatch.setattr(operators, "generator_action", flipped)
    ok, witness = check_conjugation_identity(5, 7, "x_dagger_a_x", vectors,
                                             (1, 2))
    assert not ok
    assert set(witness) == {"u", "identity"}
    assert witness == {"u": next(v for v in vectors if v[1] > 0),
                       "identity": "x_dagger_a_x"}
    monkeypatch.undo()
    assert check_conjugation_identity(5, 7, "x_dagger_a_x", vectors,
                                      (1, 2)) == (True, None)


# Each operator with the count it reads outside u[0..2] at d = 3: D(2)
# reads u[3], and a negative index would read from the end of u.
UNFIT_AT_D3 = [ErrorOperator("D", 2), ErrorOperator("D", -1),
               ErrorOperator("S", -1, 1), ErrorOperator("A", 0, -2),
               ErrorOperator("S", 1, 3), ErrorOperator("S", 1, 1),
               ErrorOperator("A", 2, 2)]


@pytest.mark.parametrize("op", UNFIT_AT_D3, ids=lambda op: op.name())
def test_apply_generator_refuses_an_operator_reading_outside_u(op):
    message = rf"^operator {re.escape(op.name())} does not fit d=3$"
    with pytest.raises(InvalidInputError, match=message):
        apply_generator(op, StateVector.basis((1, 1, 1)))


@pytest.mark.parametrize("op", UNFIT_AT_D3, ids=lambda op: op.name())
def test_conjugation_identities_refuse_an_operator_reading_outside_u(op):
    # Every identity that acts with op on (1, 1, 1) refuses it, as
    # apply_generator does.  The clock identity acts with S(j,k) alone.
    kinds = ({"x_dagger_d_x": "D"} if op.kind == "D" else
             {"x_dagger_s_x": "S", "x_dagger_a_x": "A", "z_dagger_s_z": "S"})
    for identity, kind in kinds.items():
        name = ErrorOperator(kind, op.j, op.k).name()
        message = rf"^operator {re.escape(name)} does not fit d=3$"
        with pytest.raises(InvalidInputError, match=message):
            check_conjugation_identity(3, 3, identity, [(1, 1, 1)],
                                       (op.j, op.k))
