import itertools
import json
from fractions import Fraction

import pytest

from quditcodes.arith import ExactComplex, InvalidInputError, RadicalSum
from quditcodes.codes import (Code, OrbitAmplitude, code_from_json,
                              code_to_json, codeword, load_code, save_code,
                              validate)
from quditcodes.combinatorics import (check_code_space, cyclic_shift,
                                      expand_orbit, is_effectively_sparse)
from quditcodes.operators import inner_product
from quditcodes.reptheory import is_valid_code_space
from quditcodes.solver import build_qf_system

from conftest import (DUPLICATE_ORBIT_MESSAGE, duplicate_orbit_json,
                      shipped_code)


def test_shipped_codes_load(corpus):
    headers = {name: (c.d, c.N, c.eta) for name, c in corpus.items()}
    assert headers == {
        "qutrit13": (3, 13, 1),
        "c2_d5_n16": (5, 16, 1),
        "c3_d7_n36": (7, 36, 1),
        "c4_d7_n20_eta6": (7, 20, 6),
    }
    for code in corpus.values():
        assert len(code.orbits) == 3


def test_validation_of_shipped_codes(corpus):
    results = {name: validate(code).passed for name, code in corpus.items()}
    # The eta=6 code's third orbit is one dit flip away from its own
    # cyclic relabeling, so it fails the sparsity requirement.
    assert results == {"qutrit13": True, "c2_d5_n16": True,
                       "c3_d7_n36": True, "c4_d7_n20_eta6": False}
    report = validate(corpus["c4_d7_n20_eta6"])
    assert report.checks["normalization"]
    assert not report.checks["sparsity"]
    assert report.witnesses["sparsity"].distance == 2


def test_sparsity_witness_is_the_member_wise_one(corpus):
    code = corpus["c4_d7_n20_eta6"]
    support = code.support_representatives()
    _, witness = is_effectively_sparse(
        [m for rep in support for m in expand_orbit(rep)])
    assert validate(code).witnesses["sparsity"] == witness
    with pytest.raises(InvalidInputError) as info:
        build_qf_system(code.d, code.N, support)
    assert str(info.value) == f"support is not effectively sparse: {witness}"


def test_validate_catches_broken_residue():
    good = shipped_code("qutrit13")
    bad = Code(good.d, good.N, 2, good.orbits)
    report = validate(bad)
    assert not report.checks["residue"]


def test_validate_residue_is_the_owners_verdict():
    # Even d, non-unit eta and eta not congruent to N included.
    def owners_accept(d, N, eta):
        try:
            check_code_space(d, N)
            return is_valid_code_space(d, N, eta)
        except InvalidInputError:
            return False

    for d, N, eta in itertools.product(range(1, 10), range(21),
                                       range(-3, 13)):
        report = validate(Code(d, N, eta, ()))
        assert report.checks["residue"] == owners_accept(d, N, eta), \
            (d, N, eta)


def test_validate_support_witness_is_the_orbit_list_owners_message():
    good = shipped_code("qutrit13")
    report = validate(Code(3, 13, 1, good.orbits + (good.orbits[0],)))
    assert report.witnesses["support"] == (
        "code lists one tail orbit twice: (13, 0, 0) and (13, 0, 0) share "
        "the representative (13, 0, 0)")
    report = validate(Code(3, 13, 1, ()))
    assert report.witnesses["support"] == "code is empty"
    assert set(report.checks) == {"residue", "support"}


def test_validate_catches_broken_normalization():
    good = shipped_code("qutrit13")
    orbits = (OrbitAmplitude(good.orbits[0].representative,
                             RadicalSum.of(Fraction(1, 2))),) + good.orbits[1:]
    report = validate(Code(good.d, good.N, good.eta, orbits))
    assert not report.checks["normalization"]


def test_validate_catches_bad_support():
    good = shipped_code("qutrit13")
    # non-canonical representative
    orbits = (OrbitAmplitude((4, 0, 9), good.orbits[1].amplitude),)
    assert not validate(Code(3, 13, 1, orbits)).checks["support"]
    # duplicate orbit
    orbits = good.orbits + (good.orbits[0],)
    assert not validate(Code(3, 13, 1, orbits)).checks["support"]
    # empty support
    assert not validate(Code(3, 13, 1, ())).checks["support"]


def test_validate_names_a_zero_amplitude():
    good = shipped_code("qutrit13")
    rep = good.orbits[1].representative
    orbits = (good.orbits[0], OrbitAmplitude(rep, RadicalSum.zero()),
              good.orbits[2])
    report = validate(Code(3, 13, 1, orbits))
    assert not report.checks["support"]
    assert report.witnesses["support"] == ("zero amplitude", rep)


def test_codewords_are_normalized(corpus):
    for name in ("qutrit13", "c2_d5_n16"):
        code = corpus[name]
        for k in range(code.d):
            cw = codeword(code, k)
            assert inner_product(cw, cw) == ExactComplex.of(1)


def test_codewords_are_orthogonal(corpus):
    code = corpus["qutrit13"]
    words = [codeword(code, k) for k in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            assert inner_product(words[i], words[j]).is_zero()


def test_codeword_k_is_relabeled_zero_word(corpus):
    code = corpus["qutrit13"]
    zero = codeword(code, 0)
    for k in range(code.d):
        shifted = {cyclic_shift(u, k): a for u, a in zero.terms.items()}
        kth = codeword(code, k)
        assert set(kth.terms) == set(shifted)
        for u in shifted:
            assert (kth.terms[u] - shifted[u]).is_zero()


def test_codeword_rejects_empty_code():
    with pytest.raises(InvalidInputError):
        codeword(Code(3, 13, 1, ()), 0)


def test_codeword_refuses_what_the_checks_refuse():
    # Keyed by listing, the repeated orbit's members would silently carry
    # the later listing's amplitude.
    with pytest.raises(InvalidInputError) as excinfo:
        codeword(code_from_json(duplicate_orbit_json()), 0)
    assert str(excinfo.value) == DUPLICATE_ORBIT_MESSAGE
    with pytest.raises(InvalidInputError, match="^code is empty$"):
        codeword(Code(3, 13, 1, ()), 0)


def test_json_round_trip(tmp_path, corpus):
    for name, code in corpus.items():
        path = tmp_path / (name + ".json")
        save_code(code, str(path))
        again = load_code(str(path))
        assert again == code
        assert code_from_json(code_to_json(code)) == code


def test_malformed_files_rejected():
    with pytest.raises(InvalidInputError):
        code_from_json({"d": 3, "N": 13})
    with pytest.raises(InvalidInputError):
        code_from_json({"d": 3, "N": 13, "eta": 1, "orbits": [
            {"representative": [13, 0, 0],
             "amplitude": {"sign": 0, "coeff": [1, 9], "radicand": [41, 5]}}]})
    with pytest.raises(InvalidInputError):
        code_from_json({"d": 3, "N": 13, "eta": 1, "orbits": [
            {"representative": [13, 0, 0],
             "amplitude": {"sign": 1, "coeff": [0, 9], "radicand": [41, 5]}}]})


def test_file_format_restricts_amplitude_shape():
    two_terms = RadicalSum.sqrt(2) + RadicalSum.of(1)
    code = Code(3, 13, 1, (OrbitAmplitude((13, 0, 0), two_terms),))
    with pytest.raises(InvalidInputError):
        code_to_json(code)


def qutrit13_with(**edits):
    """qutrit13's JSON with the given top-level keys, or under `rep`,
    `coeff` and `radicand` the first orbit's entries, replaced."""
    data = code_to_json(shipped_code("qutrit13"))
    first = data["orbits"][0]
    rep = edits.pop("rep", None)
    if rep is not None:
        first["representative"] = rep
    for key in ("coeff", "radicand"):
        if key in edits:
            first["amplitude"][key] = edits.pop(key)
    data.update(edits)
    return data


@pytest.mark.parametrize("edits", [
    {"rep": [13.9, 0.5, 0]}, {"rep": [12.5, 0.5, 0]}, {"rep": ["13", 0, 0]},
    {"rep": [True, 12, 0]}, {"d": 3.5}, {"N": 13.2}, {"eta": 1.5},
    {"coeff": [True, 1]}, {"coeff": ["1"]}, {"coeff": [1]},
    {"coeff": [1, 9, 1]}, {"coeff": [1.5, 9]}, {"radicand": [True, 1]},
    {"radicand": ["13"]}, {"radicand": [5]}, {"radicand": [41, "5"]},
], ids=["truncating-floats", "summing-floats", "string", "boolean", "d",
        "N", "eta", "coeff-boolean", "coeff-string", "coeff-one-entry",
        "coeff-three-entries", "coeff-fraction", "radicand-boolean",
        "radicand-string", "radicand-one-entry", "radicand-string-entry"])
def test_non_integral_numbers_are_refused(edits):
    with pytest.raises(InvalidInputError, match="expected an integer"):
        code_from_json(qutrit13_with(**edits))


def test_integral_floats_are_read_as_integers():
    # JSON does not tell 13 from 13.0, so an integral float loads as the
    # integer it spells.
    code = code_from_json(qutrit13_with(rep=[13.0, 0.0, 0], d=3.0, N=13.0,
                                        coeff=[1.0, 9.0], radicand=[41.0, 5]))
    assert code == shipped_code("qutrit13")
    assert all(type(x) is int for x in code.orbits[0].representative)
