import functools
import itertools
import json
import math
import operator
import random
import types
from importlib import resources

import pytest

from quditcodes import cli, solver
from quditcodes.cli import main
from quditcodes.codes import code_from_json

from conftest import DUPLICATE_ORBIT_MESSAGE, duplicate_orbit_json


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, json.loads(out)


def test_branching(capsys):
    status, payload = run(capsys, "branching", "--d", "3", "--N", "13")
    assert status == 0
    assert payload == {"d": 3, "N": 13, "dim": 105, "eta": 1,
                       "multiplicity": 35}
    status, payload = run(capsys, "branching", "--d", "3", "--N", "13",
                          "--eta", "2")
    assert status == 0 and payload["multiplicity"] == 0


def test_orbits(capsys):
    status, payload = run(capsys, "orbits", "--d", "3", "--N", "13")
    assert status == 0
    assert payload["count"] == 21
    assert [13, 0, 0] in payload["representatives"]
    status, payload = run(capsys, "orbits", "--d", "3", "--N", "13",
                          "--limit", "4")
    assert payload["count"] == 4


def test_orbits_limit_edges(capsys):
    status, payload = run(capsys, "orbits", "--d", "3", "--N", "13",
                          "--limit", "0")
    assert status == 0
    assert payload["count"] == 0 and payload["representatives"] == []
    status, payload = run(capsys, "orbits", "--d", "3", "--N", "13",
                          "--limit", "-1")
    assert status == 2
    assert payload["error"]["type"] == "InvalidInputError"


def test_check_shipped_codes_by_name(capsys):
    status, payload = run(capsys, "check", "--code", "c2_d5_n16.json",
                          "--level", "full")
    assert status == 0 and payload["pass"]
    status, payload = run(capsys, "check", "--code", "qutrit13.json",
                          "--level", "full")
    assert status == 1 and not payload["pass"]
    assert len(payload["violations"]) == 24
    status, payload = run(capsys, "check", "--code", "qutrit13.json",
                          "--level", "qf")
    assert status == 0 and payload["pass"]


def test_check_reads_files(tmp_path, capsys):
    status, payload = run(capsys, "check", "--code", "qutrit13.json",
                          "--level", "reduced")
    assert status == 1
    path = tmp_path / "copy.json"
    status, payload = run(capsys, "check", "--code", "c2_d5_n16.json",
                          "--level", "qf")
    assert status == 0


def test_check_invalid_code_exits_2(capsys):
    status, payload = run(capsys, "check", "--code", "nope.json")
    assert status == 2
    assert payload["error"]["type"] == "InvalidInputError"
    # qf refuses structurally invalid codes
    status, payload = run(capsys, "check", "--code", "c4_d7_n20_eta6.json",
                          "--level", "qf")
    assert status == 2


def qutrit13_file(tmp_path, keys, value):
    """qutrit13.json with the entry at `keys` set to `value`, as a file."""
    text = resources.files("quditcodes.data").joinpath("qutrit13.json").read_text()
    data = json.loads(text)
    functools.reduce(operator.getitem, keys[:-1], data)[keys[-1]] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("keys, value", [
    (("orbits", 0, "amplitude", "coeff"), [1, 0]),
    (("orbits", 0, "amplitude", "radicand"), [41, 0]),
    (("orbits", 1, "representative"), [4, "x", 0]),
    (("orbits", 1, "representative"), [4, 9]),
    (("d",), 4),
    (("orbits", 0, "amplitude", "coeff"), [True, 9]),
    (("orbits", 0, "amplitude", "coeff"), ["1"]),
    (("orbits", 0, "amplitude", "coeff"), [1]),
    (("orbits", 0, "amplitude", "radicand"), [True, 1]),
    (("orbits", 0, "amplitude", "radicand"), ["13"]),
    (("orbits", 0, "amplitude", "radicand"), [5]),
], ids=["coeff-denominator-0", "radicand-denominator-0", "non-integer-entry",
        "short-representative", "even-d", "coeff-boolean", "coeff-string",
        "coeff-one-entry", "radicand-boolean", "radicand-string",
        "radicand-one-entry"])
def test_check_malformed_code_file_exits_2(tmp_path, capsys, keys, value):
    status, payload = run(capsys, "check",
                          "--code", qutrit13_file(tmp_path, keys, value))
    assert status == 2
    assert payload["error"]["type"] == "InvalidInputError"


def test_check_directory_as_code_file_exits_2(tmp_path, capsys):
    status, payload = run(capsys, "check", "--code", str(tmp_path))
    assert status == 2
    assert payload["error"]["type"] == "InvalidInputError"


def test_check_non_utf8_code_file_exits_2(tmp_path, capsys):
    path = tmp_path / "code.json"
    path.write_bytes(b"\xff\xfe")
    status, payload = run(capsys, "check", "--code", str(path))
    assert status == 2
    assert payload["error"]["type"] == "InvalidInputError"


def test_check_unfactorable_radicand_exits_2(tmp_path, capsys):
    # nextprime(10**19) * nextprime(10**20): no factor below the trial bound.
    radicand = 10000000000000000051 * 100000000000000000039
    path = qutrit13_file(tmp_path, ("orbits", 0, "amplitude", "radicand"),
                         [radicand, 1])
    status, payload = run(capsys, "check", "--code", path)
    assert status == 2
    assert payload["error"]["type"] == "UnfactorableError"


def test_solve(capsys):
    status, payload = run(capsys, "solve", "--d", "3", "--N", "13",
                          "--support", "13,0,0;4,9,0;3,5,5")
    assert status == 0
    assert payload["system"]["normalization"] == [1, 2, 1]
    assert payload["xi"] == [[[41, 405], [13, 81], [26, 45]]]
    code = code_from_json(payload["codes"][0])
    assert code.support_representatives() == ((13, 0, 0), (4, 9, 0),
                                              (3, 5, 5))


def test_solve_no_solution_notice(capsys):
    status, payload = run(capsys, "solve", "--d", "3", "--N", "13",
                          "--support", "13,0,0;10,3,0")
    assert status == 0
    assert payload["codes"] == []
    assert "notice" in payload


def test_solve_malformed_support(capsys):
    status, payload = run(capsys, "solve", "--d", "3", "--N", "13",
                          "--support", "13,x,0")
    assert status == 2
    status, payload = run(capsys, "solve", "--d", "3", "--N", "13",
                          "--support", "13,0,0;2,3,3,3")
    assert status == 2


def test_solve_refuses_an_ineligible_support_before_expanding_it(capsys):
    # Within the caps, but the tail entries are not congruent mod d: the
    # orbit has 12!/2! members, so the refusal must come first.
    status, payload = run(capsys, "solve", "--d", "13", "--N", "64",
                          "--support", "9,10,9,8,7,6,5,4,3,2,1,0,0")
    assert status == 2
    assert payload["error"]["type"] == "InvalidInputError"


@pytest.mark.parametrize("argv", [
    ("orbits", "--d", "31", "--N", "2000"),
    ("orbits", "--d", "3", "--N", "65"),
    ("solve", "--d", "15", "--N", "16", "--support", "16" + ",0" * 14),
    ("solve", "--d", "3", "--N", "65", "--support", "65,0,0"),
    ("family", "--d", "15"),
])
def test_subcommands_refuse_inputs_beyond_the_caps(capsys, argv):
    status, payload = run(capsys, *argv)
    assert status == 2
    assert payload["error"]["type"] == "InvalidInputError"


@pytest.mark.parametrize("argv", [
    ("search", "--d", "0", "--N", "5", "--k", "3"),
    ("solve", "--d", "3", "--N", "13", "--support", ";"),
])
def test_search_and_solve_refuse_inputs_with_nothing_to_solve(capsys, argv):
    # d = 0 once divided by zero; an empty support once printed an empty
    # system with exit 0.
    status, payload = run(capsys, *argv)
    assert status == 2
    assert payload["error"]["type"] == "InvalidInputError"


def test_solve_refuses_one_orbit_listed_twice(capsys):
    status, payload = run(capsys, "solve", "--d", "3", "--N", "13",
                          "--support", "4,9,0;4,0,9;1,6,6;13,0,0")
    assert status == 2
    assert payload["error"] == {
        "type": "InvalidInputError",
        "message": "support lists one tail orbit twice: (4, 9, 0) and "
                   "(4, 0, 9) share the representative (4, 9, 0)"}


def test_solve_refuses_the_residues_search_refuses(capsys):
    # N = 12 at d = 3 carries no code: solved, this support gives an
    # eta = 0 code that fails `validate` and `kl_full`.  `orbits` keeps
    # the wider domain of `check_dimensions`.
    message = "N=12 has residue 0 not coprime to d=3"
    for argv in (("solve", "--d", "3", "--N", "12", "--support", "0,6,6;6,6,0"),
                 ("search", "--d", "3", "--N", "12", "--k", "3")):
        status, payload = run(capsys, *argv)
        assert status == 2
        assert payload["error"] == {"type": "InvalidInputError",
                                    "message": message}
    status, payload = run(capsys, "orbits", "--d", "3", "--N", "12")
    assert status == 0 and payload["count"] == 19


@pytest.mark.parametrize("level", ["full", "reduced", "qf"])
def test_check_refuses_a_code_that_lists_one_orbit_twice(tmp_path, capsys,
                                                        level):
    # Keyed by listing, this file would pass `full` on the later
    # listing's amplitude.
    path = tmp_path / "duplicate.json"
    path.write_text(json.dumps(duplicate_orbit_json()))
    status, payload = run(capsys, "check", "--code", str(path),
                          "--level", level)
    assert status == 2
    assert payload["error"] == {"type": "InvalidInputError",
                                "message": DUPLICATE_ORBIT_MESSAGE}


@pytest.mark.parametrize("level", ["full", "reduced", "qf"])
def test_check_refuses_a_code_with_no_orbits(tmp_path, capsys, level):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"d": 3, "N": 13, "eta": 1, "orbits": []}))
    status, payload = run(capsys, "check", "--code", str(path),
                          "--level", level)
    assert status == 2
    assert payload["error"] == {"type": "InvalidInputError",
                                "message": "code is empty"}


def test_branching_refuses_inputs_beyond_the_caps(capsys):
    status, payload = run(capsys, "branching", "--d", "5001", "--N", "20002")
    assert status == 2
    assert payload["error"]["type"] == "InvalidInputError"


@pytest.mark.parametrize("d, N", [(0, 5), (1, 5), (4, 5), (3, 0), (3, -2)])
def test_branching_refuses_inputs_outside_the_code_domain(capsys, d, N):
    # The domain of `check_dimensions`, which `orbits` accepts: odd d >= 3
    # and N >= 1.  `solve` and `search` accept only its unit residues.
    status, payload = run(capsys, "branching", "--d", str(d), "--N", str(N))
    assert status == 2
    assert payload["error"]["type"] == "InvalidInputError"


def test_branching_names_the_particle_number_it_refuses(capsys):
    # eta defaults from N, so the refusal names N, not an eta never given.
    status, payload = run(capsys, "branching", "--d", "9", "--N", "6")
    assert status == 2
    assert payload["error"] == {
        "type": "InvalidInputError",
        "message": "branching requires gcd(N, d) = 1, got N=6, d=9"}


def test_family_reads_only_the_d_cap(tmp_path, capsys):
    # N = (d-1)**2 follows from d, so max_n does not apply.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"max_n": 10}))
    status, _ = run(capsys, "--config", str(path), "family", "--d", "5")
    assert status == 0


def test_family(capsys):
    status, payload = run(capsys, "family", "--d", "5")
    assert status == 0
    assert payload["discrepancy"]["agreement"] == [True, True, False]
    code = code_from_json(payload["code"])
    assert code.support_representatives() == ((16, 0, 0, 0, 0),
                                              (6, 10, 0, 0, 0),
                                              (0, 4, 4, 4, 4))


def test_search(capsys):
    status, payload = run(capsys, "search", "--d", "3", "--N", "13",
                          "--k", "3")
    assert status == 0
    assert payload["exhausted"]
    assert len(payload["codes"]) == 3


@pytest.mark.parametrize("config, argv", [
    ({"max_n": 10}, ("--d", "3", "--N", "13", "--k", "3")),
    ({"max_d": 3}, ("--d", "5", "--N", "16", "--k", "3")),
    ({}, ("--d", "3", "--N", "13", "--k", "3", "--max", "0")),
    ({}, ("--d", "3", "--N", "13", "--k", "3", "--max", "-1")),
    ({}, ("--d", "3", "--N", "13", "--k", "3", "--max-seconds", "0")),
    ({}, ("--d", "3", "--N", "13", "--k", "3", "--max-seconds", "-1")),
])
def test_search_rejects_inputs_outside_its_caps(tmp_path, capsys, config,
                                                argv):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    status, payload = run(capsys, "--config", str(path), "search", *argv)
    assert status == 2
    assert payload["error"]["type"] == "InvalidInputError"


def test_search_reports_a_stop_at_its_time_budget(capsys, monkeypatch):
    # Each reading of the clock is one second later: the budget runs out
    # after the self-compatibility prune has tested two representatives.
    ticks = itertools.count()
    monkeypatch.setattr(solver.time, "monotonic", lambda: next(ticks))
    status, payload = run(capsys, "search", "--d", "3", "--N", "13",
                          "--k", "3", "--max-seconds", "2.5")
    assert status == 0
    assert payload == {"codes": [], "candidates_tried": 0,
                       "exhausted": False}


def test_search_full_checks_with_the_configured_caps(tmp_path, capsys,
                                                    monkeypatch):
    # One validated two-orbit support at N = 67, past the default cap of
    # 64: the full check must run under the configured max_n = 128.
    monkeypatch.setattr(solver, "iter_support_representatives",
                        lambda d, N: iter([(1, 57, 9), (37, 15, 15)]))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"max_n": 128}))
    status, payload = run(capsys, "--config", str(path), "search", "--d", "3",
                          "--N", "67", "--k", "2")
    assert status == 0, payload
    assert payload["candidates_tried"] == 1 and payload["exhausted"]


def test_oracle(capsys):
    status, payload = run(capsys, "oracle", "--d", "3", "--N", "4",
                          "--trials", "5")
    assert status == 0 and payload["pass"]
    assert payload["generators"] == 8


@pytest.mark.parametrize("argv", [
    ("--d", "3", "--N", "-2"),
    ("--d", "3", "--N", "0"),
    ("--d", "1", "--N", "3"),
    ("--d", "0", "--N", "3"),
    ("--d", "14", "--N", "3"),
    ("--d", "3", "--N", "4", "--trials", "-1"),
    ("--d", "3", "--N", "4", "--trials", "0"),
    ("--d", "3", "--N", "100000", "--trials", "1"),
])
def test_oracle_rejects_inputs_it_cannot_check(capsys, argv):
    # Exit 1 would mean "violations found", and a pass that checked
    # nothing would be a false pass: both are invalid input.
    status, payload = run(capsys, "oracle", *argv)
    assert status == 2
    assert payload["error"]["type"] == "InvalidInputError"


def test_oracle_accepts_the_edges_of_its_range(capsys):
    status, payload = run(capsys, "oracle", "--d", "2", "--N", "1",
                          "--trials", "1")
    assert status == 0 and payload == {"pass": True, "d": 2, "N": 1,
                                       "trials": 1, "generators": 3}
    status, payload = run(capsys, "oracle", "--d", "13", "--N", "1",
                          "--trials", "1")
    assert status == 0 and payload["generators"] == 168


def test_oracle_reports_the_first_image_that_fails(capsys, monkeypatch):
    # A dense S image with one changed string fails the collapse; the
    # witness is the first trial and the first operator, in basis order,
    # whose image was corrupted (S(0,1) and S(0,2) are empty on (0,0,0,2,1)).
    from quditcodes import oracle
    honest = oracle.dense_apply

    def corrupt(op, state, term_cap=oracle.DEFAULT_TERM_CAP):
        out = dict(honest(op, state, term_cap))
        if op.kind == "S" and out:
            out[next(iter(out))] += 1
        return out

    monkeypatch.setattr(oracle, "dense_apply", corrupt)
    status, payload = run(capsys, "oracle", "--d", "5", "--N", "3",
                          "--trials", "5", "--seed", "2")
    assert status == 1
    assert payload == {"pass": False, "witness": {"u": [0, 0, 0, 2, 1],
                                                  "operator": "S(0,3)"}}


def test_oracle_reports_the_first_image_with_wrong_values(capsys,
                                                          monkeypatch):
    # Doubling every value of an S image keeps one value per class, so the
    # image still collapses, but its Gaussian integers are wrong.
    from quditcodes import oracle
    honest = oracle.dense_apply

    def double(op, state, term_cap=oracle.DEFAULT_TERM_CAP):
        out = honest(op, state, term_cap)
        return {s: 2 * v for s, v in out.items()} if op.kind == "S" else out

    monkeypatch.setattr(oracle, "dense_apply", double)
    u = (0, 0, 0, 2, 1)
    image = next(oracle.class_images([oracle.ErrorOperator("S", 0, 3)],
                                     oracle.dense_symmetric_vector(u), 5, 2))
    assert image == {(1, 0, 0, 1, 1): (2, 0)}   # the true coefficient is 1
    status, payload = run(capsys, "oracle", "--d", "5", "--N", "3",
                          "--trials", "5", "--seed", "2")
    assert status == 1
    assert payload == {"pass": False, "witness": {"u": list(u),
                                                  "operator": "S(0,3)"}}


class CountingRandom(random.Random):
    """random.Random that counts its draws, and fails past 10,000 of them
    rather than let a run that never stops hang the suite."""
    draws = 0

    def randint(self, a, b):
        CountingRandom.draws += 1
        assert CountingRandom.draws <= 10_000, "the draws do not stop"
        return super().randint(a, b)


def replayed_draws(d, N, trials, seed):
    """The basis vectors `quditcodes oracle` draws, in draw order."""
    rng = random.Random(seed)
    draws = []
    for _ in range(trials):
        cuts = sorted(rng.randint(0, N) for _ in range(d - 1))
        draws.append(tuple(b - a for a, b in zip([0] + cuts, cuts + [N])))
    return draws


def record_checked(monkeypatch, d):
    """Replace cli.class_images by a wrapper that records the class of
    each state it is handed, and cli's random.Random by CountingRandom."""
    checked = []
    honest = cli.class_images

    def recording(ops, state, *args):
        checked.append(tuple(map(next(iter(state)).count, range(d))))
        return honest(ops, state, *args)

    monkeypatch.setattr(cli, "class_images", recording)
    monkeypatch.setattr(cli, "random",
                        types.SimpleNamespace(Random=CountingRandom))
    CountingRandom.draws = 0
    return checked


@pytest.mark.parametrize("d, N, seed", [(5, 5, 3), (7, 4, 9), (3, 9, 2)])
def test_oracle_checks_each_drawn_vector_once(capsys, monkeypatch, d, N,
                                              seed):
    # A repeat draw is skipped; the draws themselves are unchanged.
    checked = record_checked(monkeypatch, d)
    status, payload = run(capsys, "oracle", "--d", str(d), "--N", str(N),
                          "--trials", "100", "--seed", str(seed))
    assert status == 0 and payload["pass"] and payload["trials"] == 100
    draws = replayed_draws(d, N, 100, seed)
    assert len(set(draws)) < len(draws)
    assert checked == list(dict.fromkeys(draws))
    assert CountingRandom.draws == 100 * (d - 1)


@pytest.mark.parametrize("d, N, trials, seed", [(2, 1, 10 ** 9, 0),
                                                (3, 2, 200, 4)])
def test_oracle_stops_once_every_vector_is_checked(capsys, monkeypatch, d, N,
                                                   trials, seed):
    # C(N + d - 1, d - 1) compositions: the draws stop at the one that
    # completes them, and the output still names the trials asked for.
    checked = record_checked(monkeypatch, d)
    status, payload = run(capsys, "oracle", "--d", str(d), "--N", str(N),
                          "--trials", str(trials), "--seed", str(seed))
    assert status == 0 and payload == {"pass": True, "d": d, "N": N,
                                       "trials": trials,
                                       "generators": d * d - 1}
    draws = replayed_draws(d, N, 100, seed)
    total = math.comb(N + d - 1, d - 1)
    last = next(n for n in range(1, 101) if len(set(draws[:n])) == total)
    assert checked == list(dict.fromkeys(draws[:last]))
    assert CountingRandom.draws == last * (d - 1)


def sorted_keys(pairs):
    keys = [key for key, _ in pairs]
    assert keys == sorted(keys), keys
    return dict(pairs)


@pytest.mark.parametrize("argv, status", [
    (("check", "--code", "c2_d5_n16.json", "--level", "full"), 0),
    (("check", "--code", "qutrit13.json", "--level", "full"), 1),
    (("check", "--code", "c4_d7_n20_eta6.json", "--level", "full"), 1),
    (("check", "--code", "nope.json"), 2),
    (("search", "--d", "3", "--N", "13", "--k", "3"), 0),
    (("oracle", "--d", "3", "--N", "4", "--trials", "5"), 0),
], ids=["check-pass", "check-qutrit13", "check-eta6", "error", "search",
        "oracle"])
def test_stdout_is_one_line_of_sorted_json(capsys, monkeypatch, argv, status):
    # The document is the emitted payload, parsed the same as its indented
    # rendering, but on one line with its keys sorted.
    emitted = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit",
                        lambda obj: (emitted.append(obj), emit(obj)))
    assert main(list(argv)) == status
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1
    [payload] = emitted
    assert json.loads(out, object_pairs_hook=sorted_keys) == json.loads(
        json.dumps(payload, indent=2, sort_keys=True))


def test_config_flag(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_n": 10}))
    status, payload = run(capsys, "--config", str(config), "check",
                          "--code", "qutrit13.json")
    assert status == 2  # N=13 exceeds the configured cap
    config.write_text(json.dumps({"bogus": 1}))
    status, payload = run(capsys, "--config", str(config), "branching",
                          "--d", "3", "--N", "13")
    assert status == 2


def test_config_environment(tmp_path, capsys, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_n": 10}))
    monkeypatch.setenv("QECC_CONFIG", str(config))
    status, _ = run(capsys, "check", "--code", "qutrit13.json")
    assert status == 2
