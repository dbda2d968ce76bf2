import json

import pytest

from quditcodes.arith import InvalidInputError
from quditcodes.config import ENV_VAR, Config, load_config


def test_defaults():
    config = load_config(None)
    assert config == Config()
    assert config.mode == "exact"
    assert config.max_d == 13 and config.max_n == 64


def test_load_from_explicit_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"mode": "float", "float_tolerance": 1e-8}))
    config = load_config(str(path))
    assert config.mode == "float"
    assert config.float_tolerance == 1e-8
    assert config.max_d == 13  # untouched fields keep defaults


def test_load_from_environment(tmp_path, monkeypatch):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"max_n": 128}))
    monkeypatch.setenv(ENV_VAR, str(path))
    assert load_config().max_n == 128


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"max_m": 10}))
    with pytest.raises(InvalidInputError):
        load_config(str(path))


def test_invalid_values_rejected(tmp_path):
    for payload in ({"mode": "symbolic"}, {"float_tolerance": 0.5},
                    {"max_d": 0}, {"workers": -1},
                    # values of the wrong type; JSON true is not the cap 1
                    {"max_d": "x"}, {"max_d": True}, {"max_n": 20.0},
                    {"oracle_term_cap": None}, {"float_tolerance": "1e-5"},
                    {"float_tolerance": True}, {"mode": ["exact"]}):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(InvalidInputError):
            load_config(str(path))


def test_unreadable_file_rejected(tmp_path):
    with pytest.raises(InvalidInputError):
        load_config(str(tmp_path / "missing.json"))
    path = tmp_path / "config.json"
    path.write_text("{not json")
    with pytest.raises(InvalidInputError):
        load_config(str(path))


def test_non_utf8_and_non_object_files_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(InvalidInputError, match="cannot read config"):
        load_config(str(path))
    path.write_text("[1]")
    with pytest.raises(InvalidInputError, match="not a JSON object"):
        load_config(str(path))
