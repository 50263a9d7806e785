"""Canonical JSON/CSV emission used for byte-stable outputs."""

import json
import math

import numpy as np
import pytest

from spectral_gibbs import canonical_csv, canonical_json, format_float


def test_format_float_17_digits():
    assert format_float(1.0) == "1"
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(-2.5) == "-2.5"


def test_format_float_round_trips():
    rng = np.random.default_rng(0)
    for value in rng.uniform(-1e6, 1e6, size=200):
        assert float(format_float(float(value))) == float(value)
    for value in (1e-300, 1e300, 3.141592653589793, 2**-52):
        assert float(format_float(value)) == value


def test_canonical_json_structure():
    text = canonical_json({"b": 1, "a": [1.5, None, True, False], "c": {"x": "y"}})
    # insertion order, not sorted
    assert text.index('"b"') < text.index('"a"') < text.index('"c"')
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed == {"b": 1, "a": [1.5, None, True, False], "c": {"x": "y"}}


def test_canonical_json_escapes():
    text = canonical_json({"s": 'a"b\\c'})
    assert json.loads(text)["s"] == 'a"b\\c'


def test_canonical_json_floats():
    assert '"v": 0.10000000000000001' in canonical_json({"v": 0.1})


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_canonical_json_rejects_non_finite(value):
    with pytest.raises(ValueError, match="JSON"):
        canonical_json({"rows": [{"v": value}]})


def test_canonical_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        canonical_json({"v": {1, 2}})


def test_canonical_json_deterministic():
    payload = {"a": 0.3, "b": [1, 2, {"c": None}]}
    assert canonical_json(payload) == canonical_json(payload)


def test_canonical_csv():
    text = canonical_csv(
        ["k", "value", "flag", "note"],
        [[0, 0.5, True, None], [1, 2.0, False, "x"]],
    )
    lines = text.splitlines()
    assert lines[0] == "k,value,flag,note"
    assert lines[1] == "0,0.5,true,"
    assert lines[2] == "1,2,false,x"
    assert text.endswith("\n")
    assert "\r" not in text


def test_canonical_csv_row_length_checked():
    with pytest.raises(ValueError):
        canonical_csv(["a", "b"], [[1]])
