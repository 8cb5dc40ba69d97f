import math

import pytest
from hypothesis import given, strategies as st

from epiresponse.config import (
    ConfigError,
    Field,
    build_response,
    format_value,
    parse_config,
    parse_kv,
    response_schema,
    response_to_config,
    serialize_config,
)
from epiresponse.model import (
    ConstantResponse,
    SigmoidResponse,
    StepResponse,
    TabulatedResponse,
)


# ------------------------------------------------------------------ raw kv


def test_parse_kv_basics():
    pairs = parse_kv("a = 1\n  b=two # trailing comment\n\n# full comment\nc = 3 4")
    assert pairs == {"a": "1", "b": "two", "c": "3 4"}
    assert list(pairs) == ["a", "b", "c"]


def test_parse_kv_rejects_duplicates_and_garbage():
    with pytest.raises(ConfigError, match="duplicate key 'a'"):
        parse_kv("a = 1\na = 2")
    with pytest.raises(ConfigError, match="line 2"):
        parse_kv("a = 1\nnonsense")
    with pytest.raises(ConfigError, match="empty key"):
        parse_kv("= 1")


# ------------------------------------------------------------------ schemas


SCHEMA = {
    "beta": Field("rate", required=True),
    "t_max": Field("time", default=10.0),
    "n": Field("int", default=100),
    "log": Field("bool", default=False),
    "mode": Field("choice", default="a", choices=("a", "b")),
    "weights": Field("float_list"),
    "ids": Field("int_list"),
    "label": Field("str"),
}


def test_parse_config_defaults_and_required():
    values = parse_config("beta = 2.5", SCHEMA)
    assert values["beta"] == 2.5
    assert values["t_max"] == 10.0
    assert values["n"] == 100
    assert values["weights"] is None
    with pytest.raises(ConfigError, match="missing required key 'beta'"):
        parse_config("n = 5", SCHEMA)


def test_parse_config_rejects_unknown_keys_by_name():
    with pytest.raises(ConfigError, match="unknown key 'betta'"):
        parse_config("beta = 1\nbetta = 2", SCHEMA)


def test_rate_units_convert_to_per_second():
    assert parse_config("beta = 1 per_hour", SCHEMA)["beta"] == pytest.approx(1 / 3600)
    assert parse_config("beta = 2 per_day", SCHEMA)["beta"] == pytest.approx(2 / 86400)
    assert parse_config("beta = 0.5", SCHEMA)["beta"] == 0.5  # bare = per second
    assert parse_config("beta = 30 per_minute", SCHEMA)["beta"] == pytest.approx(0.5)


def test_time_units_convert_to_seconds():
    text = "beta = 1\nt_max = 2 hours"
    assert parse_config(text, SCHEMA)["t_max"] == 7200.0
    text = "beta = 1\nt_max = 7 days"
    assert parse_config(text, SCHEMA)["t_max"] == 7 * 86400.0


def test_unit_errors_name_the_key():
    with pytest.raises(ConfigError, match="key 'beta'.*unknown unit 'per_year'"):
        parse_config("beta = 1 per_year", SCHEMA)
    with pytest.raises(ConfigError, match="key 'beta'"):
        parse_config("beta = 1 2 3", SCHEMA)
    with pytest.raises(ConfigError, match="key 'beta'"):
        parse_config("beta = nan", SCHEMA)


def test_scalar_conversions():
    text = "beta = 1\nn = 7\nlog = yes\nmode = b\nweights = 1, 2.5,3\nids = 4,5\nlabel = run-1"
    values = parse_config(text, SCHEMA)
    assert values["n"] == 7
    assert values["log"] is True
    assert values["mode"] == "b"
    assert values["weights"] == (1.0, 2.5, 3.0)
    assert values["ids"] == (4, 5)
    assert values["label"] == "run-1"


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("n = 7.5", "not an integer"),
        ("log = maybe", "not a boolean"),
        ("mode = c", "expected one of a, b"),
        ("weights = ,", "empty list"),
        ("ids = 1,x", "not an integer list"),
    ],
)
def test_conversion_errors(line, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(f"beta = 1\n{line}", SCHEMA)


# -------------------------------------------------------------- round-trip


def test_serialize_skips_none_and_formats_types():
    text = serialize_config({"a": 1.5, "b": True, "c": None, "d": (1.0, 0.25), "e": 3})
    assert text == "a = 1.5\nb = true\nd = 1,0.25\ne = 3\n"


def test_float_formatting_is_lossless():
    val = 1.0 / 3.0
    assert float(format_value(val)) == val
    assert format_value(0.1) == "0.10000000000000001"


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_float_round_trip_is_exact(x):
    assert float(format_value(x)) == x


def test_config_round_trip():
    schema = {
        "beta": Field("rate", required=True),
        "gamma": Field("rate", required=True),
        "flag": Field("bool", default=False),
        "xs": Field("float_list"),
    }
    original = parse_config(
        "beta = 1 per_hour\ngamma = 0.123456789012345678\nflag = true\nxs = 0.1,0.2",
        schema,
    )
    rebuilt = parse_config(serialize_config(original), schema)
    assert rebuilt == original


# ---------------------------------------------------------------- responses


def roundtrip(spec):
    values = parse_config(serialize_config(response_to_config(spec)), response_schema())
    return build_response(values)


def test_build_response_all_kinds():
    assert roundtrip(StepResponse(0.25)) == StepResponse(0.25)
    assert roundtrip(SigmoidResponse(0.4, 0.05)) == SigmoidResponse(0.4, 0.05)
    assert roundtrip(ConstantResponse(0.3, 0.7)) == ConstantResponse(0.3, 0.7)
    tab = TabulatedResponse((0.1, 0.5, 0.9), (0.0, 0.4, 1.0), (1.0, 0.5, 0.0))
    assert roundtrip(tab) == tab


def test_build_response_rejects_inapplicable_keys():
    values = parse_config("kind = step\ni_star = 0.2\nepsilon = 0.1", response_schema())
    with pytest.raises(ConfigError, match="'epsilon' does not apply"):
        build_response(values)


def test_build_response_requires_kind_keys():
    values = parse_config("kind = sigmoid\ni_star = 0.2", response_schema())
    with pytest.raises(ConfigError, match="missing required key 'epsilon'"):
        build_response(values)


def test_build_response_surfaces_model_validation():
    values = parse_config("kind = step\ni_star = 1.5", response_schema())
    with pytest.raises(ConfigError, match="invalid response"):
        build_response(values)


def test_response_schema_default_kind():
    # kind has no default: a response config must name it
    with pytest.raises(ConfigError, match="missing required key 'kind'"):
        parse_config("i_star = 0.3", response_schema())
