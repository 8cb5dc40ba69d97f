"""Key=value experiment configuration files.

Format: one ``key = value`` pair per line; ``#`` starts a comment; blank
lines are ignored.  Keys are validated against a per-command schema and
unknown or duplicate keys are rejected by name, so a typo cannot silently
fall back to a default.

Rate values may carry an explicit unit (``gamma = 1 per_hour``); bare
numbers are per second, the canonical internal unit.  Durations work the
same way (``t_max = 7 days``, bare = seconds).  For unit-free studies the
canonical unit is simply the abstract time unit of the rates.

Floats serialize with 17 significant digits, so writing a resolved
configuration back out and re-parsing it reproduces identical values.
"""

import math
from dataclasses import dataclass

from .model import (
    ConstantResponse,
    ResponseSpec,
    SigmoidResponse,
    StepResponse,
    TabulatedResponse,
)

__all__ = [
    "ConfigError",
    "Field",
    "parse_kv",
    "parse_config",
    "serialize_config",
    "format_value",
    "response_schema",
    "build_response",
    "response_to_config",
]


class ConfigError(ValueError):
    pass


_RATE_UNITS = {
    "per_second": 1.0,
    "per_minute": 1.0 / 60.0,
    "per_hour": 1.0 / 3600.0,
    "per_day": 1.0 / 86400.0,
}
_TIME_UNITS = {
    "seconds": 1.0,
    "minutes": 60.0,
    "hours": 3600.0,
    "days": 86400.0,
}


@dataclass(frozen=True)
class Field:
    """One schema entry: how to convert a raw value, whether the key must
    be present, and the default used when it is absent."""

    kind: str  # float | rate | time | int | bool | str | float_list | int_list | choice
    required: bool = False
    default: object = None
    choices: tuple | None = None


def parse_kv(text: str) -> dict:
    """Raw ``key = value`` pairs, order-preserving, duplicates rejected."""
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in pairs:
            raise ConfigError(f"duplicate key '{key}'")
        pairs[key] = value
    return pairs


def _as_float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"key '{key}': not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"key '{key}': must be finite, got {raw!r}")
    return value


def _with_unit(key: str, raw: str, units: dict, scale_applies) -> float:
    parts = raw.split()
    if len(parts) == 1:
        return _as_float(key, parts[0])
    if len(parts) == 2:
        number = _as_float(key, parts[0])
        unit = parts[1]
        if unit not in units:
            raise ConfigError(
                f"key '{key}': unknown unit '{unit}' (expected one of"
                f" {', '.join(sorted(units))})"
            )
        return scale_applies(number, units[unit])
    raise ConfigError(f"key '{key}': expected 'number [unit]', got {raw!r}")


def _convert(key: str, raw: str, field: Field):
    kind = field.kind
    if kind == "float":
        return _as_float(key, raw)
    if kind == "rate":
        return _with_unit(key, raw, _RATE_UNITS, lambda v, f: v * f)
    if kind == "time":
        return _with_unit(key, raw, _TIME_UNITS, lambda v, f: v * f)
    if kind == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"key '{key}': not an integer: {raw!r}") from None
    if kind == "bool":
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"key '{key}': not a boolean: {raw!r}")
    if kind == "str":
        return raw
    if kind == "choice":
        if raw not in field.choices:
            raise ConfigError(
                f"key '{key}': expected one of {', '.join(field.choices)},"
                f" got {raw!r}"
            )
        return raw
    if kind == "float_list":
        items = [p for p in raw.split(",") if p.strip()]
        if not items:
            raise ConfigError(f"key '{key}': empty list")
        return tuple(_as_float(key, p.strip()) for p in items)
    if kind == "int_list":
        items = [p for p in raw.split(",") if p.strip()]
        if not items:
            raise ConfigError(f"key '{key}': empty list")
        try:
            return tuple(int(p.strip()) for p in items)
        except ValueError:
            raise ConfigError(f"key '{key}': not an integer list: {raw!r}") from None
    raise AssertionError(f"unhandled field kind {kind}")


def parse_config(text: str, schema: dict) -> dict:
    """Convert raw pairs per ``schema`` (a key -> `Field` mapping).

    Unknown keys and missing required keys raise `ConfigError` naming the
    key; optional keys fall back to their defaults.
    """
    pairs = parse_kv(text)
    for key in pairs:
        if key not in schema:
            raise ConfigError(f"unknown key '{key}'")
    resolved = {}
    for key, field in schema.items():
        if key in pairs:
            resolved[key] = _convert(key, pairs[key], field)
        elif field.required:
            raise ConfigError(f"missing required key '{key}'")
        else:
            resolved[key] = field.default
    return resolved


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (tuple, list)):
        return ",".join(format_value(v) for v in value)
    return str(value)


def serialize_config(values: dict) -> str:
    """key = value lines (canonical units, 17 significant digits); feeding
    the result back through `parse_config` reproduces the same values."""
    lines = [
        f"{key} = {format_value(val)}"
        for key, val in values.items()
        if val is not None
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Behavioural-response sub-schema shared by several commands.

# kind -> (response class, {config key: field name})
_KINDS = {
    "step": (StepResponse, {"i_star": "i_star"}),
    "sigmoid": (SigmoidResponse, {"i_star": "i_star", "epsilon": "epsilon"}),
    "constant": (ConstantResponse, {"p_sp": "p_sp", "p_ps": "p_ps"}),
    "tabulated": (
        TabulatedResponse,
        {"knots": "knots", "p_sp_values": "p_sp", "p_ps_values": "p_ps"},
    ),
}


def response_schema() -> dict:
    return {
        "kind": Field("choice", required=True, choices=tuple(_KINDS)),
        "i_star": Field("float"),
        "epsilon": Field("float"),
        "p_sp": Field("float"),
        "p_ps": Field("float"),
        "knots": Field("float_list"),
        "p_sp_values": Field("float_list"),
        "p_ps_values": Field("float_list"),
    }


def build_response(values: dict) -> ResponseSpec:
    """Assemble a response from resolved config values, rejecting keys
    that do not apply to the chosen kind."""
    kind = values["kind"]
    cls, keys = _KINDS[kind]
    for _, other in _KINDS.values():
        for key in other:
            if values.get(key) is not None and key not in keys:
                raise ConfigError(f"key '{key}' does not apply to kind '{kind}'")
    for key in keys:
        if values.get(key) is None:
            raise ConfigError(f"missing required key '{key}' for kind '{kind}'")
    try:
        return cls(**{name: values[key] for key, name in keys.items()})
    except ValueError as exc:
        raise ConfigError(f"invalid response: {exc}") from None


def response_to_config(spec: ResponseSpec) -> dict:
    for kind, (cls, keys) in _KINDS.items():
        if isinstance(spec, cls):
            fields = {key: getattr(spec, name) for key, name in keys.items()}
            return {"kind": kind, **fields}
    raise TypeError(f"unsupported response {type(spec).__name__}")
