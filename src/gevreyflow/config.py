"""Plain-text scenario configuration: parser, schema, renderer.

Grammar (line oriented; '#' starts a comment anywhere outside a quoted
string; blank lines ignored):

    section    :=  "[" name ("." name)* "]"
    assignment :=  key "=" value
    key        :=  [A-Za-z_][A-Za-z0-9_]*
    value      :=  scalar | "[" scalar ("," scalar)* "]"
    scalar     :=  integer | float | "true" | "false"
                 | '"' chars '"'              (escapes: \\" \\\\ \\n \\t)
                 | bare-word                   ([A-Za-z_][A-Za-z0-9_-]*)

Assignments before any section header are top-level keys (scenario, seed).
The schema is the ScenarioConfig dataclasses of harness.py: a key's kind
is its field annotation and its default the field default, so an empty
file is a valid conservation scenario; unknown keys are rejected with
their line number.  _resolve holds the dynamic defaults: data centers
fall at L/2, damping2 and the numeric data2 fields mirror their
first-component sections, and theta falls back to the largest admissible
exponent for the configured order (the field default 0.45 for the
third-order families, where that formula does not apply).

Overrides are "dotted.key=value" strings sharing the value grammar, e.g.
"grid.N=1024" or "run.sigmas=[0.1, 0.2, 0.4, 0.8]".
"""

from __future__ import annotations

import math
import re
from dataclasses import replace
from pathlib import Path

from .analytics import theta_max
from .errors import ConfigParseError, ConfigurationError
from .harness import ScenarioConfig, config_keys

_SECTION_RE = re.compile(r"^\[([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)\]$")
_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_BARE_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")
_INT_RE = re.compile(r"^[+-]?[0-9]+$")

# a key's kind follows its field annotation; a tuple field is a float list
_KINDS = {"int": "int", "float": "float", "bool": "bool", "str": "str", "tuple": "floats"}

# (section, key) -> kind, in written order
SCHEMA = {(section, f.name): _KINDS[f.type] for section, _, f in config_keys()}

# (section, key) -> ScenarioConfig field default
_FIELD_DEFAULTS = {
    (section, key): tuple(value) if isinstance(value, list) else value
    for section, body in ScenarioConfig().as_sections().items()
    for key, value in body.items()
}


# ---------------------------------------------------------------------------
# scanning
# ---------------------------------------------------------------------------


_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}


def _strip_comment(line: str) -> str:
    in_str = escaped = False
    for i, ch in enumerate(line):
        if escaped:
            escaped = False
        elif in_str and ch == "\\":
            escaped = True
        elif ch == '"':
            in_str = not in_str
        elif ch == "#" and not in_str:
            return line[:i]
    return line


def _parse_string(text: str, line_no: int | None, col: int) -> str:
    """Body of a quoted scalar; an escape consumes the character after the
    backslash, so an escaped backslash can precede the closing quote."""
    out, i = [], 1
    while i < len(text) and text[i] != '"':
        if text[i] == "\\":
            i += 1
            if i == len(text):
                break
            mapped = _ESCAPES.get(text[i])
            if mapped is None:
                raise ConfigParseError(f"unknown escape \\{text[i]}", line_no, col + i - 1)
            out.append(mapped)
        else:
            out.append(text[i])
        i += 1
    if i >= len(text):
        raise ConfigParseError("unterminated string", line_no, col)
    if i != len(text) - 1:
        raise ConfigParseError("unescaped quote inside string", line_no, col + i)
    return "".join(out)


def _parse_scalar(text: str, line_no: int | None, col: int):
    text = text.strip()
    if not text:
        raise ConfigParseError("empty value", line_no, col)
    if text == "true":
        return True
    if text == "false":
        return False
    if text.startswith('"'):
        return _parse_string(text, line_no, col)
    if _INT_RE.match(text):
        return int(text)
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is not None:
        if not math.isfinite(value):
            raise ConfigParseError(f"non-finite number {text!r}", line_no, col)
        return value
    if _BARE_RE.match(text):
        return text
    raise ConfigParseError(f"cannot parse value {text!r}", line_no, col)


def _parse_value(text: str, line_no: int | None, col: int):
    stripped = text.strip()
    offset = col + (len(text) - len(text.lstrip()))
    if stripped.startswith("["):
        if not stripped.endswith("]"):
            raise ConfigParseError("unterminated list", line_no, offset)
        body = stripped[1:-1].strip()
        if not body:
            return ()
        items = []
        pos = 1  # past the opening bracket
        for part in stripped[1:-1].split(","):
            items.append(_parse_scalar(part, line_no, offset + pos))
            pos += len(part) + 1
        return tuple(items)
    return _parse_scalar(stripped, line_no, offset)


def _parse_text(text: str) -> dict:
    """Raw (section, key) -> value mapping with parse-time diagnostics."""
    values: dict = {}
    section = ""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        indent = len(line) - len(stripped)
        if stripped.startswith("["):
            m = _SECTION_RE.match(stripped)
            if not m:
                raise ConfigParseError(f"malformed section header {stripped!r}", line_no, indent + 1)
            section = m.group(1)
            continue
        if "=" not in stripped:
            raise ConfigParseError("expected 'key = value'", line_no, indent + 1)
        key_part, _, value_part = stripped.partition("=")
        key = key_part.strip()
        if not _KEY_RE.match(key):
            raise ConfigParseError(f"malformed key {key_part.strip()!r}", line_no, indent + 1)
        dotted = (section, key)
        if dotted not in SCHEMA:
            name = f"{section}.{key}" if section else key
            raise ConfigParseError(f"unknown key {name!r}", line_no, indent + 1)
        if dotted in values:
            name = f"{section}.{key}" if section else key
            raise ConfigParseError(f"duplicate key {name!r}", line_no, indent + 1)
        value_col = indent + len(key_part) + 2
        values[dotted] = _coerce(dotted, _parse_value(value_part, line_no, value_col), line_no, value_col)
    return values


def _coerce(dotted, value, line_no, col):
    kind = SCHEMA[dotted]
    name = f"{dotted[0]}.{dotted[1]}" if dotted[0] else dotted[1]
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigParseError(f"{name} expects an integer, got {value!r}", line_no, col)
        return value
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigParseError(f"{name} expects a number, got {value!r}", line_no, col)
        return float(value)
    if kind == "bool":
        if not isinstance(value, bool):
            raise ConfigParseError(f"{name} expects true or false, got {value!r}", line_no, col)
        return value
    if kind == "str":
        if not isinstance(value, str):
            raise ConfigParseError(f"{name} expects a string, got {value!r}", line_no, col)
        return value
    if kind == "floats":
        if not isinstance(value, tuple):
            raise ConfigParseError(f"{name} expects a list, got {value!r}", line_no, col)
        out = []
        for item in value:
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                raise ConfigParseError(f"{name} expects numbers, got {item!r}", line_no, col)
            out.append(float(item))
        return tuple(out)
    raise AssertionError(f"unhandled kind {kind}")


def _apply_overrides(values: dict, overrides) -> None:
    for text in overrides:
        if "=" not in text:
            raise ConfigurationError(f"override {text!r} is not of the form key=value")
        lhs, _, rhs = text.partition("=")
        parts = lhs.strip().split(".")
        if len(parts) == 1:
            dotted = ("", parts[0])
        elif len(parts) == 2:
            dotted = (parts[0], parts[1])
        else:
            raise ConfigurationError(f"override key {lhs.strip()!r} has too many dots")
        if dotted not in SCHEMA:
            raise ConfigurationError(f"override names unknown key {lhs.strip()!r}")
        try:
            parsed = _parse_value(rhs, None, 0)
            values[dotted] = _coerce(dotted, parsed, None, 0)
        except ConfigParseError as err:
            raise ConfigurationError(f"override {text!r}: {err}") from None


# ---------------------------------------------------------------------------
# building
# ---------------------------------------------------------------------------


def _resolve(values: dict) -> dict:
    """Complete key -> value map: the given values, then the dynamic
    defaults, then the field defaults of ScenarioConfig for the rest."""
    out = dict(values)

    def given_or_default(section, key):
        return out.get((section, key), _FIELD_DEFAULTS[(section, key)])

    L = given_or_default("grid", "L")
    out.setdefault(("data", "x0"), L / 2.0)
    out.setdefault(("data", "center"), L / 2.0)
    # second-component sections mirror the first unless given explicitly
    for key in ("form", "floor", "amplitude"):
        out.setdefault(("damping2", key), given_or_default("damping", key))
    for key in ("k", "x0", "amplitude", "width", "center"):
        out.setdefault(("data2", key), given_or_default("data", key))
    # the third-order families keep the field default of theta
    m = given_or_default("equation", "m")
    if given_or_default("equation", "family") == "mkdvm" and m >= 5:
        out.setdefault(("run", "theta"), float(theta_max(m)))
    return {**_FIELD_DEFAULTS, **out}


def _assemble(values: dict) -> ScenarioConfig:
    v = _resolve(values)
    plain, nested = {}, {}
    for section, owner, f in config_keys():
        if owner:
            nested.setdefault(owner, {})[f.name] = v[(section, f.name)]
        else:
            plain[f.name] = v[(section, f.name)]
    base = ScenarioConfig()
    for owner, keys in nested.items():
        plain[owner] = replace(getattr(base, owner), **keys)
    return replace(base, **plain)


def parse_config_text(text: str, overrides=()) -> ScenarioConfig:
    values = _parse_text(text)
    _apply_overrides(values, overrides)
    cfg = _assemble(values)
    cfg.build()  # every module precondition, checked before any run
    return cfg


def parse_config(path, overrides=()) -> ScenarioConfig:
    """Parse, override, default-fill, and pre-validate one scenario config."""
    return parse_config_text(Path(path).read_text(encoding="utf-8"), overrides)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _reads_as_number(word: str) -> bool:
    """True for bare words such as inf or nan that float() accepts."""
    try:
        float(word)
    except ValueError:
        return False
    return True


def _format_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        if _BARE_RE.match(value) and value not in ("true", "false") and not _reads_as_number(value):
            return value
        escaped = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\t", "\\t")
        return f'"{escaped}"'
    raise ConfigurationError(f"cannot render value {value!r}")


def _format_value(value) -> str:
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_format_scalar(item) for item in value) + "]"
    return _format_scalar(value)


def render_config(cfg: ScenarioConfig) -> str:
    """Config text that parses back to an equal ScenarioConfig."""
    lines = []
    for section, body in cfg.as_sections().items():
        if section:
            if lines:
                lines.append("")
            lines.append(f"[{section}]")
        for key, value in body.items():
            lines.append(f"{key} = {_format_value(value)}")
    return "\n".join(lines) + "\n"
