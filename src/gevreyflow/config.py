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
Every key has a typed schema entry with a default, so an empty file is a
valid conservation scenario; unknown keys are rejected with their line
number.  Dynamic defaults: data centers fall at L/2, damping2 and the
numeric data2 fields mirror their first-component sections, and theta
falls back to the largest admissible exponent for the configured order
(0.45 for the third-order families, where that formula does not apply).

Overrides are "dotted.key=value" strings sharing the value grammar, e.g.
"grid.N=1024" or "run.sigmas=[0.1, 0.2, 0.4, 0.8]".
"""

from __future__ import annotations

import math
import re
from pathlib import Path

from .analytics import theta_max
from .errors import ConfigParseError, ConfigurationError
from .harness import DampingConfig, DataConfig, ScenarioConfig, Tolerances

_SECTION_RE = re.compile(r"^\[([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)\]$")
_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_BARE_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")
_INT_RE = re.compile(r"^[+-]?[0-9]+$")

# (section, key) -> kind; kinds: int, float, bool, str, floats
SCHEMA = {
    ("", "scenario"): "str",
    ("", "seed"): "int",
    ("grid", "L"): "float",
    ("grid", "N"): "int",
    ("evolution", "dt"): "float",
    ("evolution", "t_end"): "float",
    ("evolution", "record_every"): "int",
    ("equation", "family"): "str",
    ("equation", "mu"): "int",
    ("equation", "m"): "int",
    ("equation", "alpha"): "float",
    ("equation", "nonlinear"): "bool",
    ("damping", "form"): "str",
    ("damping", "floor"): "float",
    ("damping", "amplitude"): "float",
    ("damping2", "form"): "str",
    ("damping2", "floor"): "float",
    ("damping2", "amplitude"): "float",
    ("data", "kind"): "str",
    ("data", "k"): "float",
    ("data", "x0"): "float",
    ("data", "amplitude"): "float",
    ("data", "width"): "float",
    ("data", "center"): "float",
    ("data2", "kind"): "str",
    ("data2", "k"): "float",
    ("data2", "x0"): "float",
    ("data2", "amplitude"): "float",
    ("data2", "width"): "float",
    ("data2", "center"): "float",
    ("run", "sigmas"): "floats",
    ("run", "sigma0"): "float",
    ("run", "theta"): "float",
    ("run", "c0"): "float",
    ("run", "d"): "float",
    ("run", "c1_mode"): "str",
    ("run", "c1_value"): "float",
    ("run", "c1_safety"): "float",
    ("run", "k_max"): "int",
    ("run", "window_records"): "int",
    ("run", "samples"): "int",
    ("tolerances", "conservation"): "float",
    ("tolerances", "rate"): "float",
    ("tolerances", "decay"): "float",
    ("tolerances", "equality"): "float",
    ("tolerances", "radius"): "float",
    ("tolerances", "radius_match"): "float",
    ("tolerances", "iteration"): "float",
    ("tolerances", "inequality"): "float",
    ("tolerances", "slope_lo"): "float",
    ("tolerances", "slope_hi"): "float",
    ("tolerances", "r2_min"): "float",
    ("io", "out_dir"): "str",
}

STATIC_DEFAULTS = {
    ("", "scenario"): "conservation",
    ("", "seed"): 20260819,
    ("grid", "L"): 64.0,
    ("grid", "N"): 512,
    ("evolution", "dt"): 2e-4,
    ("evolution", "t_end"): 5.0,
    ("evolution", "record_every"): 250,
    ("equation", "family"): "mkdv",
    ("equation", "mu"): 1,
    ("equation", "m"): 5,
    ("equation", "alpha"): 0.5,
    ("equation", "nonlinear"): True,
    ("damping", "form"): "raised_cosine",
    ("damping", "floor"): 1.0,
    ("damping", "amplitude"): 0.25,
    ("data", "kind"): "soliton",
    ("data", "k"): 1.0,
    ("data", "amplitude"): 0.8,
    ("data", "width"): 1.0,
    ("data2", "kind"): "zero",
    ("run", "sigmas"): (0.05, 0.1, 0.2, 0.4),
    ("run", "sigma0"): 0.5,
    ("run", "c0"): 1.0,
    ("run", "d"): 2.0,
    ("run", "c1_mode"): "empirical",
    ("run", "c1_value"): 1.0,
    ("run", "c1_safety"): 2.0,
    ("run", "k_max"): 20,
    ("run", "window_records"): 8,
    ("run", "samples"): 1_000_000,
    ("tolerances", "conservation"): 1e-6,
    ("tolerances", "rate"): 1e-5,
    ("tolerances", "decay"): 1e-3,
    ("tolerances", "equality"): 1e-8,
    ("tolerances", "radius"): 1e-2,
    ("tolerances", "radius_match"): 0.03,
    ("tolerances", "iteration"): 1e-3,
    ("tolerances", "inequality"): 1e-12,
    ("tolerances", "slope_lo"): 1.8,
    ("tolerances", "slope_hi"): 2.2,
    ("tolerances", "r2_min"): 0.98,
    ("io", "out_dir"): "out",
}

_SECTION_ORDER = ("", "grid", "evolution", "equation", "damping", "damping2", "data", "data2", "run", "tolerances", "io")


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
    """Fill static and dynamic defaults into a complete key -> value map."""
    out = dict(values)
    for dotted, default in STATIC_DEFAULTS.items():
        out.setdefault(dotted, default)
    L = out[("grid", "L")]
    out.setdefault(("data", "x0"), L / 2.0)
    out.setdefault(("data", "center"), L / 2.0)
    # second-component sections mirror the first unless given explicitly
    for key in ("form", "floor", "amplitude"):
        out.setdefault(("damping2", key), out[("damping", key)])
    for key in ("k", "x0", "amplitude", "width", "center"):
        out.setdefault(("data2", key), out[("data", key)])
    if ("run", "theta") not in out:
        m = out[("equation", "m")]
        if out[("equation", "family")] == "mkdvm" and m >= 5:
            out[("run", "theta")] = float(theta_max(m))
        else:
            out[("run", "theta")] = 0.45
    return out


def _build(values: dict) -> ScenarioConfig:
    v = _resolve(values)

    def g(section, key):
        return v[(section, key)]

    return ScenarioConfig(
        scenario=g("", "scenario"),
        seed=g("", "seed"),
        L=g("grid", "L"),
        N=g("grid", "N"),
        dt=g("evolution", "dt"),
        t_end=g("evolution", "t_end"),
        record_every=g("evolution", "record_every"),
        family=g("equation", "family"),
        mu=g("equation", "mu"),
        m=g("equation", "m"),
        alpha=g("equation", "alpha"),
        nonlinear=g("equation", "nonlinear"),
        damping=DampingConfig(
            form=g("damping", "form"), floor=g("damping", "floor"), amplitude=g("damping", "amplitude")
        ),
        damping2=DampingConfig(
            form=g("damping2", "form"), floor=g("damping2", "floor"), amplitude=g("damping2", "amplitude")
        ),
        data=DataConfig(
            kind=g("data", "kind"),
            k=g("data", "k"),
            x0=g("data", "x0"),
            amplitude=g("data", "amplitude"),
            width=g("data", "width"),
            center=g("data", "center"),
        ),
        data2=DataConfig(
            kind=g("data2", "kind"),
            k=g("data2", "k"),
            x0=g("data2", "x0"),
            amplitude=g("data2", "amplitude"),
            width=g("data2", "width"),
            center=g("data2", "center"),
        ),
        sigmas=g("run", "sigmas"),
        sigma0=g("run", "sigma0"),
        theta=g("run", "theta"),
        c0=g("run", "c0"),
        d=g("run", "d"),
        c1_mode=g("run", "c1_mode"),
        c1_value=g("run", "c1_value"),
        c1_safety=g("run", "c1_safety"),
        k_max=g("run", "k_max"),
        window_records=g("run", "window_records"),
        samples=g("run", "samples"),
        tolerances=Tolerances(
            conservation=g("tolerances", "conservation"),
            rate=g("tolerances", "rate"),
            decay=g("tolerances", "decay"),
            equality=g("tolerances", "equality"),
            radius=g("tolerances", "radius"),
            radius_match=g("tolerances", "radius_match"),
            iteration=g("tolerances", "iteration"),
            inequality=g("tolerances", "inequality"),
            slope_lo=g("tolerances", "slope_lo"),
            slope_hi=g("tolerances", "slope_hi"),
            r2_min=g("tolerances", "r2_min"),
        ),
        out_dir=g("io", "out_dir"),
    )


def parse_config_text(text: str, overrides=()) -> ScenarioConfig:
    values = _parse_text(text)
    _apply_overrides(values, overrides)
    cfg = _build(values)
    cfg.validate()
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
    sections = cfg.as_sections()
    lines = []
    for section in _SECTION_ORDER:
        body = sections.get(section)
        if not body:
            continue
        if section:
            if lines:
                lines.append("")
            lines.append(f"[{section}]")
        for key, value in body.items():
            lines.append(f"{key} = {_format_value(value)}")
    return "\n".join(lines) + "\n"
