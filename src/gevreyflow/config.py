"""Scenario configuration: schema, checks, builder, text parser, renderer.

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
The schema is the ScenarioConfig dataclasses below: a key's kind is its
field annotation and its default the field default, so an empty file is a
valid conservation scenario; unknown keys are rejected with their line
number.  _resolve holds the dynamic defaults: data centers fall at L/2,
damping2 and the numeric data2 fields mirror their first-component
sections, and theta falls back to the largest admissible exponent for the
configured order (the field default 0.45 for the third-order families,
where that formula does not apply).  Every value a config is rejected
for is rejected here, naming its key, but three that need what the run
computes: a window lifespan T0 below evolution.dt and a t = 0 radius fit
that misses (both before the first step), and the step-size guard.
ScenarioConfig's checks start with the dotted key (run.k_max must be
>= 0, got -1), and build() prefixes a module's error with its section.
An error of a key the text sets gives the key's line.

Overrides are "dotted.key=value" strings sharing the value grammar, e.g.
"grid.N=1024" or "run.sigmas=[0.1, 0.2, 0.4, 0.8]".
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .analytics import theta_max
from .dynamics import Equation, EvolutionSpec, _plan_steps, make_damping, sech, soliton
from .errors import ConfigParseError, ConfigurationError
from .spectral import Grid, SpectralField, analyze, dealias

# ---------------------------------------------------------------------------
# schema, checks and builder
# ---------------------------------------------------------------------------

# scenario id -> the equation family its flow must be; None for the
# inequality suite, which integrates nothing and takes any family
FAMILIES = {"conservation": "mkdv", "sigma-scaling": "mkdv", "damping": "mkdvm", "iteration": "mkdvm",
            "radius": "mkdv", "coupled": "coupled", "inequalities": None}
SCENARIO_IDS = tuple(FAMILIES)


def _check(ok: bool, key: str, message: str) -> None:
    """Reject the value of the dotted key, named first, unless ok."""
    if not ok:
        raise ConfigurationError(f"{key} {message}", key)


@dataclass(frozen=True)
class DampingConfig:
    form: str = "raised_cosine"
    floor: float = 1.0
    amplitude: float = 0.25


@dataclass(frozen=True)
class DataConfig:
    """One initial profile.  kind selects the family:

    soliton  sqrt(6) k sech(k (x - x0)), the exact traveling wave
    sech     amplitude * sech((x - center) / width), radius pi*width/2
    zero     the zero field
    """

    kind: str = "soliton"
    k: float = 1.0
    x0: float = 32.0
    amplitude: float = 0.8
    width: float = 1.0
    center: float = 32.0


@dataclass(frozen=True)
class Tolerances:
    conservation: float = 1e-6
    rate: float = 1e-5
    decay: float = 1e-3
    equality: float = 1e-8
    radius: float = 1e-2
    radius_match: float = 0.03
    iteration: float = 1e-3
    inequality: float = 1e-12
    slope_lo: float = 1.8
    slope_hi: float = 2.2
    r2_min: float = 0.98

    def __post_init__(self):
        for key, value in vars(self).items():
            _check(value >= 0, f"tolerances.{key}", f"must be >= 0, got {value}")
        lo, hi = self.slope_lo, self.slope_hi
        _check(lo < hi, "tolerances.slope_lo", f"must be below slope_hi, got {lo} >= {hi}")
        _check(self.r2_min <= 1, "tolerances.r2_min", f"must be <= 1, got {self.r2_min}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one scenario run needs, fully resolved.

    Construction checks each key alone and against the scenario (names,
    the scenario's equation family, ascending sigmas, theta in (0, 1], the
    sigma-scaling sign and sigmas, nonzero window and sigma-scaling data);
    build() makes the grid, the evolution spec and the initial data, so
    checks every module precondition and what depends on them.  The parser
    calls it once to validate a config, and the driver once for the objects
    it integrates.
    """

    scenario: str = "conservation"
    seed: int = 20260819
    L: float = 64.0
    N: int = 512
    dt: float = 2e-4
    t_end: float = 5.0
    record_every: int = 250
    family: str = "mkdv"
    mu: int = 1
    m: int = 5
    alpha: float = 0.5
    nonlinear: bool = True
    damping: DampingConfig = field(default_factory=DampingConfig)
    damping2: DampingConfig = field(default_factory=DampingConfig)
    data: DataConfig = field(default_factory=DataConfig)
    data2: DataConfig = field(default_factory=lambda: DataConfig(kind="zero"))
    sigmas: tuple = (0.05, 0.1, 0.2, 0.4)
    sigma0: float = 0.5
    theta: float = 0.45
    c0: float = 1.0
    d: float = 2.0
    c1_mode: str = "empirical"
    c1_value: float = 1.0
    c1_safety: float = 2.0
    k_max: int = 20
    window_records: int = 8
    samples: int = 1_000_000
    tolerances: Tolerances = field(default_factory=Tolerances)
    out_dir: str = "out"

    def __post_init__(self):
        s = self.scenario
        _check(s in FAMILIES, "scenario", f"{s!r} is an unknown scenario; expected one of {SCENARIO_IDS}")
        _check(self.seed >= 0, "seed", f"must be >= 0, got {self.seed}")
        family = self.family
        _check(family in ("mkdv", "mkdvm", "coupled"), "equation.family", f"{family!r} is an unknown family")
        wanted = FAMILIES[s] or family
        _check(family == wanted, "equation.family", f"must be {wanted!r} for scenario {s!r}, got {family!r}")
        sigmas = self.sigmas
        _check(sorted(set(sigmas)) == list(sigmas), "run.sigmas", f"must be strictly ascending, got {sigmas}")
        _check(all(x >= 0 for x in sigmas), "run.sigmas", f"must be >= 0, got {sigmas}")
        _check(self.sigma0 > 0, "run.sigma0", f"must be positive, got {self.sigma0}")
        _check(0.0 < self.theta <= 1.0, "run.theta", f"must lie in (0, 1], got {self.theta}")
        _check(self.c0 > 0, "run.c0", f"must be positive, got {self.c0}")
        _check(self.d > 1, "run.d", f"must exceed 1, got {self.d}")
        _check(self.c1_mode in ("empirical", "fixed"), "run.c1_mode", f"{self.c1_mode!r} is not empirical or fixed")
        _check(self.c1_mode != "fixed" or self.c1_value > 0, "run.c1_value", f"must be positive, got {self.c1_value}")
        _check(self.c1_safety >= 1, "run.c1_safety", f"must be >= 1, got {self.c1_safety}")
        _check(self.k_max >= 0, "run.k_max", f"must be >= 0, got {self.k_max}")
        _check(self.window_records >= 1, "run.window_records", f"must be >= 1, got {self.window_records}")
        _check(self.samples >= 1, "run.samples", f"must be >= 1, got {self.samples}")
        if s == "sigma-scaling":
            _check(self.mu == -1, "equation.mu", f"must be -1, the defocusing sign, for sigma scaling, got {self.mu}")
            positive = [x for x in sigmas if x > 0]
            _check(len(positive) >= 3, "run.sigmas", f"needs >= 3 positive sigma values, has {len(positive)}")
            span = positive[-1] / positive[0]
            _check(span >= 8.0 * (1.0 - 1e-12), "run.sigmas", f"must span at least a factor 8, got {span:.3g}")
        if s in ("sigma-scaling", "iteration", "coupled"):
            zero = self.data.kind == "zero" and (family != "coupled" or self.data2.kind == "zero")
            also = ", as is data2.kind" if family == "coupled" else ""
            why = ("the drift D(sigma) = 0 at every sigma, and the scaling fit needs positive drift"
                   if s == "sigma-scaling" else "M_sigma0 = 0, and the window iteration needs nonzero data")
            _check(not zero, "data.kind", f"is zero{also}: {why}")

    def build(self) -> tuple[Grid, EvolutionSpec, object]:
        """(grid, spec, init): the grid; the configured flow, its damping
        profiles built and certified, as an EvolutionSpec; and the data
        projected into the band integrate evolves, one field or the pair
        (data, data2) for the coupled family.  Raises on the first violated
        precondition of these objects, naming its section, then on what the
        scenario needs of them: (A3), sigma0 R < 1, for every damping
        profile; a window scenario's sigma0 and the sigma-scaling sigmas
        below the data's radius; radius data of finite radius, >= 3
        records."""
        grid = _from_section("grid", Grid, self.L, self.N)
        pair = self.family == "coupled"
        damped = (("damping", self.damping), ("damping2", self.damping2))[: (self.family != "mkdv") * (1 + pair)]
        dampings = tuple(_from_section(name, make_damping, c.form, c.floor, c.amplitude, grid) for name, c in damped)
        R = max((d.deriv_bound_rate for d in dampings), default=0.0)
        q = self.sigma0 * R
        _check(q < 1, "run.sigma0", f"violates (A3): sigma0 * R = {q:.6g} must be < 1, with damping rate R = {R:.6g}")
        m, alphas = (self.m if self.family == "mkdvm" else 3), ((1.0, self.alpha) if pair else (1.0,))
        equation = _from_section("equation", Equation, self.mu, m, alphas, dampings)
        evolution = (equation, self.dt, self.t_end, self.record_every, self.nonlinear)
        spec = _from_section("evolution", EvolutionSpec, *evolution)
        data = (("data", self.data), ("data2", self.data2))[: 1 + pair]
        init = tuple(dealias(_from_section(name, build_field, d, grid)) for name, d in data)
        radius = min(known_radius(d) for _, d in data)
        if self.scenario in ("iteration", "coupled"):
            sigma0 = self.sigma0
            _check(sigma0 < radius, "run.sigma0", f"must stay below the data's radius {radius:.6g}, got {sigma0}")
        if self.scenario == "sigma-scaling":
            top = self.sigmas[-1]
            _check(top < radius, "run.sigmas", f"must stay below the data's radius {radius:.6g}, got {top}")
        if self.scenario == "radius":
            _check(math.isfinite(radius), "data.kind", f"{self.data.kind!r} has no known radius; use soliton or sech")
            n = _plan_steps(spec)[0] + 1
            _check(n >= 3, "evolution.record_every", f"leaves {n} records; radius needs at least 3 recorded snapshots")
        return grid, spec, init if pair else init[0]

    def as_sections(self) -> dict:
        """Resolved config as {section: {key: value}}, the shape the text
        format round-trips through and reports echo."""
        out: dict = {}
        for section, owner, f in config_keys():
            value = getattr(getattr(self, owner) if owner else self, f.name)
            out.setdefault(section, {})[f.name] = list(value) if isinstance(value, tuple) else value
        return out


# text-format section of each plain ScenarioConfig field; every nested
# config field (damping, damping2, data, data2, tolerances) is the section
# of its own name.  Sections are written in field order.
_SECTIONS = {
    "": ("scenario", "seed"),
    "grid": ("L", "N"),
    "evolution": ("dt", "t_end", "record_every"),
    "equation": ("family", "mu", "m", "alpha", "nonlinear"),
    "run": ("sigmas", "sigma0", "theta", "c0", "d", "c1_mode", "c1_value", "c1_safety",
            "k_max", "window_records", "samples"),
    "io": ("out_dir",),
}
_SECTION_OF = {name: section for section, names in _SECTIONS.items() for name in names}


def config_keys():
    """(section, owner, field) of every text-format key in written order:
    owner is the nested config field that holds the key, or None."""
    for f in fields(ScenarioConfig):
        if f.name in _SECTION_OF:
            yield _SECTION_OF[f.name], None, f
        else:
            for sub in fields(f.default_factory()):
                yield f.name, f.name, sub


def _from_section(section: str, make, *args):
    """make(*args); its ConfigurationError is prefixed by the section and keyed
    to the first section key, in written order, named in it (N=15: grid.N)."""
    try:
        return make(*args)
    except ConfigurationError as err:
        named = [f"{section}.{k}" for s, k in SCHEMA if s == section and re.search(rf"\b{k}\b", str(err))]
        raise ConfigurationError(f"{section}: {err}", named[0] if named else None) from err


def build_field(data: DataConfig, grid: Grid) -> SpectralField:
    if data.kind == "soliton":
        return soliton(data.k, data.x0, grid)[0]
    if data.kind == "sech":
        return sech(data.amplitude, data.width, data.center, grid)
    if data.kind == "zero":
        return analyze(np.zeros(grid.N), grid)
    raise ConfigurationError(f"unknown data kind {data.kind!r}")


def known_radius(data: DataConfig) -> float:
    """Exact analyticity radius of the configured profile (inf: zero is entire)."""
    if data.kind == "soliton":
        return math.pi / (2.0 * data.k)
    if data.kind == "sech":
        return math.pi * data.width / 2.0
    return math.inf


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

_SECTION_RE = re.compile(r"^\[([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)\]$")
_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_BARE_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")
_INT_RE = re.compile(r"^[+-]?[0-9]+$")


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


def _parse_text(text: str) -> tuple[dict, dict]:
    """Raw (section, key) -> value mapping with parse-time diagnostics, and
    the (line, column) of each key it sets, by dotted name."""
    values: dict = {}
    where: dict = {}
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
        dotted, name = (section, key), f"{section}.{key}" if section else key
        if dotted not in SCHEMA:
            raise ConfigParseError(f"unknown key {name!r}", line_no, indent + 1)
        if dotted in values:
            raise ConfigParseError(f"duplicate key {name!r}", line_no, indent + 1)
        value_col = indent + len(key_part) + 2
        values[dotted] = _coerce(dotted, _parse_value(value_part, line_no, value_col), line_no, value_col)
        where[name] = (line_no, indent + 1)
    return values, where


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
    # "floats", the last of the five kinds in _KINDS
    if not isinstance(value, tuple):
        raise ConfigParseError(f"{name} expects a list, got {value!r}", line_no, col)
    out = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigParseError(f"{name} expects numbers, got {item!r}", line_no, col)
        out.append(float(item))
    return tuple(out)


def _apply_overrides(values: dict, where: dict, overrides) -> None:
    """Set each override in values; an overridden key loses its line."""
    for text in overrides:
        if "=" not in text:
            raise ConfigurationError(f"override {text!r} is not of the form key=value")
        lhs, _, rhs = text.partition("=")
        name = lhs.strip()
        if name.count(".") > 1:
            raise ConfigurationError(f"override key {name!r} has too many dots")
        dotted = tuple(name.rpartition(".")[::2])
        if dotted not in SCHEMA:
            raise ConfigurationError(f"override names unknown key {name!r}")
        try:
            parsed = _parse_value(rhs, None, 0)
            values[dotted] = _coerce(dotted, parsed, None, 0)
        except ConfigParseError as err:
            raise ConfigurationError(f"override {text!r}: {err}") from None
        where.pop(name, None)


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
    """The checked config of text and overrides; a rejected key that the
    text sets is reported at its line and column."""
    values, where = _parse_text(text)
    _apply_overrides(values, where, overrides)
    try:
        cfg = _assemble(values)
        cfg.build()  # every module precondition, checked before any run
    except ConfigurationError as err:
        if err.key not in where:
            raise
        raise ConfigParseError(str(err), *where[err.key]) from err
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
