"""Scenario configuration: schema, checks, builder, text reader, renderer.

The text is TOML, read by the standard library's tomllib:

    # a comment
    scenario = "damping"         top-level keys come before any [section]
    [equation]
    mu = -1                      integers; floats; true / false
    [run]
    sigmas = [0.1, 0.2, 0.4]     a list of numbers
    [io]
    out_dir = "results/run 1"    strings are quoted TOML strings

Each [section] holds keys; a table below a section, or a key the schema
lacks, is an unknown key.  The schema is the ScenarioConfig dataclasses
below: a key's kind is its field annotation and its default the field
default, so an empty file is a valid conservation scenario; nan and inf
are rejected.  _resolve holds the dynamic defaults: data centers fall at
L/2, damping2 and the numeric data2 fields mirror their first-component
sections, and theta falls back to the largest admissible exponent for the
configured order (the field default 0.45 for the third-order families,
where that formula does not apply).  Every value a config is rejected
for is rejected here, naming its key, but four that need what the run
computes: a window lifespan T0 below evolution.dt, a window plan past
dynamics.plan_run's bounds (run.c0, run.k_max) and a t = 0 radius fit
that misses (all before the first step), and the step-size guard.
Every error is keyed where it is raised, a check here to its dotted key
(run.k_max must be >= 0, got -1) and a module's to its parameter, which
build() makes the key of the section it prefixes; a key the text sets,
written bare, gives its error its line, and a syntax error has tomllib's.

Overrides are "dotted.key=value" strings with a TOML value, e.g.
"grid.N=1024" or "run.sigmas=[0.1, 0.2, 0.4, 0.8]"; a str key also takes
text that is no TOML value as itself, e.g. "data.kind=sech".
"""

from __future__ import annotations

import math
import re
import sys
import tomllib
from dataclasses import field, fields, replace
from pathlib import Path

import numpy as np

from .analytics import theta_max
from .dynamics import Equation, EvolutionSpec, RaisedCosineDamping, check_band_phase, plan_run, sech, soliton
from .errors import ConfigParseError, ConfigurationError
from .records import frozen
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


@frozen
class DampingConfig:
    """One damping profile, the section damping or damping2: form
    raised_cosine, floor + amplitude * (1 + cos(2 pi x / L)), or constant,
    the same with amplitude 0."""

    form: str = "raised_cosine"
    floor: float = 1.0
    amplitude: float = 0.25


@frozen
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


@frozen
class Tolerances:
    """The tolerance each verdict is judged against, the section
    tolerances; construction rejects a negative one, slope_lo at or above
    slope_hi and r2_min above 1."""

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


@frozen
class ScenarioConfig:
    """Everything one scenario run needs, fully resolved.

    Construction checks each key alone and against the scenario (names,
    the scenario's equation family, ascending sigmas, theta in (0, 1], the
    sigma-scaling sign and sigmas, nonzero window and sigma-scaling data);
    build() makes the grid, the evolution spec and the initial data, so
    checks every module precondition and what depends on them.  The parser
    calls it to validate a config, and the harness for the objects it
    integrates.
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
        # at about 80 bytes a sample, the sweeps stay under 2**30 bytes
        _check(1 <= self.samples <= 2**23, "run.samples", f"must lie in [1, 2**23], got {self.samples}")
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

    def build(self) -> tuple[EvolutionSpec, object]:
        """(spec, init): the configured flow as an EvolutionSpec, and the
        data, which carries the grid, projected into the band integrate
        evolves, one field or the pair (data, data2) for the coupled family.
        Raises on the first violated precondition of these objects, each type
        checking its own (a damping profile its (A1) floor), keyed to the
        section's key; then on what the scenario needs of them: (A3),
        sigma0 R < 1, for every damping profile; a band-edge phase per step
        below 2^26 rad; a window scenario's sigma0
        and the sigma-scaling sigmas below the data's radius; radius data of
        finite radius, >= 3 records."""
        grid = _from_section("grid", Grid, self.L, self.N)
        pair = self.family == "coupled"
        damped = (("damping", self.damping), ("damping2", self.damping2))[: (self.family != "mkdv") * (1 + pair)]
        for name, c in damped:
            _check(c.form in ("constant", "raised_cosine"), f"{name}.form", f"{c.form!r} is an unknown form")
            _check(c.form != "constant" or c.amplitude == 0, f"{name}.amplitude",
                   f"must be 0 for constant damping, got {c.amplitude}")
        dampings = tuple(_from_section(name, RaisedCosineDamping, c.floor, c.amplitude, grid.L) for name, c in damped)
        R = max((d.deriv_bound_rate for d in dampings), default=0.0)
        q = self.sigma0 * R
        _check(q < 1, "run.sigma0", f"violates (A3): sigma0 * R = {q:.6g} must be < 1, with damping rate R = {R:.6g}")
        m, alphas = (self.m if self.family == "mkdvm" else 3), ((1.0, self.alpha) if pair else (1.0,))
        equation = _from_section("equation", Equation, self.mu, m, alphas, dampings, self.nonlinear)
        spec = _from_section("evolution", EvolutionSpec, equation, self.dt, self.t_end, self.record_every)
        _from_section("equation", check_band_phase, spec, grid)
        data = (("data", self.data), ("data2", self.data2))[: 1 + pair]
        init = tuple(dealias(_from_section(name, build_field, d, grid)) for name, d in data)
        if self.scenario in ("conservation", "sigma-scaling", "damping", "radius"):  # windows wait for T0
            n = plan_run(spec, init, key="evolution.t_end", keeps_band=self.scenario == "damping").n_rec + 1
        radius = min(known_radius(d) for _, d in data)
        if self.scenario in ("iteration", "coupled"):
            sigma0 = self.sigma0
            _check(sigma0 < radius, "run.sigma0", f"must stay below the data's radius {radius:.6g}, got {sigma0}")
        if self.scenario == "sigma-scaling":
            top = self.sigmas[-1]
            _check(top < radius, "run.sigmas", f"must stay below the data's radius {radius:.6g}, got {top}")
        if self.scenario == "radius":
            _check(math.isfinite(radius), "data.kind", f"{self.data.kind!r} has no known radius; use soliton or sech")
            _check(n >= 3, "evolution.record_every", f"leaves {n} records; radius needs at least 3 recorded snapshots")
        return spec, init if pair else init[0]

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
    """make(*args); its ConfigurationError, keyed to a parameter, is prefixed by
    the section and keyed to the section's key of that name (N: grid.N), or to none."""
    try:
        return make(*args)
    except ConfigurationError as err:
        key = f"{section}.{err.key}" if (section, err.key) in SCHEMA else None
        raise ConfigurationError(f"{section}: {err}", key) from err


def build_field(data: DataConfig, grid: Grid) -> SpectralField:
    if data.kind == "soliton":
        return soliton(data.k, data.x0, grid)[0]
    if data.kind == "sech":
        return sech(data.amplitude, data.width, data.center, grid)
    if data.kind == "zero":
        return analyze(np.zeros(grid.N), grid)
    raise ConfigurationError(f"unknown data kind {data.kind!r}", "kind")


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

# tomllib's error position, "(at line L, column C)" or "(at end of document)"
_TOML_AT = re.compile(r"(.*) \(at (?:line (\d+), column (\d+)|end of document)\)", re.DOTALL)

# a table header or the key of a key/value pair, each written bare
_LINE_RE = re.compile(r"([ \t]*)(?:\[[ \t]*([\w.\- \t]+?)[ \t]*\]|([\w.\- \t]+?)[ \t]*=)", re.ASCII)


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------


def _key_positions(text: str) -> dict:
    """(line, column) of each table header and bare key of the text, by
    dotted name.  The scan reads lines alone, so a line inside a multi-line
    string that looks like a header or a key can move the positions of the
    keys after it, never their values."""
    where, section = {}, ""
    for line_no, line in enumerate(text.split("\n"), start=1):
        m = _LINE_RE.match(line)
        if m is None:
            continue
        indent, header, key = m.groups()
        name = ".".join(part.strip() for part in (header or key).split("."))
        if header is not None:
            section = name
        elif section:
            name = f"{section}.{name}"
        where[name] = (line_no, len(indent) + 1)
    return where


def _parse_text(text: str) -> dict:
    """Raw (section, key) -> value mapping of the text; an unknown key or a
    value of the wrong kind is a ConfigurationError keyed to its dotted name."""
    try:
        table = tomllib.loads(text)
    except tomllib.TOMLDecodeError as err:
        # at tomllib's position; the end of the document is after its last character
        message, line, column = _TOML_AT.fullmatch(str(err)).groups()
        if line is None:
            line, column = text.count("\n") + 1, len(text) - text.rfind("\n")
        raise ConfigParseError(message, int(line), int(column)) from None
    values = {}
    for top, body in table.items():
        section, body = (top, body) if isinstance(body, dict) else ("", {top: body})
        for key, value in body.items():
            # a table below a section is a key no section holds
            if (section, key) not in SCHEMA or isinstance(value, dict):
                name = f"{section}.{key}" if section else key
                raise ConfigurationError(f"unknown key {name!r}", name)
            values[(section, key)] = _coerce((section, key), value)
    return values


# kind -> (the Python types tomllib reads a value of that kind as, what the error expects)
_EXPECTS = {"int": (int, "an integer"), "float": ((int, float), "a number"), "bool": (bool, "true or false"),
            "str": (str, "a string"), "floats": (list, "a list")}


def _coerce(dotted, value):
    """value as its key's kind: a number of a float key is a float, and a
    list of numbers a tuple of floats; each must be a finite double, which
    TOML's inf and nan are not.  An error is keyed to the dotted name."""
    kind = SCHEMA[dotted]
    name = f"{dotted[0]}.{dotted[1]}" if dotted[0] else dotted[1]
    types, expects = _EXPECTS[kind]
    # bool is an int subclass, and only a bool key takes one
    if not isinstance(value, types) or isinstance(value, bool) != (kind == "bool"):
        raise ConfigurationError(f"{name} expects {expects}, got {value!r}", name)
    if kind not in ("float", "floats"):
        return value
    items = value if kind == "floats" else [value]
    for item in items:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigurationError(f"{name} expects numbers, got {item!r}", name)
        if not abs(item) <= sys.float_info.max:
            raise ConfigurationError(f"{name}: non-finite number {item!r}", name)
    floats = tuple(map(float, items))
    return floats if kind == "floats" else floats[0]


def _apply_overrides(values: dict, where: dict, overrides) -> None:
    """Set each override, "dotted.key=value" with a TOML value, in values;
    an overridden key loses its line.  A str key also takes one line of text
    that is no TOML value as itself, so data.kind=gauss needs no quotes;
    text past the one value ("grid.N=256\nseed = 5") is rejected."""
    for text in overrides:
        if "=" not in text:
            raise ConfigurationError(f"override {text!r} is not of the form key=value")
        lhs, _, rhs = text.partition("=")
        name = lhs.strip()
        dotted = tuple(name.rpartition(".")[::2])
        if dotted not in SCHEMA:
            raise ConfigurationError(f"override names unknown key {name!r}")
        try:
            # tomllib keeps the document's order, so value comes first
            value, *more = tomllib.loads(f"value = {rhs}").values()
        except tomllib.TOMLDecodeError as err:
            if SCHEMA[dotted] != "str" or not rhs.strip():
                raise ConfigurationError(f"override {text!r}: {_TOML_AT.fullmatch(str(err))[1]}") from None
            value, *more = rhs.strip().splitlines()
        if more:
            raise ConfigurationError(f"override {text!r} sets more than its one value")
        try:
            values[dotted] = _coerce(dotted, value)
        except ConfigurationError as err:
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
    """The checked config of text and overrides; every error comes keyed, and a key
    that the text sets, written bare, gives it its line and column here alone."""
    where = _key_positions(text)
    try:
        values = _parse_text(text)
        _apply_overrides(values, where, overrides)
        cfg = _assemble(values)
        cfg.build()  # every module precondition, checked before any run
    except ConfigurationError as err:
        if err.key not in where:
            raise
        raise ConfigParseError(str(err), *where[err.key]) from err
    return cfg


def parse_config(path, overrides=()) -> ScenarioConfig:
    """Parse, override, default-fill, and pre-validate one scenario config file."""
    return parse_config_text(Path(path).read_text(encoding="utf-8-sig"), overrides)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


# TOML basic-string escapes: the quote, the backslash and the control
# characters; any other character, a lone surrogate too, is itself
_ESCAPES = {ord('"'): '\\"', ord("\\"): "\\\\", **{c: f"\\u{c:04x}" for c in (*range(0x20), 0x7F)}}


def _format_value(value) -> str:
    """One TOML value: a bool, a number, a list of numbers or a basic string."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, list):
        return "[" + ", ".join(map(_format_value, value)) + "]"
    return '"' + value.translate(_ESCAPES) + '"'


def render_config(cfg: ScenarioConfig) -> str:
    """TOML text that parses back to an equal ScenarioConfig."""
    lines = []
    for section, body in cfg.as_sections().items():
        if section:
            if lines:
                lines.append("")
            lines.append(f"[{section}]")
        for key, value in body.items():
            lines.append(f"{key} = {_format_value(value)}")
    return "\n".join(lines) + "\n"
