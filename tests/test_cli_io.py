"""Config grammar, report persistence, SVG plotting, and the CLI surface.

Grammar and renderer are checked against each other (parse -> render ->
parse must be the identity on configs), persistence against byte-exact
float round-trips and hash stability, and the CLI through main() with
temp directories rather than subprocesses.
"""

import dataclasses
import json
import math
import re
import time
import tomllib
import warnings

import pytest
from conftest import packaged_text
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gevreyflow.cli import _COMMANDS, main
from gevreyflow.config import (
    SCHEMA,
    _from_section,
    parse_config,
    parse_config_text,
    render_config,
)
from gevreyflow.dynamics import RaisedCosineDamping
from gevreyflow.errors import ConfigParseError, ConfigurationError
from gevreyflow.harness import ExperimentReport, Verdict
from gevreyflow.reporting import (
    PlotStyle,
    canonical_json,
    content_hash,
    plot_series,
    read_series_csv,
    report_payload,
    write_plot,
    write_report,
    write_series_csv,
)


# (text, the case it is, its error): an id is the text and the case
DIAGNOSTICS = [
    ("[grid\nN = 4\n", "unclosed header", "line 1, col 6: Expected ']' at the end of a table declaration"),
    ("[grid]\nN 512\n", "line 2", "line 2, col 3: Expected '=' after a key in a key/value pair"),
    ("[grid]\n2N = 4\n", "unknown key 'grid.2N'", "line 2, col 1: unknown key 'grid.2N'"),
    ("[grid]\nM = 3\n", "unknown key 'grid.M'", "line 2, col 1: unknown key 'grid.M'"),
    ("[grid]\nN = 512\nN = 256\n", "duplicate key", "line 3, col 8: Cannot overwrite a value"),
    ('[data]\nkind = "sech\n', "unterminated string", "line 2, col 13: Illegal character '\\n'"),
    ('[data]\nkind = "sech\\"\n', "unterminated string", "line 2, col 15: Illegal character '\\n'"),
    ('[data]\nkind = "se"ch"\n', "unescaped quote",
     "line 2, col 12: Expected newline or end of document after a statement"),
    ('[io]\nout_dir = "a\\q"\n', "unknown escape", "line 2, col 15: Unescaped '\\' in a string"),
    ("[run]\nsigmas = [0.1, 0.2\n", "unterminated list", "line 3, col 1: Unclosed array"),
    ("[evolution]\ndt = inf\n", "non-finite", "line 2, col 1: evolution.dt: non-finite number inf"),
    ("[grid]\nN = 12.5\n", "expects an integer", "line 2, col 1: grid.N expects an integer, got 12.5"),
    # a bare word is no TOML value, and a quoted one no number
    ("[grid]\nL = sideways\n", "expects a number", "line 2, col 5: Invalid value"),
    ('[grid]\nL = "sideways"\n', "quoted word for a number", "line 2, col 1: grid.L expects a number, got 'sideways'"),
    ("[equation]\nnonlinear = 1\n", "expects true or false",
     "line 2, col 1: equation.nonlinear expects true or false, got 1"),
    ("[run]\nsigmas = 0.1\n", "expects a list", "line 2, col 1: run.sigmas expects a list, got 0.1"),
    ("[run]\nsigmas = [0.1, oops, 0.9]\n", "expects numbers", "line 2, col 16: Invalid value"),
    ('[run]\nsigmas = [0.1, "oops", 0.9]\n', "quoted word in a list",
     "line 2, col 1: run.sigmas expects numbers, got 'oops'"),
    ("[grid]\nN =\n", "line 2, col 4: empty value", "line 2, col 4: Invalid value"),
    ("scenario = 5\n", "scenario expects a string", "line 1, col 1: scenario expects a string, got 5"),
    ('[io]\nout_dir = "abc\\\n', "unterminated string", "line 3, col 1: Unescaped '\\' in a string"),
]


class TestConfigGrammar:
    def test_empty_text_yields_defaults(self):
        cfg = parse_config_text("")
        assert cfg.scenario == "conservation"
        assert cfg.N == 512 and cfg.L == 64.0 and cfg.dt == 2e-4
        assert cfg.seed == 20260819

    def test_scalar_kinds(self):
        cfg = parse_config_text(
            "\n".join(
                [
                    "seed = 7",
                    "[grid]",
                    "L = 96.0",
                    "N = 256",
                    "[equation]",
                    "nonlinear = false",
                    "[io]",
                    'out_dir = "results/run 1"',
                ]
            )
        )
        assert cfg.seed == 7 and cfg.L == 96.0 and cfg.N == 256
        assert cfg.nonlinear is False
        assert cfg.out_dir == "results/run 1"

    def test_bare_words_and_lists(self):
        # TOML has no bare-word value: a file quotes its words
        with pytest.raises(ConfigParseError, match=r"^line 1, col 12: Invalid value$"):
            parse_config_text("scenario = sigma-scaling\n")
        cfg = parse_config_text(
            'scenario = "sigma-scaling"\n[equation]\nmu = -1\n[data]\nkind = "sech"\n'
            "[run]\nsigmas = [0.05, 0.1, 0.2, 0.4]\n"
        )
        assert cfg.scenario == "sigma-scaling"
        assert cfg.sigmas == (0.05, 0.1, 0.2, 0.4)

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text(
            "# leading comment\n\n[grid]  \nN = 256  # trailing comment\n"
        )
        assert cfg.N == 256

    def test_hash_inside_string_is_not_a_comment(self):
        cfg = parse_config_text('[io]\nout_dir = "a#b"\n')
        assert cfg.out_dir == "a#b"

    def test_string_escapes(self):
        cfg = parse_config_text('[io]\nout_dir = "tab\\there \\"q\\" \\\\ end"\n')
        assert cfg.out_dir == 'tab\there "q" \\ end'

    @pytest.mark.parametrize(
        "text, message",
        [pytest.param(text, message, id=f"{text}-{case}") for text, case, message in DIAGNOSTICS],
    )
    def test_diagnostics(self, text, message):
        with pytest.raises(ConfigParseError) as err:
            parse_config_text(text)
        assert str(err.value) == message

    def test_table_below_a_section_is_an_unknown_key(self):
        with pytest.raises(ConfigParseError, match=r"^line 1, col 1: unknown key 'grid\.sub'$"):
            parse_config_text("[grid.sub]\nN = 4\n")

    def test_quoted_unknown_key_is_rejected_without_a_line(self):
        # the line scan reads bare keys only, so a quoted key has no line
        with pytest.raises(ConfigurationError, match=r"^unknown key 'grid\.M'$") as err:
            parse_config_text('[grid]\n"M" = 3\n')
        assert err.value.key == "grid.M"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[run]\nsigmas = [0.1, nan]\n", "line 2, col 1: run.sigmas: non-finite number nan"),
            ("[grid]\nL = -inf\n", "line 2, col 1: grid.L: non-finite number -inf"),
            ("[grid]\nL = 1" + "0" * 400 + "\n", f"line 2, col 1: grid.L: non-finite number 1{'0' * 400}"),
        ],
        ids=["nan-in-list", "-inf", "int-beyond-double"],
    )
    def test_toml_numbers_beyond_double_range_rejected(self, text, message):
        with pytest.raises(ConfigParseError) as err:
            parse_config_text(text)
        assert str(err.value) == message

    def test_position_of_an_indented_dotted_key(self):
        # a dotted key sets its section's key, and an indent moves its column
        with pytest.raises(ConfigParseError, match=r"^line 2, col 3: grid\.N expects an integer, got 'x'$"):
            parse_config_text('seed = 1\n  grid.N = "x"\n')

    def test_byte_order_mark_is_read_past(self, tmp_path, capsys):
        path = tmp_path / "bom.cfg"
        path.write_text('scenario = "inequalities"\n[grid]\nN = 128\n', encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert parse_config(path).N == 128
        # and so does the CLI, which reads a --config file through parse_config
        args = ["inequalities", "--config", str(path), "--out", str(tmp_path), "--quiet", "--set", "run.samples=2000"]
        assert main(args) == 0, capsys.readouterr().err

    def test_error_reports_line_and_column(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config_text("[grid]\nN = 512\nL = what!\n")
        assert err.value.line == 3
        assert "col 5" in str(err.value)


DYNAMIC = "dynamic"  # a default derived from other keys

# every text-format key in written order: (section, key, kind, file default)
SCHEMA_PIN = (
    ("", "scenario", "str", "conservation"),
    ("", "seed", "int", 20260819),
    ("grid", "L", "float", 64.0),
    ("grid", "N", "int", 512),
    ("evolution", "dt", "float", 0.0002),
    ("evolution", "t_end", "float", 5.0),
    ("evolution", "record_every", "int", 250),
    ("equation", "family", "str", "mkdv"),
    ("equation", "mu", "int", 1),
    ("equation", "m", "int", 5),
    ("equation", "alpha", "float", 0.5),
    ("equation", "nonlinear", "bool", True),
    ("damping", "form", "str", "raised_cosine"),
    ("damping", "floor", "float", 1.0),
    ("damping", "amplitude", "float", 0.25),
    ("damping2", "form", "str", DYNAMIC),
    ("damping2", "floor", "float", DYNAMIC),
    ("damping2", "amplitude", "float", DYNAMIC),
    ("data", "kind", "str", "soliton"),
    ("data", "k", "float", 1.0),
    ("data", "x0", "float", DYNAMIC),
    ("data", "amplitude", "float", 0.8),
    ("data", "width", "float", 1.0),
    ("data", "center", "float", DYNAMIC),
    ("data2", "kind", "str", "zero"),
    ("data2", "k", "float", DYNAMIC),
    ("data2", "x0", "float", DYNAMIC),
    ("data2", "amplitude", "float", DYNAMIC),
    ("data2", "width", "float", DYNAMIC),
    ("data2", "center", "float", DYNAMIC),
    ("run", "sigmas", "floats", (0.05, 0.1, 0.2, 0.4)),
    ("run", "sigma0", "float", 0.5),
    ("run", "theta", "float", DYNAMIC),
    ("run", "c0", "float", 1.0),
    ("run", "d", "float", 2.0),
    ("run", "c1_mode", "str", "empirical"),
    ("run", "c1_value", "float", 1.0),
    ("run", "c1_safety", "float", 2.0),
    ("run", "k_max", "int", 20),
    ("run", "window_records", "int", 8),
    ("run", "samples", "int", 1000000),
    ("tolerances", "conservation", "float", 1e-06),
    ("tolerances", "rate", "float", 1e-05),
    ("tolerances", "decay", "float", 0.001),
    ("tolerances", "equality", "float", 1e-08),
    ("tolerances", "radius", "float", 0.01),
    ("tolerances", "radius_match", "float", 0.03),
    ("tolerances", "iteration", "float", 0.001),
    ("tolerances", "inequality", "float", 1e-12),
    ("tolerances", "slope_lo", "float", 1.8),
    ("tolerances", "slope_hi", "float", 2.2),
    ("tolerances", "r2_min", "float", 0.98),
    ("io", "out_dir", "str", "out"),
)

# moves every key that a dynamic default reads away from its file default
MOVED_BASES = {
    "scenario": "damping",
    "grid.L": "96.0",
    "equation.family": "mkdvm",
    "equation.mu": "-1",
    "equation.m": "7",
    "damping.form": "constant",
    "damping.floor": "2.0",
    "damping.amplitude": "0.0",
    "data.kind": "sech",
    "data.k": "2.0",
    "data.amplitude": "0.5",
    "data.width": "1.5",
}

_KIND_TYPES = {"int": int, "float": float, "bool": bool, "str": str, "floats": list}


class TestSchema:
    def test_keys_and_kinds_are_pinned(self):
        assert len(SCHEMA_PIN) == 53
        assert list(SCHEMA.items()) == [((s, k), kind) for s, k, kind, _ in SCHEMA_PIN]

    def test_static_file_defaults_are_pinned(self):
        empty = parse_config_text("").as_sections()
        assert [(s, k) for s, body in empty.items() for k in body] == [(s, k) for s, k, *_ in SCHEMA_PIN]
        for section, key, kind, default in SCHEMA_PIN:
            value = empty[section][key]
            assert type(value) is _KIND_TYPES[kind], (section, key)
            if default is not DYNAMIC:
                assert value == (list(default) if kind == "floats" else default), (section, key)

    def test_dynamic_keys_are_exactly_the_derived_ones(self):
        empty = parse_config_text("").as_sections()
        moved = parse_config_text("", [f"{k}={v}" for k, v in MOVED_BASES.items()]).as_sections()
        given = {tuple(name.rpartition(".")[::2]) for name in MOVED_BASES}
        changed = {(s, k) for s, k, *_ in SCHEMA_PIN if moved[s][k] != empty[s][k]} - given
        assert changed == {(s, k) for s, k, _, default in SCHEMA_PIN if default is DYNAMIC}


class TestDynamicDefaults:
    def test_data_center_follows_domain_length(self):
        cfg = parse_config_text("[grid]\nL = 128.0\n")
        assert cfg.data.x0 == 64.0 and cfg.data.center == 64.0

    def test_explicit_center_wins(self):
        cfg = parse_config_text("[data]\nx0 = 30.0\n")
        assert cfg.data.x0 == 30.0 and cfg.data.center == 32.0

    def test_damping2_mirrors_damping(self):
        cfg = parse_config_text("[damping]\namplitude = 0.4\n")
        assert cfg.damping2.amplitude == 0.4
        assert cfg.damping2.form == "raised_cosine"

    def test_damping2_partial_override(self):
        cfg = parse_config_text("[damping]\namplitude = 0.4\n[damping2]\nfloor = 2.0\n")
        assert cfg.damping2.floor == 2.0
        assert cfg.damping2.amplitude == 0.4

    def test_data2_defaults_to_zero_kind(self):
        cfg = parse_config_text("")
        assert cfg.data2.kind == "zero"

    @pytest.mark.parametrize(
        "text, theta",
        [
            ("", 0.45),
            ('[equation]\nfamily = "mkdvm"\nmu = -1\nm = 5\n', 0.25),
            ('[equation]\nfamily = "mkdvm"\nmu = -1\nm = 7\n', 43.0 / 60.0),
            ('[equation]\nfamily = "mkdvm"\nmu = -1\nm = 3\n', 0.45),
        ],
    )
    def test_theta_default_tracks_order(self, text, theta):
        # the text names no scenario; the mkdvm texts are damping configs
        scenario = "damping" if "mkdvm" in text else "conservation"
        assert parse_config_text(text, [f"scenario={scenario}"]).theta == pytest.approx(theta, rel=1e-15)

    def test_explicit_theta_wins(self):
        cfg = parse_config_text("[run]\ntheta = 0.33\n")
        assert cfg.theta == 0.33


class TestOverrides:
    def test_grid_override(self):
        cfg = parse_config_text("", ["grid.N=1024"])
        assert cfg.N == 1024

    def test_top_level_override(self):
        cfg = parse_config_text("", ["seed=7"])
        assert cfg.seed == 7

    def test_override_beats_file_value(self):
        cfg = parse_config_text("[grid]\nN = 256\n", ["grid.N=128"])
        assert cfg.N == 128

    def test_str_override_may_stay_bare(self):
        # text that is no TOML value is a str key's value as itself
        cfg = parse_config_text("", ["data.kind=sech", 'io.out_dir="a b"', "io.out_dir=a#b"])
        assert cfg.data.kind == "sech" and cfg.out_dir == "a#b"

    def test_override_sets_its_one_value(self):
        # TOML text past the value set a second key, which was dropped
        # unseen; a bare str value's second line went into the value
        for override in ["grid.N=256\nseed = 5", 'io.out_dir="a"\n[grid]\nN = 128', "io.out_dir=a\nseed = 5"]:
            with pytest.raises(ConfigurationError, match=rf"^override {re.escape(repr(override))} sets more than"):
                parse_config_text("", [override])
        assert parse_config_text("", ["grid.N=256 # note"]).N == 256

    def test_list_override(self):
        cfg = parse_config_text("", ["run.sigmas=[0.1, 0.2, 0.4, 0.8]"])
        assert cfg.sigmas == (0.1, 0.2, 0.4, 0.8)
        # conservation reads no sigma, so an empty list is a valid one
        assert parse_config_text("", ["run.sigmas=[]"]).sigmas == ()

    @pytest.mark.parametrize(
        "override",
        # an empty value is no TOML value, and no str key takes it as itself
        ["no_equals_here", "nope=3", "a.b.c=3", "grid.N=maybe", "io.out_dir=", "data.kind= "],
    )
    def test_bad_overrides_rejected(self, override):
        with pytest.raises(ConfigurationError):
            parse_config_text("", [override])


# a damped config whose sixth line sets run.sigma0
A3_TEXT = 'scenario = "damping"\n[equation]\nfamily = "mkdvm"\nmu = -1\n[run]\nsigma0 = {}\n'


class TestParseTimeValidation:
    def test_analyticity_condition_cited(self):
        # (A3) is a check on run.sigma0, so a file's error gives that key's line
        with pytest.raises(ConfigurationError, match=r"^line 6, col 1: run\.sigma0 violates \(A3\)"):
            parse_config_text(A3_TEXT.format(15.0))

    def test_a3_admits_sigma0_inside(self):
        # R = 2 pi/64 ~ 0.0982, so sigma0 < 10.19 is accepted
        assert parse_config_text(A3_TEXT.format(10.0)).sigma0 == 10.0

    @pytest.mark.parametrize("command", ["damping", "iterate", "coupled"])
    def test_a3_rejects_sigma0_beyond(self, command):
        # every damped family; the override has no line, so the key leads
        pattern = r"^run\.sigma0 violates \(A3\): sigma0 \* R = 1\.9635 must be < 1, with damping rate R = 0\.0981748$"
        with pytest.raises(ConfigurationError, match=pattern):
            parse_config_text(packaged_text(command), ["run.sigma0=20"])

    @pytest.mark.parametrize("L", ["5e-324", "1e-310", "1e308"])
    def test_grid_length_outside_double_range_is_keyed_to_it(self, L):
        # L/N = 0 or pi N / L = inf: Grid.xi had overflowed, and the (A3)
        # check after it blamed run.sigma0 for sigma0 * R = inf; 2 L = inf:
        # the Parseval weight overflowed, and M_sigma blamed no key
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match=rf"^grid: domain length .* got L={re.escape(str(float(L)))}$") as err:
                parse_config_text(packaged_text("iterate"), [f"grid.L={L}"])
            assert err.value.key == "grid.L"
            with pytest.raises(ConfigParseError, match=r"^line 2, col 1: grid: domain length"):
                parse_config_text(f"[grid]\nL = {L}\n")

    def test_descending_sigmas_rejected(self):
        with pytest.raises(ConfigurationError, match="ascending"):
            parse_config_text("[run]\nsigmas = [0.4, 0.2]\n")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            parse_config_text('scenario = "jubilee"\n')

    @pytest.mark.parametrize("command", ["damping", "coupled"])
    @pytest.mark.parametrize("N", [1024, 2048])
    def test_damped_configs_validate_on_fine_grids(self, command, N):
        # the profile's closed form certifies (A2) at every N
        cfg = parse_config_text(packaged_text(command), [f"grid.N={N}"])
        assert cfg.N == N

    @pytest.mark.parametrize(
        "override, pattern",
        [
            ("damping.form=gaussian", r"^damping\.form 'gaussian' is an unknown form$"),
            ("damping.form=constant", r"^damping\.amplitude must be 0 for constant damping, got 0\.25$"),
        ],
        ids=["unknown", "constant-amplitude"],
    )
    def test_damping_form_is_a_config_word(self, override, pattern):
        # build() checks the form, a word of the config; constant is the
        # raised cosine of amplitude 0, and takes no other amplitude
        with pytest.raises(ConfigurationError, match=pattern):
            parse_config_text(A3_TEXT.format(0.5), [override])

    def test_constant_form_builds_the_flat_profile(self):
        cfg = parse_config_text(A3_TEXT.format(0.5), ["damping.form=constant", "damping.amplitude=0"])
        spec, _ = cfg.build()
        assert spec.equation.dampings == (RaisedCosineDamping(1.0, 0.0, 64.0),)

    @pytest.mark.parametrize(
        "override, pattern",
        [
            # the rejected amplitude is the file's, so its line is given
            ("damping2.form=constant", r"^line 21, col 1: damping2\.amplitude must be 0 for constant damping, got 0\.25$"),
            ("data2.width=0", r"^data2: .*width"),
        ],
        ids=["damping2", "data2"],
    )
    def test_section_errors_name_their_section(self, override, pattern):
        with pytest.raises(ConfigurationError, match=pattern):
            parse_config_text(packaged_text("coupled"), [override])

    def test_module_error_is_keyed_by_its_raise_not_its_message(self):
        # the message names L, the raise keys N: the key is the raise's
        def make():
            raise ConfigurationError("L must hold N nodes", "N")

        with pytest.raises(ConfigurationError, match=r"^grid: L must hold N nodes$") as err:
            _from_section("grid", make)
        assert err.value.key == "grid.N"
        # a parameter the section has no key for keys the error to none
        with pytest.raises(ConfigurationError) as err:
            _from_section("damping", RaisedCosineDamping, 1.0, 0.25, 0.0)
        assert err.value.key is None

    @pytest.mark.parametrize(
        "command, override, key",
        [
            ("conserve", "grid.L=-1", "grid.L"),
            ("conserve", "grid.N=15", "grid.N"),
            ("conserve", "equation.mu=2", "equation.mu"),
            ("iterate", "equation.m=4", "equation.m"),
            ("coupled", "equation.alpha=1.0", "equation.alpha"),
            ("conserve", "evolution.dt=0", "evolution.dt"),
            ("conserve", "evolution.t_end=0", "evolution.t_end"),
            ("conserve", "evolution.record_every=0", "evolution.record_every"),
            ("damping", "damping.floor=0", "damping.floor"),
            ("damping", "damping.amplitude=-1", "damping.amplitude"),
            ("coupled", "damping2.floor=0", "damping2.floor"),
            ("radius", "data.amplitude=0", "data.amplitude"),
            ("radius", "data.width=0", "data.width"),
            ("radius", "data.center=100", "data.center"),
            ("radius", "data.center=3", "data.center"),
            ("radius", "data.width=10", "data.width"),
            ("conserve", "data.k=0", "data.k"),
            ("conserve", "data.x0=100", "data.x0"),
            ("conserve", "data.x0=2", "data.x0"),
            ("conserve", "data.k=0.1", "data.k"),
            ("conserve", "data.k=1e308", "data.k"),
            ("conserve", "data.kind=gauss", "data.kind"),
            ("coupled", "data2.amplitude=-1", "data2.amplitude"),
        ],
    )
    def test_module_check_keys_its_config_key(self, command, override, key):
        # an override has no line, so the error keeps its dotted key
        with pytest.raises(ConfigurationError, match=rf"^{key.split('.')[0]}: ") as err:
            parse_config_text(packaged_text(command), [override])
        assert err.value.key == key


class TestRoundTrip:
    def test_render_parse_identity_on_defaults(self):
        cfg = parse_config_text("")
        assert parse_config_text(render_config(cfg)) == cfg

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_packaged_configs_round_trip(self, command):
        cfg = parse_config_text(packaged_text(command))
        assert cfg.scenario == _COMMANDS[command]
        again = parse_config_text(render_config(cfg))
        assert again == cfg

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_packaged_configs_are_plain_toml(self, command):
        # tomllib alone reads each file to the values the parser takes from it
        text = packaged_text(command)
        table = tomllib.loads(text)
        flat = {(s, k): v for s, body in table.items() if isinstance(body, dict) for k, v in body.items()}
        flat.update({("", k): v for k, v in table.items() if not isinstance(v, dict)})
        sections = parse_config_text(text).as_sections()
        assert flat and {key: sections[key[0]][key[1]] for key in flat} == flat

    def test_constant_damping_variant_round_trips(self):
        cfg = parse_config_text(packaged_text("damping_constant"))
        assert cfg.damping.form == "constant"
        assert parse_config_text(render_config(cfg)) == cfg

    @settings(max_examples=40, deadline=None)
    @given(dt=st.floats(min_value=1e-8, max_value=1.0, allow_nan=False, exclude_min=True))
    def test_float_values_round_trip_exactly(self, dt):
        cfg = parse_config_text(f"[evolution]\ndt = {dt!r}\n")
        assert cfg.dt == dt
        assert parse_config_text(render_config(cfg)).dt == dt

    @settings(max_examples=200, deadline=None)
    @given(
        # every character: control characters, DEL, quotes, backslashes and
        # lone surrogates included
        out_dir=st.text(st.characters(exclude_categories=()), max_size=24),
        alpha=st.floats(allow_nan=False, allow_infinity=False),
    )
    @example(out_dir='\x00\x1f\x7f"\\\ud800\udfff\u2028', alpha=0.0)
    def test_render_parse_identity_on_strings_and_floats(self, out_dir, alpha):
        # any text and any finite float, in a key the parser leaves
        # unchecked (the mkdv family reads no dispersion ratio)
        cfg = dataclasses.replace(parse_config_text(""), out_dir=out_dir, alpha=alpha)
        assert parse_config_text(render_config(cfg)) == cfg

    @pytest.mark.parametrize("out_dir", ["out\\", "a\\\\", 'q\\"', "inf", "nan", "x # y\\", "true", "\ud83d", "\t\x7f"])
    def test_backslash_and_number_words_round_trip(self, out_dir):
        cfg = dataclasses.replace(parse_config_text(""), out_dir=out_dir)
        assert parse_config_text(render_config(cfg)).out_dir == out_dir

    def test_override_string_ending_in_backslash(self):
        cfg = parse_config_text("", ['io.out_dir="out\\\\"'])
        assert cfg.out_dir == "out\\"

    def test_comment_after_string_ending_in_backslash(self):
        cfg = parse_config_text('[io]\nout_dir = "out\\\\"  # trailing\n')
        assert cfg.out_dir == "out\\"

    def test_parse_config_reads_files(self, tmp_path):
        path = tmp_path / "case.cfg"
        path.write_text("[grid]\nN = 128\n", encoding="utf-8")
        assert parse_config(path, ["grid.L=256.0"]).N == 128


def _tiny_report(scenario="inequalities", passed=True, series=None):
    return ExperimentReport(
        scenario=scenario,
        series=series if series is not None else {},
        fits={"answer": {"value": 42.0}},
        verdicts={"check": Verdict(passed=passed, margin=0.5 if passed else -0.5, tolerance=1e-6)},
        config={"": {"scenario": scenario, "seed": 1}},
        wall_clock=0.125,
    )


class TestReporting:
    def test_hash_excludes_wall_clock(self):
        a = _tiny_report()
        b = ExperimentReport(
            scenario=a.scenario,
            series=a.series,
            fits=a.fits,
            verdicts=a.verdicts,
            config=a.config,
            wall_clock=99.0,
        )
        assert content_hash(report_payload(a)) == content_hash(report_payload(b))

    def test_canonical_json_is_key_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_nan_payload_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_write_report_layout(self, tmp_path):
        series = {"curve": {"t": [0.0, 1.0], "y": [2.0, 3.0]}}
        report = _tiny_report(series=series)
        path = write_report(report, tmp_path)
        assert path == tmp_path / "report.json"
        doc = json.loads(path.read_text())
        assert doc["content_hash"] == content_hash(report_payload(report))
        assert doc["wall_clock"] == 0.125
        assert doc["passed"] is True
        assert (tmp_path / "series" / "curve.csv").exists()

    def test_runs_jsonl_appends(self, tmp_path):
        report = _tiny_report()
        write_report(report, tmp_path)
        write_report(report, tmp_path)
        lines = (tmp_path / "runs.jsonl").read_text().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first["content_hash"] == second["content_hash"]
        assert first["scenario"] == "inequalities"

    def test_empty_series_writes_report_only(self, tmp_path):
        write_report(_tiny_report(), tmp_path)
        assert not (tmp_path / "series").exists()

    def test_csv_round_trip_is_exact(self, tmp_path):
        table = {
            "t": [0.1, 0.2, 1e-300],
            "value": [math.pi, 2.0 / 3.0, 4.105738e-10],
        }
        path = tmp_path / "table.csv"
        write_series_csv(table, path)
        back = read_series_csv(path)
        assert back == table

    def test_csv_quotes_awkward_headers(self, tmp_path):
        path = tmp_path / "quoted.csv"
        write_series_csv({'a,b"c': [1.5]}, path)
        assert '"a,b""c"' in path.read_text()
        assert read_series_csv(path) == {'a,b"c': [1.5]}

    def test_mismatched_columns_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="mismatched"):
            write_series_csv({"a": [1.0], "b": [1.0, 2.0]}, tmp_path / "bad.csv")

    def test_empty_csv_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ConfigurationError, match="empty"):
            read_series_csv(path)

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=1,
            max_size=8,
        )
    )
    def test_csv_floats_survive_any_magnitude(self, values, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "vals.csv"
        write_series_csv({"v": values}, path)
        assert read_series_csv(path)["v"] == values


class TestPlotting:
    def test_polyline_svg(self):
        svg = plot_series(
            {"t": [0.0, 1.0, 2.0], "mass": [1.0, 0.5, 0.25], "envelope": [1.1, 0.6, 0.3]},
            PlotStyle(title="decay <test>", x_label="t", annotation="note"),
        )
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 2
        assert "stroke-dasharray" in svg  # envelope drawn dashed
        assert "decay &lt;test&gt;" in svg
        assert "note" in svg
        assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")

    def test_log_axis_drops_nonpositive_points(self):
        svg = plot_series(
            {"t": [0.0, 1.0, 2.0], "y": [0.0, 0.1, 0.01]},
            PlotStyle(y_log=True),
        )
        assert "polyline" in svg and "1e-1" in svg

    def test_all_nonpositive_under_log_is_drawn_on_linear_axes(self):
        table = {"t": [0.0, 1.0], "y": [0.0, -1.0]}
        for style in (PlotStyle(y_log=True), PlotStyle(x_log=True, y_log=True, title="drift")):
            assert plot_series(table, style) == plot_series(table, dataclasses.replace(style, x_log=False, y_log=False))
        # no finite value is drawn on any axes
        for style in (PlotStyle(), PlotStyle(y_log=True)):
            with pytest.raises(ConfigurationError, match="no finite points"):
                plot_series({"t": [1.0], "y": [math.nan]}, style)

    def test_single_point_becomes_marker(self):
        svg = plot_series({"t": [1.0], "y": [2.0]})
        assert "<circle" in svg and "polyline" not in svg

    def test_empty_inputs_rejected(self):
        with pytest.raises(ConfigurationError, match="x column"):
            plot_series({"t": [1.0, 2.0]})
        with pytest.raises(ConfigurationError, match="no rows"):
            plot_series({"t": [], "y": []})

    def test_write_plot_creates_parents(self, tmp_path):
        out = write_plot(
            {"t": [0.0, 1.0], "y": [1.0, 2.0]},
            PlotStyle(),
            tmp_path / "plots" / "y.svg",
        )
        assert out.exists() and out.read_text().startswith("<svg")


class TestCli:
    def test_no_subcommand_usage(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_usage(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_flags_may_come_before_the_scenario(self, tmp_path, capsys):
        # one parser declares the flags once, for every position
        assert main(["--quiet", "--out", str(tmp_path), "inequalities", "--set", "run.samples=2000"]) == 0
        assert capsys.readouterr().out == "" and (tmp_path / "inequalities" / "report.json").exists()

    def test_inequalities_run_and_layout(self, tmp_path, capsys):
        code = main(
            ["inequalities", "--out", str(tmp_path), "--set", "run.samples=2000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "report" in out
        run_dir = tmp_path / "inequalities"
        assert (run_dir / "report.json").exists()
        assert (run_dir / "runs.jsonl").exists()
        assert not (run_dir / "series").exists()

    def test_quiet_suppresses_output(self, tmp_path, capsys):
        code = main(
            ["inequalities", "--quiet", "--out", str(tmp_path), "--set", "run.samples=2000"]
        )
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_verdict_failure_exits_two(self, tmp_path, capsys):
        code = main(
            [
                "conserve",
                "--out",
                str(tmp_path),
                "--set",
                "evolution.t_end=0.05",
                "--set",
                "evolution.record_every=50",
                "--set",
                "tolerances.conservation=1e-30",
            ]
        )
        assert code == 2
        assert "FAIL" in capsys.readouterr().out

    def test_execution_error_exits_one(self, tmp_path, capsys):
        code = main(["conserve", "--out", str(tmp_path), "--set", "grid.N=nope"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_inverted_slope_band_exits_one(self, tmp_path, capsys):
        # an inverted band has a negative half-width, under which a slope
        # outside the band would read a positive margin
        overrides = ["--set", "tolerances.slope_lo=2.2", "--set", "tolerances.slope_hi=1.8"]
        assert main(["sigma-scaling", "--out", str(tmp_path), *overrides]) == 1
        assert capsys.readouterr().err.startswith("error: tolerances.slope_lo ")

    @pytest.mark.parametrize(
        "command, override",
        [
            ("iterate", "run.k_max=-1"),
            ("conserve", "grid.N=15"),
            ("conserve", "grid.L=-1"),
            ("coupled", "equation.alpha=1.0"),
            ("conserve", "evolution.dt=0.05"),
            ("conserve", "evolution.dt=0"),
            ("iterate", "run.c0=-1"),
            ("iterate", "run.d=0"),
            ("iterate", "run.c1_safety=0.5"),
            ("iterate", "run.window_records=0"),
            ("conserve", "equation.mu=2"),
            ("iterate", "equation.m=4"),
            ("conserve", "evolution.t_end=0"),
            ("conserve", "evolution.record_every=0"),
            ("iterate", "run.sigma0=0"),
            ("iterate", "run.sigma0=2"),
            ("sigma-scaling", "data.kind=zero"),
            ("damping", "damping.floor=0"),
            ("damping", "damping.amplitude=-1"),
            ("damping", "damping.form=bogus"),
            ("conserve", "data.k=0"),
            ("conserve", "data.x0=100"),
            ("sigma-scaling", "data.width=0"),
            ("coupled", "data2.amplitude=-1"),
            ("conserve", "seed=-1"),
            ("conserve", "run.sigmas=[0.4,0.1]"),
            ("sigma-scaling", "run.sigmas=[0.1,0.2,0.4]"),
            ("inequalities", "run.samples=0"),
            ("conserve", "equation.family=mkdvm"),
            ("sigma-scaling", "equation.mu=1"),
            ("radius", "evolution.record_every=100000"),
            ("sigma-scaling", "run.sigmas=[]"),
            ("conserve", "data.kind=gauss"),
        ],
    )
    def test_rejected_override_names_its_key(self, tmp_path, capsys, command, override):
        # the error names the key's section and the key; an override has no line
        assert main([command, "--out", str(tmp_path), "--quiet", "--set", override]) == 1
        err = capsys.readouterr().err
        section, _, name = override.partition("=")[0].rpartition(".")
        assert re.search(rf"\b{name}\b", err) and re.search(rf"\b{section}\b", err), err
        assert err.startswith("error: ") and "line" not in err

    @pytest.mark.parametrize(
        "command, old, new",
        [
            ("iterate", "k_max = 20", "k_max = -1"),
            ("conserve", "dt = 0.0002", "dt = 0"),
            ("radius", "record_every = 500", "record_every = 100000"),
            ("iterate", "sigma0 = 0.5", "sigma0 = 15.0"),
            ("conserve", 'kind = "soliton"', 'kind = "gauss"'),
            # soliton data reads k, not width, so its edge error names data.k
            ("conserve", "k = 1.0", "k = 0.1"),
            # a k whose peak sqrt(6) k overflows is k's fault, not the amplitude's
            ("conserve", "k = 1.0", "k = 1e308"),
            # a profile that clears the edge tail at L/2 is off-centre: the center is at fault
            ("conserve", "x0 = 32.0", "x0 = 2.0"),
            ("radius", "center = 32.0", "center = 3.0"),
            # 2e10 records: 149 GiB of record times
            ("conserve", "t_end = 5.0", "t_end = 1e9"),
        ],
    )
    def test_rejected_key_in_a_file_gives_its_line(self, tmp_path, capsys, command, old, new):
        text = packaged_text(command).replace(old, new)
        config = tmp_path / "bad.cfg"
        config.write_text(text, encoding="utf-8")
        assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 1
        line = text.splitlines().index(new) + 1
        # the line is the file's, so the file is named in front of it
        assert capsys.readouterr().err.startswith(f"error: {config}: line {line}, col 1: ")

    @pytest.mark.parametrize("command, override", [("conserve", "data.x0=2"), ("radius", "data.center=3")])
    def test_edge_error_of_an_overridden_center_has_no_line(self, tmp_path, capsys, command, override):
        # the center is at fault and the override set it, so no line of
        # the packaged file is blamed
        assert main([command, "--out", str(tmp_path), "--quiet", "--set", override]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: data: ") and "tail at the domain edge" in err
        assert "line" not in err and "configs/" not in err

    @pytest.mark.parametrize("command", ["iterate", "coupled"])
    def test_run_without_verdicts_exits_two(self, tmp_path, capsys, command):
        # k_max = 0 derives T0 and sigma and checks no window: not a pass
        code = main([command, "--out", str(tmp_path), "--set", "run.k_max=0"])
        assert code == 2
        scenario = _COMMANDS[command]
        assert capsys.readouterr().err == f"{scenario}: no verdict checked\n"
        assert (tmp_path / scenario / "report.json").exists()

    @pytest.mark.parametrize("command, series", [("conserve", "drift"), ("damping", "mass_decay")])
    def test_zero_data_plots_on_linear_axes(self, tmp_path, command, series):
        # an all-zero series has no point on log axes; the run passes, so
        # the CLI draws it on linear axes and exits 0
        overrides = ["--set", "data.kind=zero", "--set", "evolution.t_end=0.1"]
        assert main([command, "--out", str(tmp_path), "--quiet", *overrides]) == 0
        assert (tmp_path / _COMMANDS[command] / "plots" / f"{series}.svg").exists()

    @pytest.mark.parametrize("command", ["inequalities", "conserve"])
    def test_negative_seed_exits_one(self, tmp_path, capsys, command):
        assert main([command, "--out", str(tmp_path), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize(
        "command, override, prefix",
        [
            ("coupled", "damping2.form=constant",
             "configs/coupled.cfg: line 21, col 1: damping2.amplitude must be 0 for constant damping, got 0.25\n"),
            ("iterate", "grid.L=20", "configs/iterate.cfg: line 21, col 1: data: "),
        ],
    )
    def test_packaged_config_error_names_its_file(self, tmp_path, capsys, command, override, prefix):
        # the rejected value is the packaged file's, so its line is given
        # with the file it is in
        assert main([command, "--out", str(tmp_path), "--set", override]) == 1
        assert capsys.readouterr().err.startswith(f"error: {prefix}")

    def test_degenerate_radius_fit_is_an_error_line(self, tmp_path, capsys):
        # at L = 1e250 the fit's xi^2 underflow: an error line, no traceback,
        # that names grid.L, since no grid.N helps there; the data are widened
        # and centred with L, since the packaged width is one node's of 2e247
        wide = ["--set", "data.width=1e247", "--set", "data.center=5e249"]
        assert main(["radius", "--out", str(tmp_path), "--quiet", "--set", "grid.L=1e250", *wide]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: radius fit failed at t = 0: the fit's frequencies xi = ")
        assert err.endswith(" leave double range (divide by zero encountered in divide); change grid.L\n")
        # too few modes is what more of them mends
        assert main(["radius", "--out", str(tmp_path), "--quiet", "--set", "grid.N=16"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: radius fit failed at t = 0: only 4 modes above the noise floor ")
        assert err.endswith("; need >= 12; raise grid.N\n")

    @pytest.mark.parametrize(
        "command, override, key",
        [
            # 2e10 records: 149 GiB of record times
            ("conserve", "evolution.t_end=1e9", "evolution.t_end"),
            # 1e20 windows
            ("coupled", "run.k_max=99999999999999999999", "run.k_max"),
            # one window of T0 = 4.3e298: 2.2e302 steps
            ("coupled", "run.c0=1e300", "run.c0"),
        ],
    )
    def test_impossible_plan_is_one_error_line_before_the_first_step(self, tmp_path, capsys, command, override, key):
        start = time.perf_counter()
        assert main([command, "--out", str(tmp_path), "--quiet", "--set", override]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} plans ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, override, key, message",
        [
            # band phases per step xi_K^m dt of 2^794.7 and 2^3.651e+04 rad, past 2^26
            ("damping", "equation.m=221", "equation.m", "equation: band-edge phase per step xi_K^m dt = 2^"),
            ("damping", "equation.m=10001", "equation.m", "equation: band-edge phase per step xi_K^m dt = 2^"),
            # widths below dx / acosh(1e12) = 0.0044, seen at one node; the divide
            # of sech overflowed at 5e-324
            ("damping", "data.width=5e-324", "data.width", "data: sech width 4.94e-324 is below dx/acosh(1e12)"),
            ("conserve", "data.k=1e300", "data.k", "data: soliton width 1e-300 is below dx/acosh(1e12)"),
            # the packaged width 1 at dx = 2e297 and 1.6e305, which ended in a T0
            # error and an unkeyed M_sigma overflow
            ("iterate", "grid.L=1e300", "data.width", "configs/iterate.cfg: line 20, col 1: data: sech width 1 is"),
            ("iterate", "grid.L=8e307", "data.width", "configs/iterate.cfg: line 20, col 1: data: sech width 1 is"),
            # inputs numpy cannot hold: 2**40 nodes asked it for 8 TiB in np.arange,
            # 10**12 samples for 3.64 TiB in the first sweep
            ("conserve", "grid.N=1099511627776", "grid.N", "grid: mode count must be even and in [16, 2**23], got N="),
            ("inequalities", "run.samples=1000000000000", "run.samples", "run.samples must lie in [1, 2**23], got 1"),
            # N amplitude = inf: the transform of the data overflowed into NaN
            ("radius", "data.amplitude=1e308", "data.amplitude", "data: sech amplitude must be positive and N times"),
            ("coupled", "data2.amplitude=1e307", "data2.amplitude", "data2: sech amplitude must be positive and N times"),
            # floor + 2 amplitude = inf: the profile overflowed, and the dt guard read 0
            ("damping", "damping.amplitude=1e308", "damping.amplitude", "damping: damping amplitude must be >= 0 and"),
        ],
    )
    def test_input_the_step_or_grid_cannot_resolve_is_refused_at_parse_time(
        self, tmp_path, capsys, command, override, key, message
    ):
        with pytest.raises(ConfigurationError) as info:
            parse_config_text(packaged_text(command), [override])
        # a key that the text sets gives the error its line, and keys its cause
        keyed = info.value.__cause__ if isinstance(info.value, ConfigParseError) else info.value
        assert keyed.key == key
        assert main([command, "--out", str(tmp_path), "--quiet", "--set", override]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_samples_bound_admits_2_23(self):
        assert parse_config_text(packaged_text("inequalities"), [f"run.samples={2**23}"]).samples == 2**23
        with pytest.raises(ConfigurationError, match=r"must lie in \[1, 2\*\*23\], got 8388609$"):
            parse_config_text(packaged_text("inequalities"), [f"run.samples={2**23 + 1}"])

    def test_damping_amplitude_with_a_finite_sup_still_ends_at_the_dt_guard(self, tmp_path, capsys):
        # sup a = 1 + 2e307 is finite, so the profile is built and the guard reads 3e-309
        assert main(["damping", "--out", str(tmp_path), "--quiet", "--set", "damping.amplitude=1e307"]) == 1
        err = capsys.readouterr().err
        assert "exceeds the advective guard" in err and err.endswith("; lower evolution.dt\n")

    def test_band_phase_bound_admits_m_9_and_refuses_m_11_at_the_packaged_grid(self):
        # xi_K = 4 pi, dt = 2e-4: 1.6e6 rad (2^20.6) and 2.5e8 rad (2^27.9) per step
        assert parse_config_text(packaged_text("damping"), ["equation.m=9"]).m == 9
        pattern = r"phase per step xi_K\^m dt = 2\^27\.88 rad, past 2\^26 rad"
        with pytest.raises(ConfigurationError, match=pattern) as info:
            parse_config_text(packaged_text("damping"), ["equation.m=11"])
        assert info.value.key == "equation.m"

    @pytest.mark.parametrize("command, theta", [("iterate", "2.5e-5"), ("coupled", "1e-4")])
    def test_data_radius_beyond_double_range_is_never_the_minimum(self, tmp_path, command, theta):
        # at a small theta the data candidate (b / (2 C1 M0))^(1/theta) of
        # the window radius leaves double range: inf, so another one wins
        assert main([command, "--out", str(tmp_path), "--quiet", "--set", f"run.theta={theta}"]) == 0
        report = json.loads((tmp_path / _COMMANDS[command] / "report.json").read_text(encoding="utf-8"))
        assert report["fits"]["derived"]["branch"] != "data"

    def test_lifespan_beyond_double_range_is_a_window_error(self, tmp_path, capsys):
        # (1 + a_norm + M)^d leaves double range, so T0 = 0, shorter than a step
        assert main(["iterate", "--out", str(tmp_path), "--quiet", "--set", "run.d=1e300"]) == 1
        assert capsys.readouterr().err == (
            "error: window length T0 = 0 is shorter than one step evolution.dt = 0.0002; "
            "raise run.c0 or shrink the data or the damping\n"
        )

    @pytest.mark.parametrize("config", [False, True], ids=["packaged", "--config"])
    def test_config_files_are_read_by_parse_config(self, tmp_path, monkeypatch, config):
        # the CLI reads no config file itself: the packaged default and a
        # --config file both go to the one reader
        seen = []

        def spy(path, overrides=()):
            seen.append(path)
            return parse_config(path, overrides)

        monkeypatch.setattr("gevreyflow.cli.parse_config", spy)
        path = tmp_path / "mine.cfg"
        path.write_text(packaged_text("inequalities"), encoding="utf-8")
        args = ["inequalities", "--out", str(tmp_path), "--quiet", "--set", "run.samples=2000"]
        assert main([*args, "--config", str(path)] if config else args) == 0
        [read] = seen
        if config:
            assert read == str(path)
        else:
            assert read.read_text(encoding="utf-8") == packaged_text("inequalities")
            assert [read.parent.name, read.name] == ["configs", "inequalities.cfg"]

    def test_scenario_config_mismatch_exits_one(self, tmp_path, capsys):
        config = tmp_path / "wrong.cfg"
        config.write_text('scenario = "conservation"\n', encoding="utf-8")
        code = main(["damping", "--config", str(config), "--out", str(tmp_path)])
        assert code == 1
        assert "runner expects" in capsys.readouterr().err

    def test_env_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GEVREYFLOW_OUT", str(tmp_path / "env_root"))
        assert main(["inequalities", "--quiet", "--set", "run.samples=2000"]) == 0
        assert (tmp_path / "env_root" / "inequalities" / "report.json").exists()

    def test_config_output_root(self, tmp_path, monkeypatch):
        # with no --out and no GEVREYFLOW_OUT, io.out_dir is the root,
        # relative to the working directory
        monkeypatch.delenv("GEVREYFLOW_OUT", raising=False)
        monkeypatch.chdir(tmp_path)
        assert main(["inequalities", "--quiet", "--set", "run.samples=2000", "--set", "io.out_dir=res"]) == 0
        assert (tmp_path / "res" / "inequalities" / "report.json").exists()

    def test_out_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GEVREYFLOW_OUT", str(tmp_path / "env_root"))
        code = main(
            ["inequalities", "--quiet", "--out", str(tmp_path / "flag_root"),
             "--set", "run.samples=2000"]
        )
        assert code == 0
        assert (tmp_path / "flag_root" / "inequalities" / "report.json").exists()
        assert not (tmp_path / "env_root").exists()

    def test_seed_flag_changes_hash(self, tmp_path):
        for seed, sub in ((None, "a"), (None, "b"), (123, "c")):
            argv = ["inequalities", "--quiet", "--out", str(tmp_path / sub),
                    "--set", "run.samples=2000"]
            if seed is not None:
                argv += ["--seed", str(seed)]
            assert main(argv) == 0

        def digest(sub):
            line = (tmp_path / sub / "inequalities" / "runs.jsonl").read_text()
            return json.loads(line)["content_hash"]

        assert digest("a") == digest("b")
        assert digest("a") != digest("c")

    def test_default_config_runs_with_overrides(self, tmp_path, capsys):
        code = main(
            [
                "conserve",
                "--out",
                str(tmp_path),
                "--set",
                "evolution.t_end=0.1",
                "--set",
                "evolution.record_every=100",
            ]
        )
        assert code == 0
        plots = tmp_path / "conservation" / "plots"
        assert (plots / "invariants.svg").exists()
        assert (plots / "drift.svg").exists()
        assert (tmp_path / "conservation" / "series" / "drift.csv").exists()

    def test_all_runs_six_scenarios(self, tmp_path, monkeypatch, capsys):
        seen = []

        def fake_runner(scenario):
            def run(cfg):
                seen.append(scenario)
                return _tiny_report(scenario=scenario, passed=scenario != "radius")

            return run

        monkeypatch.setattr(
            "gevreyflow.cli.RUNNERS",
            {scenario: fake_runner(scenario) for scenario in _COMMANDS.values()},
        )
        code = main(["all", "--out", str(tmp_path)])
        assert code == 2  # radius verdict failed but the sweep continued
        assert seen == [
            "conservation",
            "sigma-scaling",
            "damping",
            "iteration",
            "radius",
            "coupled",
        ]
        assert (tmp_path / "coupled" / "report.json").exists()

    def test_all_rejects_config_flag(self, tmp_path, capsys):
        assert main(["all", "--config", "whatever.cfg"]) == 1
        assert "--config" in capsys.readouterr().err
