"""Config grammar, report persistence, SVG plotting, and the CLI surface.

Grammar and renderer are checked against each other (parse -> render ->
parse must be the identity on configs), persistence against byte-exact
float round-trips and hash stability, and the CLI through main() with
temp directories rather than subprocesses.
"""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gevreyflow.cli import _COMMANDS, _default_config_text, main
from gevreyflow.config import (
    SCHEMA,
    parse_config,
    parse_config_text,
    render_config,
)
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
        cfg = parse_config_text(
            "scenario = sigma-scaling\n[equation]\nmu = -1\n[data]\nkind = sech\n"
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
        "text, fragment",
        [
            ("[grid\nN = 4\n", "line 1, col 1"),
            ("[grid]\nN 512\n", "line 2"),
            ("[grid]\n2N = 4\n", "malformed key"),
            ("[grid]\nM = 3\n", "unknown key 'grid.M'"),
            ("[grid]\nN = 512\nN = 256\n", "duplicate key"),
            ('[data]\nkind = "sech\n', "unterminated string"),
            ('[data]\nkind = "sech\\"\n', "unterminated string"),
            ('[data]\nkind = "se"ch"\n', "unescaped quote"),
            ('[io]\nout_dir = "a\\q"\n', "unknown escape"),
            ("[run]\nsigmas = [0.1, 0.2\n", "unterminated list"),
            ("[evolution]\ndt = inf\n", "non-finite"),
            ("[grid]\nN = 12.5\n", "expects an integer"),
            ("[grid]\nL = sideways\n", "expects a number"),
            ("[equation]\nnonlinear = 1\n", "expects true or false"),
            ("[run]\nsigmas = 0.1\n", "expects a list"),
            ("[run]\nsigmas = [0.1, oops, 0.9]\n", "expects numbers"),
        ],
    )
    def test_diagnostics(self, text, fragment):
        with pytest.raises(ConfigParseError) as err:
            parse_config_text(text)
        assert fragment in str(err.value)

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
        given = {tuple(name.split(".")) for name in MOVED_BASES}
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
            ("[equation]\nfamily = mkdvm\nmu = -1\nm = 5\n", 0.25),
            ("[equation]\nfamily = mkdvm\nmu = -1\nm = 7\n", 43.0 / 60.0),
            ("[equation]\nfamily = mkdvm\nmu = -1\nm = 3\n", 0.45),
        ],
    )
    def test_theta_default_tracks_order(self, text, theta):
        assert parse_config_text(text).theta == pytest.approx(theta, rel=1e-15)

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

    def test_list_override(self):
        cfg = parse_config_text("", ["run.sigmas=[0.1, 0.2, 0.4, 0.8]"])
        assert cfg.sigmas == (0.1, 0.2, 0.4, 0.8)

    @pytest.mark.parametrize(
        "override",
        ["no_equals_here", "nope=3", "a.b.c=3", "grid.N=maybe"],
    )
    def test_bad_overrides_rejected(self, override):
        with pytest.raises(ConfigurationError):
            parse_config_text("", [override])


class TestParseTimeValidation:
    def test_analyticity_condition_cited(self):
        text = "scenario = damping\n[equation]\nfamily = mkdvm\nmu = -1\n[run]\nsigma0 = 15.0\n"
        with pytest.raises(ConfigurationError, match=r"\(A3\)"):
            parse_config_text(text)

    def test_descending_sigmas_rejected(self):
        with pytest.raises(ConfigurationError, match="ascending"):
            parse_config_text("[run]\nsigmas = [0.4, 0.2]\n")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            parse_config_text("scenario = jubilee\n")

    @pytest.mark.parametrize("command", ["damping", "coupled"])
    @pytest.mark.parametrize("N", [1024, 2048])
    def test_damped_configs_validate_on_fine_grids(self, command, N):
        # the profile's closed form certifies (A2) at every N
        cfg = parse_config_text(_default_config_text(command), [f"grid.N={N}"])
        assert cfg.N == N

    @pytest.mark.parametrize(
        "override, pattern",
        [("damping2.form=constant", r"^damping2: .*amplitude = 0, got 0\.25"), ("data2.width=0", r"^data2: .*width")],
        ids=["damping2", "data2"],
    )
    def test_section_errors_name_their_section(self, override, pattern):
        with pytest.raises(ConfigurationError, match=pattern):
            parse_config_text(_default_config_text("coupled"), [override])


class TestRoundTrip:
    def test_render_parse_identity_on_defaults(self):
        cfg = parse_config_text("")
        assert parse_config_text(render_config(cfg)) == cfg

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_packaged_configs_round_trip(self, command):
        cfg = parse_config_text(_default_config_text(command))
        assert cfg.scenario == _COMMANDS[command]
        again = parse_config_text(render_config(cfg))
        assert again == cfg

    def test_constant_damping_variant_round_trips(self):
        from importlib import resources

        text = (
            resources.files("gevreyflow")
            .joinpath("configs", "damping_constant.cfg")
            .read_text(encoding="utf-8")
        )
        cfg = parse_config_text(text)
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
        out_dir=st.text(
            st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp"), include_characters="\t\n"),
            max_size=24,
        ),
        alpha=st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_render_parse_identity_on_strings_and_floats(self, out_dir, alpha):
        # printable text (plus the escaped tab and newline) and any finite
        # float, in a key the parser leaves unchecked (the mkdv family
        # reads no dispersion ratio)
        cfg = dataclasses.replace(parse_config_text(""), out_dir=out_dir, alpha=alpha)
        assert parse_config_text(render_config(cfg)) == cfg

    @pytest.mark.parametrize("out_dir", ["out\\", "a\\\\", 'q\\"', "inf", "nan", "x # y\\"])
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
            PlotStyle(title="decay <test>", x_label="t", y_label="mass", annotation="note"),
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

    def test_all_nonpositive_under_log_is_an_error(self):
        with pytest.raises(ConfigurationError, match="no finite points"):
            plot_series({"t": [1.0], "y": [-1.0]}, PlotStyle(y_log=True))

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

    def test_damping_norm_error_names_sigma0(self, tmp_path, capsys):
        # sigma0 = 9 is inside (A3) (R = 2 pi/64), but sigma0 R = 0.88 is too
        # close to 1 for the damping norm's tail bound
        assert main(["iterate", "--out", str(tmp_path), "--set", "run.sigma0=9"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: damping-norm tail bound")
        assert "sigma * R = 0.883573" in err and err.endswith("; lower run.sigma0\n")
        assert "K" not in err

    def test_scenario_config_mismatch_exits_one(self, tmp_path, capsys):
        config = tmp_path / "wrong.cfg"
        config.write_text("scenario = conservation\n", encoding="utf-8")
        code = main(["damping", "--config", str(config), "--out", str(tmp_path)])
        assert code == 1
        assert "runner expects" in capsys.readouterr().err

    def test_env_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GEVREYFLOW_OUT", str(tmp_path / "env_root"))
        assert main(["inequalities", "--quiet", "--set", "run.samples=2000"]) == 0
        assert (tmp_path / "env_root" / "inequalities" / "report.json").exists()

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
