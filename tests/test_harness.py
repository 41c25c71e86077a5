"""Scenario runners: verdict logic, frozen reference values, determinism.

Long-horizon defaults live in the acceptance suite; here every scenario
runs on a shortened horizon whose outputs were frozen from calibration
runs of this build.  The dt-doubling check asserts the measured fifth-order
drift growth (the leading fourth-order integrator error on a traveling
wave is a phase shift, which translation-invariant functionals do not
see), not the naive fourth-order guess.
"""

import math
import re
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from conftest import packaged_text

from gevreyflow import cli, content_hash, dynamics, harness, report_payload
from gevreyflow.analytics import FunctionalBreakdown, functional_A, functional_M
from gevreyflow.config import FAMILIES, ScenarioConfig, Tolerances, parse_config, parse_config_text
from gevreyflow.dynamics import Equation, RaisedCosineDamping
from gevreyflow.errors import BlowUpError, ConfigurationError, DtGuardError, FitError, UnderresolvedError
from gevreyflow.harness import RUNNERS, SCENARIO_IDS, SCENARIOS
from gevreyflow.spectral import Grid, SpectralField, synthesize

# each short config is a packaged config with these overrides
CONSERVE_SHORT = ("conserve", ["evolution.t_end=0.5"])
SIGMA_SHORT = ("sigma_scaling", ["evolution.t_end=1.5", "evolution.record_every=150"])
DAMPING_SHORT = ("damping", ["evolution.t_end=0.6", "evolution.record_every=100"])
ITERATION_SHORT = ("iterate", ["run.k_max=3"])
COUPLED_DEGENERATE = ("coupled", ["data2.kind=zero", "run.sigma0=0.5", "run.k_max=2"])
RADIUS_SHORT = ("radius", ["evolution.t_end=1.0", "evolution.record_every=250"])
INEQUALITIES_SMALL = ("inequalities", ["run.samples=20000"])

# the two kinds of step error, each tripped by a first step from a state
# scaled up by scale, and the key of the driver's re-raised error; each id
# names the type the kind also derives from
STEP_ERRORS = [
    pytest.param(100.0, DtGuardError, "advective guard", "evolution.dt", id="100.0-ConfigurationError-advective guard"),
    pytest.param(1e7, BlowUpError, "blow-up", None, id="10000000.0-DivergenceError-blow-up"),
]


def short_config(short, overrides=()):
    name, base = short
    return parse_config(resources.files("gevreyflow").joinpath("configs", f"{name}.cfg"), [*base, *overrides])


def run_short(short, overrides=()):
    cfg = short_config(short, overrides)
    return RUNNERS[cfg.scenario](cfg)


@pytest.fixture
def no_integrate(monkeypatch):
    """harness.integrate replaced by a stub that fails when called."""

    def tripped(spec, init, observe=None):
        raise AssertionError("integrated")

    monkeypatch.setattr(harness, "integrate", tripped)


class TestScenarioConfig:
    def test_defaults_validate(self):
        cfg = ScenarioConfig()
        cfg.build()
        assert cfg.scenario in SCENARIO_IDS

    def test_field_defaults_are_the_file_defaults(self):
        assert ScenarioConfig() == parse_config_text("")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            ScenarioConfig(scenario="frobnicate")

    def test_sigmas_must_ascend(self):
        with pytest.raises(ConfigurationError, match="ascending"):
            ScenarioConfig(sigmas=(0.2, 0.1))

    def test_sigma0_positive(self):
        with pytest.raises(ConfigurationError, match="sigma0"):
            ScenarioConfig(sigma0=0.0)

    def test_c1_mode_checked(self):
        with pytest.raises(ConfigurationError, match=r"^run\.c1_mode 'guess' is not empirical or fixed"):
            ScenarioConfig(c1_mode="guess")
        with pytest.raises(ConfigurationError, match=r"^run\.c1_safety must be >= 1"):
            ScenarioConfig(c1_safety=0.5)

    @pytest.mark.parametrize(
        "tolerances, key",
        [({"rate": -1e-5}, "rate"), ({"slope_lo": 2.2, "slope_hi": 1.8}, "slope_lo"), ({"r2_min": 1.5}, "r2_min")],
    )
    def test_tolerances_checked(self, tolerances, key):
        with pytest.raises(ConfigurationError, match=rf"^tolerances\.{key} "):
            Tolerances(**tolerances)

    def test_runner_rejects_mismatched_scenario(self):
        cfg = short_config(CONSERVE_SHORT)
        with pytest.raises(ConfigurationError, match="runner expects"):
            RUNNERS["sigma-scaling"](cfg)

    @pytest.mark.parametrize("runner, packaged", [("coupled", "iterate.cfg"), ("iteration", "coupled.cfg")])
    def test_window_runners_reject_each_others_config(self, runner, packaged):
        # both entries reach one window runner, bound to its own scenario
        cfg = parse_config(resources.files("gevreyflow").joinpath("configs", packaged))
        with pytest.raises(ConfigurationError, match="runner expects"):
            RUNNERS[runner](cfg)

    def test_echo_matches_as_sections(self):
        cfg = short_config(CONSERVE_SHORT)
        report = RUNNERS["conservation"](cfg)
        assert report.config == cfg.as_sections()
        assert report.wall_clock > 0.0


class TestScenarioTable:
    def test_every_scenario_has_a_runner_a_command_and_a_config(self):
        assert SCENARIO_IDS == tuple(SCENARIOS) == tuple(RUNNERS)
        # one CLI command per scenario, listed in table order
        assert tuple(cli._COMMANDS.values()) == SCENARIO_IDS
        for command, scenario in cli._COMMANDS.items():
            assert parse_config_text(packaged_text(command)).scenario == scenario
        packaged = resources.files("gevreyflow").joinpath("configs")
        on_disk = {parse_config(p).scenario for p in packaged.iterdir() if p.name.endswith(".cfg")}
        assert on_disk == set(SCENARIO_IDS)

    def test_all_runs_the_scenarios_with_an_equation_family(self):
        evolution = [s for s, family in FAMILIES.items() if family is not None]
        assert [cli._COMMANDS[c] for c in cli._ALL_ORDER] == evolution
        assert len(evolution) == 6 and "inequalities" not in evolution

    @pytest.mark.parametrize("scenario", [s for s, family in FAMILIES.items() if family is not None])
    def test_runner_rejects_another_family(self, scenario):
        # no config of another family can be made, so none reaches a runner
        family = FAMILIES[scenario]
        other = "coupled" if family != "coupled" else "mkdv"
        pattern = rf"^equation\.family must be '{family}' for scenario '{scenario}', got '{other}'"
        with pytest.raises(ConfigurationError, match=pattern):
            ScenarioConfig(scenario=scenario, family=other)


class TestVerdictHelpers:
    def test_numpy_inputs_give_plain_types(self):
        # array-valued norms hand numpy scalars to the helpers; the report
        # hash accepts only plain bool and float
        for v in (harness._margin_verdict(np.float64(0.25), 0.5), harness._series_verdict(np.array([0.3, 0.25]), 0.5)):
            assert type(v.passed) is bool and type(v.margin) is float
            assert v == harness.Verdict(passed=True, margin=0.25, tolerance=0.5)
        assert content_hash(report_payload(run_short(CONSERVE_SHORT)))

    def test_worst_margin_decides(self):
        assert harness._margin_verdict(0.0, 1e-3).passed
        assert not harness._margin_verdict(-1e-300, 1e-3).passed
        v = harness._series_verdict([0.5, -0.125, 0.25], 1e-3)
        assert not v.passed and v.margin == -0.125

    def test_nan_margin_fails(self):
        assert not harness._series_verdict([0.5, math.nan, 0.25], 1e-3).passed

    def test_margin_rules(self):
        # one reference or bound per value, or one for all; a zero one gives
        # exactly 0 against a zero value, never nan
        assert harness._relative_errors([0.0, 3.0, -1.0], [0.0, 2.0, -2.0]).tolist() == [0.0, 0.5, 0.5]
        assert harness._relative_errors([1.0, 1.5], 2.0).tolist() == [0.5, 0.25]
        assert harness._headroom([1.0, 2.5, 0.0], [2.0, 2.0, 0.0], 0.25).tolist() == [0.75, 0.0, 0.0]
        assert harness._headroom([1.0, 3.0], 2.0, 0.25).tolist() == [0.75, -0.25]


@pytest.mark.parametrize(
    "short, every, blocks",
    [(CONSERVE_SHORT, 25, [64, 37]), (SIGMA_SHORT, 50, [64, 64, 23])],
    ids=["conservation", "sigma-scaling"],
)
def test_one_functional_call_per_trajectory(monkeypatch, short, every, blocks):
    # the record observer calls functional_A once per block of records: the
    # calls cover every record of the trajectory once, in order, and each
    # takes at most one block
    calls = []

    def counted(u, sigma, mu):
        calls.append(u.band.copy())
        return functional_A(u, sigma, mu)

    monkeypatch.setattr(harness, "functional_A", counted)
    cfg = short_config(short, [f"evolution.record_every={every}"])
    report = RUNNERS[cfg.scenario](cfg)
    assert [len(call) for call in calls] == blocks and max(blocks) == dynamics.RECORD_BLOCK
    assert sum(blocks) == len(next(iter(report.series.values()))["t"])
    assert np.concatenate(calls).tobytes() == dynamics.integrate(*cfg.build()).states.band.tobytes()


def test_radius_fit_failed_in_a_later_block_names_its_time(monkeypatch):
    # the fit of record 70, in the second block, fails; the first call fits
    # the initial state, the next ones records 0, 1, ...
    real, calls = harness.radius_estimate, []

    def failing(state):
        calls.append(None)
        if len(calls) == 72:
            raise UnderresolvedError("only 3 modes above the noise floor (1e-08); need >= 12")
        return real(state)

    monkeypatch.setattr(harness, "radius_estimate", failing)
    with pytest.raises(UnderresolvedError, match=r"^radius fit failed at t = 0\.7: only 3 modes .*; raise grid\.N$"):
        run_short(RADIUS_SHORT, ["evolution.record_every=50"])
    assert len(calls) == 72


SHORT = {
    "conservation": CONSERVE_SHORT,
    "sigma-scaling": SIGMA_SHORT,
    "damping": DAMPING_SHORT,
    "iteration": ITERATION_SHORT,
    "radius": RADIUS_SHORT,
    "coupled": COUPLED_DEGENERATE,
    "inequalities": INEQUALITIES_SMALL,
}


@pytest.mark.parametrize("scenario", SCENARIO_IDS)
def test_one_build_per_parse_and_per_run(monkeypatch, scenario):
    # the parser builds once to validate, and the runner once for its
    # objects, however many integrate calls it then makes (the inequality
    # suite makes none)
    real, calls = ScenarioConfig.build, []

    def counted(cfg):
        calls.append(cfg)
        return real(cfg)

    monkeypatch.setattr(ScenarioConfig, "build", counted)
    cfg = short_config(SHORT[scenario])
    assert calls == [cfg]
    calls.clear()
    RUNNERS[scenario](cfg)
    assert calls == [cfg]


@pytest.mark.parametrize("scale, error, message, key", STEP_ERRORS)
@pytest.mark.parametrize("short", [CONSERVE_SHORT, RADIUS_SHORT], ids=["conservation", "radius"])
def test_error_in_a_trajectory_names_it(monkeypatch, short, scale, error, message, key):
    # the one request of a single-trajectory body, started from a scaled-up
    # state, fails at its first step, at t = 0
    real = harness.integrate

    def tripped(spec, init, observe=None):
        return real(spec, synthesize(init.spectrum * scale, init.grid), observe)

    monkeypatch.setattr(harness, "integrate", tripped)
    with pytest.raises(error, match=rf"^trajectory, global t = 0: .*{message}") as info:
        run_short(short)
    assert type(info.value) is error and type(info.value.__cause__) is error
    assert info.value.t == 0.0 and info.value.key == key


@pytest.mark.parametrize(
    "bad, message",
    [
        (lambda spec, init: (spec, (init, init)), "^1-component flow needs one SpectralField$"),
        (
            lambda spec, init: (
                replace(spec, equation=Equation(spec.equation.mu, alphas=(1.0, 0.5))),
                (init, SpectralField(Grid(2.0 * init.grid.L, init.grid.N), init.spectrum)),
            ),
            "^coupled components must share one grid$",
        ),
        (
            lambda spec, init: (
                replace(spec, equation=replace(spec.equation, dampings=(RaisedCosineDamping(1.0, 0.0, 2.0),))),
                init,
            ),
            "^damping profile built for domain length 2.0, grid has ",
        ),
    ],
    ids=["field count", "two grids", "damping length"],
)
def test_error_of_integrate_that_is_no_step_passes_through(monkeypatch, bad, message):
    # integrate's errors on its inputs carry no time; the driver re-raises
    # only step errors, so each of these reaches the caller as itself
    real, raised = harness.integrate, []

    def stub(spec, init, observe=None):
        try:
            return real(*bad(spec, init), observe)
        except ConfigurationError as err:
            raised.append(err)
            raise

    monkeypatch.setattr(harness, "integrate", stub)
    with pytest.raises(ConfigurationError, match=message) as info:
        run_short(CONSERVE_SHORT)
    assert len(raised) == 1 and info.value is raised[0]


def test_state_that_turns_non_finite_before_a_record_names_its_time(monkeypatch):
    # the 20th rhs evaluation, the last of step 5, writes inf, so the state
    # turns non-finite in the step before the record at t = 5 h = 0.001,
    # which no step's check reads before the record; the record raised a
    # ConfigurationError without err.t, and the driver an AttributeError
    real, calls = dynamics.nonlinear_term, []

    def poisoned(eq, grid):
        evaluate, samples = real(eq, grid)

        def evaluate_poisoned(V, out):
            evaluate(V, out)
            calls.append(len(calls))
            if len(calls) == 20:
                out[...] = np.inf

        return evaluate_poisoned, samples

    monkeypatch.setattr(dynamics, "nonlinear_term", poisoned)
    short = ("conserve", ["evolution.t_end=0.002", "evolution.record_every=5"])
    # inf meets zero factors in the step's products, which numpy warns of
    with np.errstate(invalid="ignore"):
        with pytest.raises(BlowUpError, match=r"^trajectory, global t = 0.001: blow-up abort") as info:
            run_short(short)
    assert len(calls) == 20 and type(info.value.__cause__) is BlowUpError
    assert info.value.t == 0.001 and info.value.key is None


def test_masses_once_per_trajectory(monkeypatch):
    calls = []

    def counted(v, sigma):
        calls.append((len(v), np.shape(sigma)))
        return functional_M(v, sigma)

    monkeypatch.setattr(harness, "functional_M", counted)
    report = run_short(DAMPING_SHORT)
    # the trajectory, then the three states of every rate probe at once
    n_probes = len(report.series["rate_residual"]["t"])
    assert calls == [(len(report.series["mass_decay"]["t"]), ()), (3 * n_probes, ())]
    calls.clear()
    run_short(ITERATION_SHORT)
    # [0, sigma0] (T0), sigma0 (calibration), then [sigma/2, sigma] once
    # per window, over the 1 + 8 records of the first and the 8 new
    # records of each later one
    assert calls == [(1, (2,)), (1, ()), (9, (2,)), (8, (2,)), (8, (2,))]


class TestConservation:
    def test_soliton_drift_tiny(self):
        report = run_short(CONSERVE_SHORT)
        assert report.passed
        assert report.fits["drift"]["max_relative"] <= 1e-9
        v = report.verdicts["conservation"]
        assert v.tolerance == 1e-6 and v.margin > 0
        drift = report.series["drift"]
        n = len(drift["t"])
        assert n == 11  # t = 0, 0.05, ..., 0.5
        for name in ("drift_inv0", "drift_inv1", "drift_inv2"):
            assert len(drift[name]) == n
            assert drift[name][0] == 0.0

    def test_zero_data_drifts_exactly_zero(self):
        report = run_short(
            CONSERVE_SHORT,
            ["data.kind=zero", "evolution.t_end=0.05", "evolution.record_every=50"],
        )
        for name in ("drift_inv0", "drift_inv1", "drift_inv2"):
            assert all(d == 0.0 for d in report.series["drift"][name])

    def test_dt_doubling_grows_drift_fifth_order(self):
        # on a traveling wave the O(dt^4) error is a phase shift, so the
        # invariants only feel the O(dt^5) remainder: ratio near 2^5
        coarse = run_short(CONSERVE_SHORT, ["evolution.dt=0.002"])
        fine = run_short(CONSERVE_SHORT, ["evolution.dt=0.001"])
        d2 = max(coarse.series["drift"]["drift_inv2"])
        d1 = max(fine.series["drift"]["drift_inv2"])
        assert 24.0 < d2 / d1 < 40.0


class TestSigmaScaling:
    def test_slope_near_two(self):
        report = run_short(SIGMA_SHORT)
        assert report.passed
        fit = report.fits["scaling"]
        assert fit["slope"] == pytest.approx(2.1904710722877647, rel=1e-6)
        assert fit["r2"] > 0.99
        assert fit["n_points"] == 4 and fit["n_excluded"] == 0
        const = report.fits["empirical_constant"]
        assert 0.001 < const["min"] <= const["max"] < 0.01

    def test_sigma_zero_is_excluded_not_fitted(self):
        report = run_short(
            SIGMA_SHORT,
            [
                "run.sigmas=[0.0, 0.05, 0.1, 0.2, 0.4]",
                "evolution.t_end=1.0",
                "evolution.record_every=200",
            ],
        )
        fit = report.fits["scaling"]
        assert fit["n_excluded"] == 1 and fit["n_points"] == 4
        flags = report.series["drift_vs_sigma"]["included"]
        assert flags[0] == 0.0 and all(f == 1.0 for f in flags[1:])

    def test_zero_data_has_no_positive_drift(self):
        # D(sigma) = 0 at every sigma: rejected while parsing, not by the
        # fit after the run
        pattern = r"^data\.kind is zero: the drift D\(sigma\) = 0 at every sigma"
        with pytest.raises(ConfigurationError, match=pattern):
            short_config(SIGMA_SHORT, ["data.kind=zero"])

    def test_focusing_sign_rejected(self):
        with pytest.raises(ConfigurationError, match="defocusing"):
            run_short(SIGMA_SHORT, ["equation.mu=1"])

    def test_narrow_span_rejected(self):
        with pytest.raises(ConfigurationError, match="factor 8"):
            run_short(SIGMA_SHORT, ["run.sigmas=[0.1, 0.2, 0.4]"])

    def test_too_few_positive_sigmas(self):
        with pytest.raises(ConfigurationError, match=r"^run\.sigmas needs >= 3 positive sigma"):
            run_short(SIGMA_SHORT, ["run.sigmas=[0.05, 0.4]"])
        # an empty list parses, and sigma-scaling rejects it by the same rule
        with pytest.raises(ConfigurationError, match=r"^run\.sigmas needs >= 3 positive sigma values, has 0$"):
            short_config(SIGMA_SHORT, ["run.sigmas=[]"])

    @pytest.mark.parametrize("sigmas, top", [("[0.5, 1, 2, 4, 8]", 8.0), ("[0.25, 1, 2]", 2.0)])
    def test_sigma_beyond_the_data_radius_rejected(self, sigmas, top):
        # sech data of width 1 has radius pi/2; beyond it A_sigma(0)
        # overflowed and the fit read the overflow
        pattern = rf"^run\.sigmas must stay below the data's radius 1\.5708, got {top}$"
        with pytest.raises(ConfigurationError, match=pattern):
            short_config(SIGMA_SHORT, [f"run.sigmas={sigmas}"])

    def test_fine_grid_sigma_below_the_radius_is_accepted(self):
        # below the data's radius pi/2, sigma = 1.5 on N = 8192 weighs the
        # top mode by cosh(1.5 pi 8192 / 64) = cosh(603) = 1.6e261, which
        # fits a double: the config accepts it and the weighted energy of
        # the initial data is finite.  Nothing is integrated.
        cfg = short_config(SIGMA_SHORT, ["grid.N=8192", "run.sigmas=[0.1, 0.5, 1.5]"])
        _, init = cfg.build()
        grid = init.grid
        assert cfg.sigmas[-1] * grid.xi[-1] == pytest.approx(603.19, abs=0.01)
        assert np.isfinite(functional_A(init, np.array(cfg.sigmas), cfg.mu).total).all()

    def test_no_positive_drift_is_a_fit_error(self, monkeypatch, tmp_path, capsys):
        # constant totals: D(sigma) = 0 at every sigma, so no point enters
        # the scaling fit
        def flat(u, sigma, mu):
            return FunctionalBreakdown(total=np.ones((len(u), len(sigma))), terms={})

        monkeypatch.setattr(harness, "functional_A", flat)
        short = ["evolution.t_end=0.01", "evolution.record_every=10", "run.sigmas=[0, 0.05, 0.1, 0.2, 0.4]"]
        # the message names the key and gives each excluded sigma its reason
        message = (
            "run.sigmas: need >= 3 positive-drift points for the fit, have 0; excluded sigma "
            "0 (sigma = 0), 0.05 (D(sigma) = 0 <= 0), 0.1 (D(sigma) = 0 <= 0), 0.2 (D(sigma) = 0 <= 0), 0.4 (D(sigma) = 0 <= 0)"
        )
        with pytest.raises(FitError, match=f"^{re.escape(message)}$"):
            run_short(SIGMA_SHORT, short)
        overrides = [arg for key in short for arg in ("--set", key)]
        assert cli.main(["sigma-scaling", "--out", str(tmp_path), "--quiet", *overrides]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("offset, passed", [(-1e-9, False), (1e-9, True)])
    def test_slope_band_edge(self, offset, passed):
        # slope_hi just below the measured slope fails with a negative
        # margin; just above it passes
        slope = run_short(SIGMA_SHORT).fits["scaling"]["slope"]
        v = run_short(SIGMA_SHORT, [f"tolerances.slope_hi={slope + offset!r}"]).verdicts["slope_in_band"]
        assert v.passed is passed and (v.margin < 0) is not passed
        assert v.tolerance == pytest.approx(0.5 * (slope + offset - 1.8))


class TestDampingDecay:
    def test_variable_damping_envelope_and_rate(self):
        report = run_short(DAMPING_SHORT)
        assert report.passed
        assert set(report.verdicts) == {"decay_envelope", "rate_identity"}
        mass = report.series["mass_decay"]
        m0 = mass["mass"][0]
        for t, env in zip(mass["t"], mass["envelope"]):
            assert env == pytest.approx(math.exp(-2.0 * t) * m0, rel=1e-12)
        assert max(abs(r) for r in report.series["rate_residual"]["residual"]) < 1e-6

    @pytest.mark.parametrize(
        "overrides",
        [
            ["damping.form=constant", "damping.amplitude=0.0"],
            ["damping.form=raised_cosine", "damping.amplitude=0.0"],
        ],
        ids=["constant", "raised_cosine"],
    )
    def test_constant_damping_is_exact_decay(self, overrides):
        # the equality verdict follows the built profile's amplitude, not
        # the form it was written as
        report = run_short(DAMPING_SHORT, overrides)
        assert report.passed
        assert report.verdicts["gronwall_equality"].passed
        mass = report.series["mass_decay"]
        worst = max(
            abs(m - e) / e for m, e in zip(mass["mass"], mass["envelope"])
        )
        assert worst < 1e-12

    def test_wrong_family_rejected(self):
        with pytest.raises(ConfigurationError, match="family"):
            run_short(DAMPING_SHORT, ["equation.family=mkdv"])

    @pytest.mark.parametrize("scale, error, message, key", STEP_ERRORS)
    def test_error_in_a_rate_probe_names_it(self, monkeypatch, scale, error, message, key):
        # the third integrate call is the second rate probe; restarted from
        # a scaled-up record, it fails at its first step, at that record's t
        report = run_short(DAMPING_SHORT)
        t_probe = report.series["rate_residual"]["t"][1]
        i = report.series["mass_decay"]["t"].index(t_probe)
        assert i > 0 and t_probe > 0.0
        real, calls = harness.integrate, []

        def tripped(spec, init, observe=None):
            calls.append(spec)
            if len(calls) == 3:
                init = synthesize(init.spectrum * scale, init.grid)
            return real(spec, init, observe)

        monkeypatch.setattr(harness, "integrate", tripped)
        with pytest.raises(error, match=rf"^rate probe at record {i}, global t = {t_probe:.6g}: .*{message}") as info:
            run_short(DAMPING_SHORT)
        assert type(info.value) is error and type(info.value.__cause__) is error
        assert info.value.t == t_probe and info.value.key == key


class TestGlobalIteration:
    def test_short_run_frozen_values(self):
        report = run_short(ITERATION_SHORT)
        assert report.passed
        derived = report.fits["derived"]
        assert derived["T0"] == pytest.approx(0.07676784676708011, rel=1e-9)
        assert derived["sigma"] == 0.5 and derived["branch"] == "cap"
        assert derived["C1"] == pytest.approx(1.9786085022806136e-4, rel=1e-9)
        calib = report.fits["calibration"]
        assert calib["chat"] == pytest.approx(9.893042511403068e-5, rel=1e-9)
        assert calib["floored"] == 0.0
        assert set(report.verdicts) == {
            "window_bound",
            "interpolation_decay",
            "residual_bound",
        }

    def test_series_shapes(self):
        report = run_short(ITERATION_SHORT)
        windows = report.series["mass_windows"]
        assert windows["k"] == [0.0, 1.0, 2.0, 3.0]
        values = windows["value"]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert len(report.series["window_residuals"]["k"]) == 3
        assert len(report.series["decay"]["t"]) == 1 + 3 * 8

    def test_k_zero_reports_derived_quantities_only(self):
        report = run_short(ITERATION_SHORT, ["run.k_max=0"])
        assert report.passed and not report.verdicts and not report.series
        assert set(report.fits) == {"derived", "calibration"}

    def test_fine_grid_matches_default_grid(self):
        # at N = 4096, cosh(sigma0 xi) lifted round-off in the datum's tail
        # into M_sigma0 (T0 = 8.7e-22) until the norms gained a noise floor
        coarse, fine = (run_short(ITERATION_SHORT, ["run.k_max=0", f"grid.N={N}"]) for N in (512, 4096))
        for key in ("T0", "sigma", "C1"):
            assert fine.fits["derived"][key] == pytest.approx(coarse.fits["derived"][key], rel=1e-6), key

    def test_window_shorter_than_one_step_rejected(self):
        pattern = r"T0 = 1\.9\d*e-05 is shorter than one step evolution\.dt = 0\.0002; raise run\.c0"
        with pytest.raises(ConfigurationError, match=pattern):
            run_short(ITERATION_SHORT, ["run.c0=0.00025"])

    @pytest.mark.parametrize("scale, error, message, key", STEP_ERRORS)
    def test_error_in_a_later_window_names_it(self, monkeypatch, scale, error, message, key):
        # the calibration window is window 0 and the second integrate call
        # window 1; started from a scaled-up state, it fails at its first
        # step, at global time T0
        T0 = run_short(ITERATION_SHORT, ["run.k_max=0"]).fits["derived"]["T0"]
        real, calls = harness.integrate, []

        def tripped(spec, init, observe=None):
            calls.append(spec)
            if len(calls) == 2:
                init = synthesize(init.spectrum * scale, init.grid)
            return real(spec, init, observe)

        monkeypatch.setattr(harness, "integrate", tripped)
        with pytest.raises(error, match=rf"^window 1, global t = {T0:.6g}: .*{message}") as info:
            run_short(ITERATION_SHORT)
        assert type(info.value) is error and type(info.value.__cause__) is error
        assert info.value.t == T0 and info.value.key == key

    @pytest.mark.parametrize("short", [ITERATION_SHORT, COUPLED_DEGENERATE], ids=["iteration", "coupled"])
    @pytest.mark.parametrize("theta", ["1.5", "0", "-0.25"])
    def test_theta_outside_unit_interval_rejected_before_integrating(self, no_integrate, short, theta):
        with pytest.raises(ConfigurationError, match=rf"^run\.theta must lie in \(0, 1\], got {theta}"):
            run_short(short, [f"run.theta={theta}"])

    @pytest.mark.parametrize(
        "short, overrides, sections",
        [(ITERATION_SHORT, ["data.kind=zero"], ""), (COUPLED_DEGENERATE, ["data.kind=zero"], ", as is data2.kind")],
        ids=["iteration", "coupled"],
    )
    def test_zero_data_rejected_before_integrating(self, no_integrate, short, overrides, sections):
        with pytest.raises(ConfigurationError, match=rf"^data\.kind is zero{sections}: M_sigma0 = 0, and the window"):
            run_short(short, overrides)

    @pytest.mark.parametrize(
        "short, overrides, radius",
        [
            (ITERATION_SHORT, ["run.sigma0=2"], "1.5708"),
            (ITERATION_SHORT, [f"run.sigma0={math.pi / 2!r}"], "1.5708"),
            (COUPLED_DEGENERATE, ["data2.kind=sech", "data2.width=0.5", "run.sigma0=1"], "0.785398"),
        ],
        ids=["iteration", "iteration-at-radius", "coupled-data2"],
    )
    def test_sigma0_beyond_the_data_radius_rejected(self, no_integrate, short, overrides, radius):
        # u0 must lie in H^{sigma0,s}: at sigma0 = 2 on sech data of radius
        # pi/2 the run failed late, with a window length T0 = 1.2e-10
        with pytest.raises(ConfigurationError, match=rf"^run\.sigma0 must stay below the data's radius {radius}, got"):
            run_short(short, overrides)

    def test_zero_component_sets_no_radius_bound(self):
        # the zero data2 is entire, so data's radius pi/2 alone bounds sigma0
        assert short_config(COUPLED_DEGENERATE, ["run.sigma0=1.5"]).sigma0 == 1.5

    @pytest.mark.parametrize("policy, windows", [(["run.c1_mode=fixed", "run.c1_value=0.001"], 0), ([], 1)])
    def test_k_zero_integrates_only_the_calibration_window(self, monkeypatch, policy, windows):
        # the fixed C1 policy needs no window; the empirical one calibrates
        # on window 0
        real, calls = harness.integrate, []

        def counted(spec, init, observe=None):
            calls.append(spec)
            if len(calls) > windows:
                raise AssertionError("integrated")
            return real(spec, init, observe)

        monkeypatch.setattr(harness, "integrate", counted)
        report = run_short(ITERATION_SHORT, ["run.k_max=0", *policy])
        assert len(calls) == windows and not report.verdicts

    def test_fixed_c1_skips_calibration(self):
        report = run_short(
            ITERATION_SHORT,
            ["run.k_max=2", "run.c1_mode=fixed", "run.c1_value=0.001"],
        )
        assert report.passed
        assert report.fits["derived"]["C1"] == 0.001
        assert "chat" not in report.fits["calibration"]


class TestCoupled:
    def test_degenerate_second_component_matches_linear_single(self):
        coupled = run_short(COUPLED_DEGENERATE)
        single = run_short(
            ITERATION_SHORT,
            [
                "equation.m=3",
                "equation.nonlinear=false",
                "run.theta=0.45",
                "run.k_max=2",
            ],
        )
        assert coupled.passed and single.passed
        for a, b in zip(
            coupled.series["mass_windows"]["value"],
            single.series["mass_windows"]["value"],
        ):
            assert a == b
        for a, b in zip(coupled.series["decay"]["norm"], single.series["decay"]["norm"]):
            assert a == b
        assert coupled.fits["derived"]["T0"] == single.fits["derived"]["T0"]
        assert coupled.fits["derived"]["sigma"] == single.fits["derived"]["sigma"]

    def test_symmetric_components_pass(self):
        report = run_short(
            COUPLED_DEGENERATE,
            ["data2.kind=sech", "run.sigma0=0.6", "run.k_max=3"],
        )
        assert report.passed
        assert set(report.verdicts) == {
            "window_bound",
            "interpolation_decay",
            "residual_bound",
        }

    def test_lifespan_shrinks_with_stronger_second_damping(self):
        base = run_short(COUPLED_DEGENERATE, ["run.k_max=0"])
        strong = run_short(
            COUPLED_DEGENERATE,
            ["run.k_max=0", "damping2.amplitude=2.0"],
        )
        assert strong.fits["derived"]["T0"] < base.fits["derived"]["T0"]


class TestRadiusTracking:
    def test_sech_envelope_and_calibration(self):
        report = run_short(RADIUS_SHORT)
        assert report.passed
        assert report.fits["calibration"]["sigma0_known"] == pytest.approx(math.pi / 2)
        assert report.fits["calibration"]["c"] == pytest.approx(0.3427878782538645, rel=1e-9)
        assert report.fits["flags"] == {"clamped": 0.0, "superexponential": 0.0}
        radius = report.series["radius"]
        assert radius["envelope"][0] == pytest.approx(math.pi / 2)
        assert len(radius["t"]) == len(radius["sigma_hat"]) == 21

    def test_soliton_estimate_matches_known_radius(self):
        report = run_short(
            RADIUS_SHORT,
            ["equation.mu=1", "data.kind=soliton"],
        )
        assert report.passed
        v = report.verdicts["soliton_radius_match"]
        assert v.passed and v.tolerance == 0.03

    def test_zero_data_has_no_reference_radius(self):
        with pytest.raises(ConfigurationError, match="no known radius"):
            run_short(RADIUS_SHORT, ["data.kind=zero"])

    @pytest.mark.parametrize(
        "record_every, error, message",
        [(1000, ConfigurationError, "at least 3 recorded snapshots"), (500, AssertionError, "integrated")],
    )
    def test_record_count_checked_before_integrating(self, no_integrate, record_every, error, message):
        # t_end = 0.2 at dt = 0.0002: 2 snapshots are rejected without a
        # step, and 3 go on to integrate
        with pytest.raises(error, match=message):
            run_short(RADIUS_SHORT, ["evolution.t_end=0.2", f"evolution.record_every={record_every}"])

    def test_underresolved_grid_propagates_advice(self):
        with pytest.raises(UnderresolvedError, match=r"raise grid\.N"):
            run_short(RADIUS_SHORT, ["grid.N=32", "evolution.t_end=0.01", "evolution.record_every=10"])

    def test_underresolved_grid_fails_before_integrating(self, no_integrate):
        # the t = 0 state is fitted first; the advice names the config key
        # that sets the grid, and no setting of the estimator
        with pytest.raises(UnderresolvedError, match=r"at t = 0: .*; raise grid\.N$") as info:
            run_short(RADIUS_SHORT, ["grid.N=32"])
        assert "floor_rel" not in str(info.value)

    def test_coarse_fit_at_t0_fails_before_integrating(self, no_integrate):
        # at N = 128 the t = 0 fit of the sech data reads 1.442 against its
        # known radius pi/2: 8.2% off, beyond radius_match = 0.03
        pattern = r"radius fit at t = 0 reads 1\.44243, 8\.2% off the known radius 1\.5708 .*; raise grid\.N$"
        with pytest.raises(UnderresolvedError, match=pattern):
            run_short(RADIUS_SHORT, ["grid.N=128"])


class TestInequalitiesScenario:
    def test_all_families_pass(self):
        report = run_short(INEQUALITIES_SMALL)
        assert report.passed
        assert set(report.verdicts) == {
            "sinh",
            "cosh_minus_one",
            "equivalence",
            "triple_cosh_scan",
        }
        assert report.series == {}
        scan = report.fits["triple_cosh"]
        assert scan["max_ratio"] == pytest.approx(2.9966711977754037, rel=1e-12)
        assert scan["points_scanned"] == 2_625_000
        assert report.verdicts["triple_cosh_scan"].margin == pytest.approx(
            (8.0 - scan["max_ratio"]) / 8.0
        )

    @pytest.mark.parametrize("tolerance, passed", [(0.05, True), (0.01, False)])
    def test_triple_cosh_scan_is_judged_at_the_config_tolerance(self, monkeypatch, tolerance, passed):
        # at K = 2.9 the scan's largest lhs/rhs is 1.0333: margin -0.0333
        manifest = harness.load_manifest()
        manifest["triple_cosh"]["constant"] = 2.9
        monkeypatch.setattr(harness, "load_manifest", lambda: manifest)
        v = run_short(INEQUALITIES_SMALL, [f"tolerances.inequality={tolerance}"]).verdicts["triple_cosh_scan"]
        assert v.margin == pytest.approx(-0.0333, abs=1e-4)
        assert v.passed is passed and v.tolerance == tolerance

    def test_seed_changes_sampled_margins(self):
        a = run_short(INEQUALITIES_SMALL)
        b = run_short(INEQUALITIES_SMALL, ["seed=7"])
        assert a.verdicts["sinh"].margin != b.verdicts["sinh"].margin
        assert a.verdicts["triple_cosh_scan"] == b.verdicts["triple_cosh_scan"]


class TestDeterminism:
    def test_identical_config_reproduces_report_exactly(self):
        a = run_short(RADIUS_SHORT)
        b = run_short(RADIUS_SHORT)
        assert a.series == b.series
        assert a.fits == b.fits
        assert a.verdicts == b.verdicts
        assert a.config == b.config
