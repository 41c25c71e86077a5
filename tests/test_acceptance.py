"""Acceptance gate: one test per shipped criterion, stated tolerances only.

Run with `pytest tests/test_acceptance.py -v -s` to get one labeled
PASS/FAIL line per criterion in addition to pytest's own verdicts.
Criteria run against the packaged scenario configs wherever the stated
parameters coincide with a shipped default, so this suite also certifies
the artifacts a user gets from the CLI.
"""

import functools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import count_transforms, packaged_text
from oracles import operator_F, operator_G

from gevreyflow import content_hash, harness, report_payload
from gevreyflow.analytics import s_index, theta_max
from gevreyflow.config import parse_config_text
from gevreyflow.dynamics import Equation, EvolutionSpec, RaisedCosineDamping, integrate, plan_run, soliton
from gevreyflow.harness import RUNNERS
from gevreyflow.spectral import Grid, analyze


def packaged(name):
    return parse_config_text(packaged_text(name))


# packaged config -> the content hash of its report, one "name hash" line
# each, as tests/report_series.py dump prints them
REPORT_HASHES = Path(__file__).with_name("report_hashes.txt")
EXPECTED_HASHES = dict(line.split() for line in REPORT_HASHES.read_text(encoding="utf-8").splitlines() if line.strip())


@functools.cache
def packaged_run(name):
    """The report of a packaged config, run once per test process, and
    (trajectory, init, transforms) for each integrate call of the run,
    transforms counting the step loop's alone: those that the call's
    observer makes, in the same process, are left out.  Its content hash
    must equal that config's line in tests/report_hashes.txt, so a change
    that moves a trajectory or a report fails here."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        counts = count_transforms(patch)
        real = harness.integrate

        def total():
            return counts["rfft"] + counts["irfft"]

        def counted(spec, init, *observe):
            before, observer = total(), [0]

            def observed(states, times):
                start = total()
                rows = observe[0](states, times)
                observer[0] += total() - start
                return rows

            traj = real(spec, init, *([observed] if observe else []))
            calls.append((traj, init, total() - before - observer[0]))
            return traj

        patch.setattr(harness, "integrate", counted)
        cfg = parse_config_text(packaged_text(name))
        report = RUNNERS[cfg.scenario](cfg)
    expected = EXPECTED_HASHES.get(name)
    digest = content_hash(report_payload(report))
    assert digest == expected, f"content hash of {name} moved: {digest}, {REPORT_HASHES.name} has {expected}"
    return report, calls


def run_packaged(name, overrides=()):
    """The report of a packaged config: without overrides packaged_run's,
    hash-checked, else a run of its own."""
    if not overrides:
        return packaged_run(name)[0]
    cfg = parse_config_text(packaged_text(name), overrides)
    return RUNNERS[cfg.scenario](cfg)


def declare(criterion, passed, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


class TestAcceptance:
    def test_criterion_1_inequality_suite(self):
        report = run_packaged("inequalities")
        scan = report.fits["triple_cosh"]
        ok = report.passed and scan["violations"] == 0
        declare(
            1,
            ok,
            f"1e6 samples per family, 0 violations; lattice max ratio "
            f"{scan['max_ratio']:.6f} below certified constant",
        )

    def test_criterion_2_exact_conservation(self):
        report = run_packaged("conserve")
        worst = report.fits["drift"]["max_relative"]
        declare(
            2,
            report.passed and worst <= 1e-6,
            f"max relative invariant drift {worst:.3e} <= 1e-6 over t in [0,5]",
        )

    def test_criterion_3_soliton_fidelity(self):
        # max-norm error against the exact periodic translate at t = 5
        cfg = packaged("conserve")
        spec, init = cfg.build()
        grid = init.grid
        traj = integrate(spec, init)
        k, x0, t_end = cfg.data.k, cfg.data.x0, cfg.t_end
        shift = np.mod(grid.x - x0 - k * k * t_end + grid.L / 2.0, grid.L) - grid.L / 2.0
        exact = math.sqrt(6.0) * k / np.cosh(k * shift)
        err = float(np.abs(traj.final.samples - exact).max())

        # dt-halving order ratio where truncation dominates the spatial floor
        def endpoint_error(dt):
            g = Grid(64.0, 1024)
            u0, speed = soliton(1.0, 32.0, g)
            spec = EvolutionSpec(Equation(1), dt, 0.5, max(1, round(0.5 / dt)))
            out = integrate(spec, u0).final
            d = np.mod(g.x - 32.0 - speed * 0.5 + g.L / 2.0, g.L) - g.L / 2.0
            return float(np.abs(out.samples - math.sqrt(6.0) / np.cosh(d)).max())

        ratio = endpoint_error(1e-3) / endpoint_error(5e-4)
        ok = err <= 1e-6 and 10.0 <= ratio <= 24.0
        declare(
            3,
            ok,
            f"t=5 max-norm error {err:.3e} <= 1e-6; dt-halving ratio {ratio:.2f} in [10, 24]",
        )

    def test_criterion_4_sigma_squared_scaling(self):
        report = run_packaged("sigma_scaling")
        fit = report.fits["scaling"]
        slope_ok = 1.8 <= fit["slope"] <= 2.2 and fit["r2"] >= 0.98

        grid = Grid(64.0, 512)
        u, _ = soliton(1.0, 32.0, grid)
        f_sigs = np.geomspace(1e-3, 1e-1, 7)
        f_norms = [
            math.sqrt(float(np.sum(grid.multiplicity * np.abs(operator_F(u, s, 1).spectrum) ** 2)))
            for s in f_sigs
        ]
        f_slope = float(np.polyfit(np.log(f_sigs), np.log(f_norms), 1)[0])

        probe = analyze(np.cos(2.0 * np.pi * 102 * grid.x / grid.L), grid)
        a = RaisedCosineDamping(floor=0.2, amplitude=0.15, length=64.0)
        g_sigs = np.linspace(0.3, 1.0, 8)
        g_norms = [
            math.sqrt(float(np.sum(grid.multiplicity * np.abs(operator_G(probe, a, s).spectrum) ** 2)))
            for s in g_sigs
        ]
        g_slope = float(np.polyfit(np.log(g_sigs), np.log(g_norms), 1)[0])

        ok = (
            report.passed
            and slope_ok
            and 1.9 <= f_slope <= 2.1
            and 0.9 <= g_slope <= 1.1
        )
        declare(
            4,
            ok,
            f"drift exponent {fit['slope']:.3f} (r2 {fit['r2']:.4f}); "
            f"companion slopes F {f_slope:.3f}, G {g_slope:.3f}",
        )

    def test_criterion_5_damping_decay(self):
        variable = run_packaged("damping")
        constant = run_packaged("damping_constant")
        ok = (
            variable.verdicts["decay_envelope"].passed
            and variable.verdicts["rate_identity"].passed
            and constant.verdicts["gronwall_equality"].passed
            and constant.verdicts["rate_identity"].passed
        )
        worst_rate = max(
            max(abs(r) for r in variable.series["rate_residual"]["residual"]),
            max(abs(r) for r in constant.series["rate_residual"]["residual"]),
        )
        declare(
            5,
            ok,
            f"constant-coefficient equality at 1e-8, variable envelope with 0 violations "
            f"at 1e-3, rate residual {worst_rate:.3e} <= 1e-5",
        )

    def test_criterion_6_global_iteration(self):
        report = run_packaged("iterate")
        bound = report.verdicts["window_bound"]
        decay = report.verdicts["interpolation_decay"]
        windows = report.series["mass_windows"]["k"]
        ok = bound.passed and decay.passed and max(windows) == 20.0 and report.passed
        declare(
            6,
            ok,
            f"20 windows: bound margin {bound.margin:.3e}, decay margin {decay.margin:.3e} "
            f"(weight branch {report.fits['derived']['branch']!r})",
        )

    def test_criterion_7_radius_consistency(self):
        tracked = run_packaged("radius")
        control = run_packaged("radius", ["equation.mu=1", "data.kind=soliton"])
        env = tracked.verdicts["envelope"]
        match = control.verdicts["soliton_radius_match"]
        ok = env.passed and match.passed and control.verdicts["envelope"].passed
        declare(
            7,
            ok,
            f"envelope margin {env.margin:.3f}; soliton estimate within "
            f"{match.tolerance:.0%} of pi/(2k) (deviation margin {match.margin:.4f})",
        )

    def test_criterion_8_coupled_system(self):
        report = run_packaged("coupled")
        degenerate = run_packaged(
            "coupled",
            ["data2.kind=zero", "run.sigma0=0.5", "run.k_max=10"],
        )
        single = parse_config_text(
            "\n".join(
                [
                    'scenario = "iteration"',
                    "[equation]",
                    'family = "mkdvm"',
                    "m = 3",
                    "mu = -1",
                    "nonlinear = false",
                    "[damping]",
                    'form = "raised_cosine"',
                    "floor = 1.0",
                    "amplitude = 0.25",
                    "[data]",
                    'kind = "sech"',
                    "amplitude = 0.7071067811865476",
                    "[evolution]",
                    "dt = 0.0002",
                    "[run]",
                    "sigma0 = 0.5",
                    "theta = 0.45",
                    "k_max = 10",
                    "window_records = 8",
                ]
            )
        )
        mirror = RUNNERS["iteration"](single)
        gap = max(
            max(
                abs(a - b)
                for a, b in zip(
                    degenerate.series["mass_windows"]["value"],
                    mirror.series["mass_windows"]["value"],
                )
            ),
            max(
                abs(a - b)
                for a, b in zip(degenerate.series["decay"]["norm"], mirror.series["decay"]["norm"])
            ),
        )
        ok = report.passed and gap <= 1e-10
        declare(
            8,
            ok,
            f"combined-mass verdicts pass over 20 windows; degenerate second component "
            f"matches the single flow to {gap:.1e}",
        )

    def test_criterion_9_index_formulas(self):
        ok = (
            s_index(5) == Fraction(-1, 4)
            and s_index(7) == Fraction(-43, 60)
            and theta_max(9) == Fraction(1)
        )
        declare(
            9,
            ok,
            "s_index(5) = -1/4, s_index(7) = -43/60, theta_max(9) = 1 (exact rationals)",
        )


@pytest.mark.parametrize("name", EXPECTED_HASHES)
def test_packaged_report_hash(name):
    # packaged_run asserts the hash, so a moved one fails here by its name
    # whichever criteria run, and with no run of its own when they do
    packaged_run(name)


# packaged evolution config -> the integrate calls its run makes: the
# trajectory, every window, and the damping body's 8 rate probes
PACKAGED_CALLS = {"conserve": 1, "sigma_scaling": 1, "damping": 9, "damping_constant": 9, "iterate": 20,
                  "radius": 1, "coupled": 20}


@pytest.mark.parametrize("name", PACKAGED_CALLS)
def test_packaged_plans_are_the_steps_taken(name):
    # each integrate call makes 8 transforms per step of its plan, one
    # record per plan record and, keeping its band rows, the plan's bytes
    calls = packaged_run(name)[1]
    assert len(calls) == PACKAGED_CALLS[name]
    for traj, init, transforms in calls:
        plan = traj.plan
        assert plan == plan_run(traj.spec, init) and transforms == 8 * plan.n_steps
        assert len(traj.times) == plan.n_rec + 1 and traj.times.nbytes == plan.times_bytes
        assert traj.states is None or traj.observed.nbytes == plan.band_bytes
