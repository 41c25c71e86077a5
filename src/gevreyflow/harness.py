"""Scenario runners: desk-scale experiments with pass/fail verdicts.

Each runner takes a ScenarioConfig (config.py, which holds the schema,
every config check and each scenario's equation family), integrates the
configured flow, and returns an ExperimentReport of named series, fits,
and verdicts.  One table, SCENARIOS, maps each scenario id to its body,
and one driver, _run, is every runner; RUNNERS binds it to each id.
Reports are deterministic functions of (config, seed): the integrator is
fixed order, every reduction runs in a fixed sequential order, and wall-clock
time is carried separately so content hashing can ignore it.  Runners are
independent of each other (no shared state), so callers may execute any
subset in any order, or in parallel processes, and merge reports by
scenario id.

Every body is a generator body(cfg, spec, init), init carrying the grid,
that integrates nothing itself: it yields lists of trajectory requests
(spec, init, where, t_start), or (spec, init, where, t_start, observe),
receives their trajectories, and returns (series, fits, verdicts).
Conservation, sigma-scaling and radius make one request, "trajectory";
the window body one per window, each from the last one's final state;
the damping body its trajectory, then its rate probes as one list; the
inequality body one empty list.  A request's observe is integrate's
observer, called in this process on each block of at most
dynamics.RECORD_BLOCK recorded states, which it must not keep, and the
trajectory keeps only the rows it returns, so the run's memory does not
grow with its record count, and an observer's side effects and errors
reach the driver as they happened: conservation observes its
three invariants, read off the functional_A terms at sigma = 0,
sigma-scaling the functional_A totals at its sigmas, and radius each
state's fit.  The other bodies keep their states: the window body
run.window_records per window, the damping body its trajectory's, from
which its rate probes restart, and each probe's three.
The driver has three phases: build (check the scenario, then
ScenarioConfig.build(), the parser's validation call), requests (integrate
each, the harness's only integrate call; a StepError, a failed step, is
re-raised as the same kind at the global time t_start + err.t, naming where,
and one keyed to an EvolutionSpec parameter is keyed to its evolution key
and advises to lower it; every other error passes through as the same type,
message and attributes), and judge (the body judges its records, or their
observed rows, at once, as arrays).

Verdict margins are normalized: positive means the checked quantity
cleared its bound by that relative amount, negative by how much it fell
short.  An evolution verdict passes at margin >= 0; the four inequality
verdicts pass at margin >= -tolerance (_violations, and the lattice scan's
lhs <= rhs (1 + tolerance)).
Two helpers state every relative margin of the evolution scenarios:
_relative_errors (drifts, identities, radius match) and _headroom (values
under a bound widened by the tolerance).  Every verdict carries the config
tolerance it was judged against.
"""

from __future__ import annotations

import math
import time
from dataclasses import astuple, replace
from functools import partial

import numpy as np

from .analytics import (
    conserved_combinations,
    damping_A_norm,
    fit_loglog,
    functional_A,
    functional_M,
    lifespan_T0,
    mass_rate,
    radius_estimate,
    sigma_choice,
)
from .config import SCENARIO_IDS, ScenarioConfig, known_radius
from .dynamics import EvolutionSpec, integrate, plan_run
from .errors import ConfigurationError, FitError, StepError, UnderresolvedError
from .inequalities import (
    cosh_minus_one_margin,
    equivalence_margins,
    load_manifest,
    scan_triple_cosh,
    sinh_margin,
)
from .records import frozen

_TINY = 1e-300  # floor of every margin's denominator; keeps a 0/0 error at exactly 0


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@frozen
class Verdict:
    """One check of a report: whether it passed, its normalized margin and
    the config tolerance it was judged against."""

    passed: bool
    margin: float
    tolerance: float


@frozen
class ExperimentReport:
    """What one scenario run returns: its named series, fits and verdicts,
    the config it ran, and its wall-clock time, which content hashing
    leaves out."""

    scenario: str
    series: dict
    fits: dict
    verdicts: dict
    config: dict
    wall_clock: float

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts.values())


def _relative_errors(values, refs) -> np.ndarray:
    """|v - r| / |r| for each value and its reference (or one reference
    for all), with |r| floored at _TINY."""
    values, refs = np.asarray(values, dtype=float), np.asarray(refs, dtype=float)
    return np.abs(values - refs) / np.maximum(np.abs(refs), _TINY)


def _headroom(values, bounds, tol: float) -> np.ndarray:
    """(b (1 + tol) - v) / b for each value and its bound (or one bound for
    all), with b floored at _TINY: the relative room left under the bound
    widened by tol, negative where the value exceeds it."""
    values, bounds = np.asarray(values, dtype=float), np.asarray(bounds, dtype=float)
    return (bounds * (1.0 + tol) - values) / np.maximum(bounds, _TINY)


def _margin_verdict(margin: float, tol: float) -> Verdict:
    """A value checked against its tolerance, given as its margin: the
    signed headroom, which passes at >= 0."""
    return Verdict(passed=bool(margin >= 0), margin=float(margin), tolerance=tol)


def _series_verdict(margins, tol: float) -> Verdict:
    """The worst of a margin series; every margin must be >= 0, and a NaN
    anywhere fails."""
    return _margin_verdict(np.min(margins), tol)


# ---------------------------------------------------------------------------
# scenario: exact invariants of the undamped flow
# ---------------------------------------------------------------------------


def _conservation(cfg: ScenarioConfig, spec: EvolutionSpec, init):
    """Relative drift of the three exact invariants at sigma = 0."""
    names = ("inv0", "inv1", "inv2")

    def invariants(states, times):
        rows = conserved_combinations(functional_A(states, 0.0, cfg.mu))
        return np.column_stack([rows[n] for n in names])

    [traj] = yield [(spec, init, "trajectory", 0.0, invariants)]

    rows = dict(zip(names, traj.observed.T))
    times = [float(t) for t in traj.times]
    invariants = {"t": times}
    drifts = {"t": times}
    for n in names:
        invariants[n] = rows[n].tolist()
        drifts["drift_" + n] = _relative_errors(rows[n], rows[n][0]).tolist()
    max_drift = max(max(drifts["drift_" + n]) for n in names)

    tol = cfg.tolerances.conservation
    verdicts = {"conservation": _margin_verdict(tol - max_drift, tol)}
    fits = {"drift": {"max_relative": float(max_drift)}}
    series = {"invariants": invariants, "drift": drifts}
    return series, fits, verdicts


# ---------------------------------------------------------------------------
# scenario: sigma^2 scaling of the energy drift
# ---------------------------------------------------------------------------


def _sigma_scaling(cfg: ScenarioConfig, spec: EvolutionSpec, init):
    """Fit of log D(sigma) against log sigma on the defocusing flow.

    D(sigma) is the largest recorded increase of A_sigma over the window;
    sigma = 0 entries and entries whose drift never rises above the
    measurement floor (D <= 0) are excluded from the fit and flagged in the
    drift series' "included" column; with fewer than 3 left, a FitError
    names run.sigmas and each excluded sigma with its reason.  The config
    checks the sign and sigmas.
    """
    sigmas = np.asarray(cfg.sigmas, dtype=float)

    def a_sigma(states, times):
        return functional_A(states, sigmas, cfg.mu).total

    [traj] = yield [(spec, init, "trajectory", 0.0, a_sigma)]

    totals = traj.observed
    a0 = totals[0]
    D = (totals[1:] - a0).max(axis=0)
    denom = sigmas**2 * a0**2 * (1.0 + a0 + a0**2)
    chat = np.divide(D, denom, out=np.zeros_like(D), where=denom > 0)
    included = (sigmas > 0) & (D > 0)
    kept = sigmas[included]
    if kept.size < 3:
        excluded = ", ".join(
            f"{s:g} (sigma = 0)" if s == 0 else f"{s:g} (D(sigma) = {d:.3g} <= 0)"
            for s, d in zip(sigmas[~included], D[~included])
        )
        raise FitError(
            f"run.sigmas: need >= 3 positive-drift points for the fit, have {kept.size}; excluded sigma {excluded}"
        )
    slope, intercept, r2 = fit_loglog(kept, D[included])

    tol = cfg.tolerances
    half = 0.5 * (tol.slope_hi - tol.slope_lo)
    verdicts = {
        "slope_in_band": _margin_verdict(min(slope - tol.slope_lo, tol.slope_hi - slope) / half, half),
        "fit_quality": _margin_verdict(r2 - tol.r2_min, tol.r2_min),
    }
    fits = {
        "scaling": {
            "slope": slope,
            "intercept": intercept,
            "r2": r2,
            "window_lo": float(kept[0]),
            "window_hi": float(kept[-1]),
            "n_points": kept.size,
            "n_excluded": sigmas.size - kept.size,
        },
        "empirical_constant": {"max": float(chat[included].max()), "min": float(chat[included].min())},
    }
    a_series = {f"A_sigma_{sigma:g}": values for sigma, values in zip(cfg.sigmas, totals.T.tolist())}
    drifts = {"sigma": sigmas, "D": D, "chat": chat, "included": included.astype(float)}
    series = {
        "a_sigma": {"t": traj.times.tolist(), **a_series},
        "drift_vs_sigma": {name: column.tolist() for name, column in drifts.items()},
    }
    return series, fits, verdicts


# ---------------------------------------------------------------------------
# scenario: L2 decay under certified damping
# ---------------------------------------------------------------------------


def _damping_decay(cfg: ScenarioConfig, spec: EvolutionSpec, init):
    """Pointwise decay envelope, rate identity, and (constant a) equality.

    The rate identity dM/dt = -2 int a v^2 (analytics.mass_rate, the
    sigma = 0 case, where the commutator terms vanish) is probed at up to 8
    recorded states, by a 2-step centered difference restarted from each.
    """
    (a,) = spec.equation.dampings
    lam = a.floor
    [traj] = yield [(spec, init, "trajectory", 0.0)]
    times = [float(t) for t in traj.times]
    probe_idx = sorted(set(np.linspace(0, len(traj.states) - 1, 8, dtype=int).tolist()))
    probe = replace(spec, t_end=2.0 * spec.dt, record_every=1)
    probes = yield [(probe, traj.states[i], f"rate probe at record {i}", times[i]) for i in probe_idx]

    mass = functional_M(traj.states, 0.0).tolist()
    envelope = [math.exp(-2.0 * lam * t) * mass[0] for t in times]
    tol = cfg.tolerances
    env_margins = _headroom(mass, envelope, tol.decay)
    verdicts = {"decay_envelope": _series_verdict(env_margins, tol.decay)}
    if a.amplitude == 0:
        eq_err = _relative_errors(mass, envelope).max()
        verdicts["gronwall_equality"] = _margin_verdict(tol.equality - eq_err, tol.equality)

    # every probe runs one spec, so one step size
    m_before, _, m_after = functional_M([s for p in probes for s in p.states], 0.0).reshape(-1, 3).T
    fds = (m_after - m_before) / (2.0 * probes[0].plan.h)
    rates = [mass_rate(p.states[1], a) for p in probes]
    residuals = _relative_errors(fds, rates)
    worst = residuals.max()
    verdicts["rate_identity"] = _margin_verdict(tol.rate - worst, tol.rate)

    series = {
        "mass_decay": {"t": times, "mass": mass, "envelope": envelope},
        "rate_residual": {
            "t": [times[i] for i in probe_idx],
            "residual": residuals.tolist(),
        },
    }
    fits = {
        "decay": {"violations": float((env_margins < 0).sum()), "worst_margin": float(env_margins.min())},
        "rate": {"max_relative_residual": float(worst)},
    }
    return series, fits, verdicts


# ---------------------------------------------------------------------------
# scenario: window iteration, for the damped flow and the coupled pair
# ---------------------------------------------------------------------------


def _component_masses(states, sigma) -> np.ndarray:
    """functional_M of each component (one field, or the coupled pair) of
    each state, shaped (C, R) + shape(sigma).  The mass is the sum over C,
    and a component's G^sigma norm the square root of its entry."""
    parts = tuple(zip(*states)) if isinstance(states[0], tuple) else (states,)
    return np.array([functional_M(part, sigma) for part in parts])


def _iterate_windows(cfg: ScenarioConfig, spec: EvolutionSpec, state):
    """Window-by-window almost-conservation of the sigma-mass with decay
    envelope: the body of the iteration scenario (family mkdvm) and of the
    coupled scenario (family coupled).

    The mass is M_sigma for the damped flow and its sum N_sigma over the
    components for the coupled pair, and the envelope rate lambda is the
    smallest damping floor.  Everything else (T0, C1 policy, sigma choice,
    window loop, verdicts) is the same for both.
    """
    # the initial state is band-limited, so every norm below sees the state
    # the integrator evolves
    eq = spec.equation
    lam = min(d.floor for d in eq.dampings)
    tol = cfg.tolerances
    # the config holds sigma0 inside (A3), and every sigma below is <= sigma0
    a_norm0 = max(damping_A_norm(d, cfg.sigma0) for d in eq.dampings)

    # the config rejects zero data, so M_sigma0 > 0
    l2_sq, m0_sigma0 = _component_masses([state], [0.0, cfg.sigma0]).sum(axis=0)[0].tolist()
    T0 = lifespan_T0(a_norm0, m0_sigma0, cfg.c0, cfg.d)
    if T0 < cfg.dt:
        raise ConfigurationError(
            f"window length T0 = {T0:.6g} is shorter than one step evolution.dt = {cfg.dt:g}; "
            "raise run.c0 or shrink the data or the damping", "run.c0"
        )

    # the windows depend on T0 alone, so they run first, each from the last
    # one's final state; the empirical C1 policy calibrates on window 0,
    # which so runs even at k_max = 0.  T0 >= dt, so the cadence is >= 1; T0 / dt
    # is capped at 2**53 steps.  One window's plan fails as run.c0's, k_max windows as run.k_max's
    cadence = math.ceil(math.ceil(min(T0 / cfg.dt, 2.0**53)) / cfg.window_records)
    window_spec = replace(spec, t_end=T0, record_every=cadence)
    plan_run(window_spec, state, 1, "run.c0")
    plan_run(window_spec, state, cfg.k_max, "run.k_max")
    efold = math.exp(-2.0 * lam * T0)
    windows = []
    for k in range(max(cfg.k_max, cfg.c1_mode == "empirical")):
        windows += yield [(window_spec, windows[-1].final if windows else state, f"window {k}", k * T0)]

    # C1 policy: fixed value, or window 0's drift at sigma0 times the safety
    # factor; nonpositive drift falls back to the 1e-6 floor (decay beat the
    # envelope, so any positive constant is consistent)
    calibration = {}
    if cfg.c1_mode == "fixed":
        C1 = cfg.c1_value
        calibration["floored"] = 0.0
    else:
        resid = float(_component_masses([windows[0].final], cfg.sigma0).sum()) - efold * m0_sigma0
        denom = (cfg.sigma0**cfg.theta * m0_sigma0 + cfg.sigma0 * a_norm0) * m0_sigma0
        chat = resid / denom
        C1 = cfg.c1_safety * max(chat, 1e-6)
        calibration["chat"] = float(chat)
        calibration["floored"] = float(chat < 1e-6)

    sigma, branch = sigma_choice(cfg.sigma0, lam, T0, C1, a_norm0, m0_sigma0, cfg.theta)
    fits = {
        "derived": {
            "T0": float(T0),
            "sigma": float(sigma),
            "branch": branch,
            "C1": float(C1),
            "theta": float(cfg.theta),
            "lambda": float(lam),
        },
        "calibration": calibration,
    }
    if cfg.k_max == 0:
        return {}, fits, {}

    # every window's records at their global times (a later window's first
    # repeats the last one's final record), and the index of window 0's
    # first record and of each window's last; their masses at sigma/2 (the
    # decay norms) and at sigma (the window ends), one call per window, so
    # that only one window's states are read at a time
    per_window, t, ends = [], [], [0]
    for k, win in enumerate(windows):
        start = 0 if k == 0 else 1
        per_window.append(_component_masses(win.states[start:], [sigma / 2.0, sigma]))
        t += [k * T0 + float(tk) for tk in win.times[start:]]
        ends.append(len(t) - 1)
    masses = np.concatenate(per_window, axis=1)
    boundary = masses[:, ends, 1].sum(axis=0)
    decay_norm = np.sqrt(masses[:, :, 0].max(axis=0))
    chat_env = math.sqrt(math.sqrt(l2_sq) * math.sqrt(m0_sigma0))
    decay_env = [chat_env * math.exp(-lam * tk / 2.0) for tk in t]
    a_norm_sigma = max(damping_A_norm(d, sigma) for d in eq.dampings)
    m_start = boundary[:-1]
    residuals = boundary[1:] - efold * m_start
    bounds = C1 * (sigma**cfg.theta * m_start + sigma * a_norm_sigma) * m_start

    m_limit = m0_sigma0 * (1.0 + tol.iteration)
    verdicts = {
        "window_bound": _series_verdict(_headroom(boundary, m0_sigma0, tol.iteration), tol.iteration),
        "interpolation_decay": _series_verdict(_headroom(decay_norm, decay_env, tol.iteration), tol.iteration),
        "residual_bound": _series_verdict(_headroom(residuals, bounds, tol.iteration), tol.iteration),
    }
    ks = np.arange(len(boundary), dtype=float).tolist()
    series = {
        "mass_windows": {"k": ks, "value": boundary.tolist(), "limit": [float(m_limit)] * len(boundary)},
        "decay": {"t": t, "norm": decay_norm.tolist(), "envelope": decay_env},
        "window_residuals": {"k": ks[:-1], "residual": residuals.tolist(), "bound": bounds.tolist()},
    }
    return series, fits, verdicts


# ---------------------------------------------------------------------------
# scenario: radius tracking
# ---------------------------------------------------------------------------


def _radius_tracking(cfg: ScenarioConfig, spec: EvolutionSpec, init):
    """Fitted strip width against the calibrated min{sigma0, c t^(-1/2)}.

    c is calibrated from the first recorded snapshot after t = 0 (the bound
    is existential upstream, so only consistency is checked, never
    sharpness).  Soliton data additionally checks that the fitted radius
    stays within the radius_match tolerance of pi/(2k).
    """
    sigma0_known = known_radius(cfg.data)

    def fit(t, state):
        try:
            return radius_estimate(state)
        except UnderresolvedError as err:
            # only xi = 2 pi k / L beyond double range fails the fit's arithmetic
            advice = "change grid.L" if isinstance(err.__cause__, FloatingPointError) else "raise grid.N"
            raise UnderresolvedError(f"radius fit failed at t = {t:g}: {err}; {advice}") from err

    # the t = 0 record is spectrally the initial state, so a grid too coarse
    # to fit it, or to fit it within radius_match of the known radius, fails
    # before the integration; the observer fits it again, as every record,
    # into one row (sigma_hat, clamped, superexponential) per state
    fit0 = fit(0.0, init)
    tol = cfg.tolerances
    miss = float(_relative_errors(fit0.sigma_hat, sigma0_known))
    if miss > tol.radius_match:
        raise UnderresolvedError(
            f"radius fit at t = 0 reads {fit0.sigma_hat:.6g}, {miss:.1%} off the known radius "
            f"{sigma0_known:.6g} (radius_match {tol.radius_match:g}); raise grid.N"
        )

    def fits(states, times):
        return np.array([astuple(fit(t, s)) for t, s in zip(times, states)], dtype=float)

    [traj] = yield [(spec, init, "trajectory", 0.0, fits)]

    times = traj.times
    sigma_hat, clamped, superexponential = traj.observed.T

    T1 = float(times[1])
    c = float(sigma_hat[1]) * math.sqrt(T1)
    # the envelope is sigma0 at t = 0, where c t^(-1/2) is unbounded
    envelope = np.full(len(times), sigma0_known)
    envelope[1:] = np.minimum(sigma0_known, c / np.sqrt(times[1:]))

    margins = (sigma_hat[2:] - envelope[2:] * (1.0 - tol.radius)) / envelope[2:]
    verdicts = {"envelope": _series_verdict(margins, tol.radius)}
    if cfg.data.kind == "soliton":
        err = _relative_errors(sigma_hat, sigma0_known).max()
        verdicts["soliton_radius_match"] = _margin_verdict(tol.radius_match - err, tol.radius_match)

    series = {
        "radius": {"t": times.tolist(), "sigma_hat": sigma_hat.tolist(), "envelope": envelope.tolist()}
    }
    fits = {
        "calibration": {"c": float(c), "T1": float(T1), "sigma0_known": float(sigma0_known)},
        "flags": {
            "clamped": float(clamped.sum()),
            "superexponential": float(superexponential.sum()),
        },
    }
    return series, fits, verdicts


# ---------------------------------------------------------------------------
# scenario: inequality suite
# ---------------------------------------------------------------------------


def _violations(margins: np.ndarray, scale: np.ndarray, tol: float) -> tuple[int, float]:
    norm = margins / np.maximum(1.0, scale)
    return int(np.sum(norm < -tol)), float(norm.min())


def _inequalities(cfg: ScenarioConfig, spec: EvolutionSpec, init):
    """Randomized margin sweep of the scalar bounds plus the certified
    triple-cosh lattice scan.

    Samples mix a uniform core with log-uniform tails so both the small-
    argument expansions and the saturated regimes are exercised; all
    sampling is driven by the config seed, and no trajectory is requested.
    """
    yield []
    rng = np.random.default_rng(cfg.seed)
    n = cfg.samples
    tol = cfg.tolerances.inequality
    half = n // 2

    r = np.concatenate([rng.uniform(0.0, 2.0, half), 10.0 ** rng.uniform(-12.0, 6.0, n - half)])
    theta = rng.uniform(0.0, 1.0, n)
    v_sinh, m_sinh = _violations(sinh_margin(r, theta), r**theta, tol)

    sigma = 10.0 ** rng.uniform(-6.0, 2.0, n)
    xi = np.sign(rng.uniform(-1.0, 1.0, n)) * 10.0 ** rng.uniform(-6.0, 5.0, n)
    theta2 = rng.uniform(0.0, 1.0, n)
    rhs = (np.abs(sigma * xi)) ** (2.0 * theta2)
    v_cosh, m_cosh = _violations(cosh_minus_one_margin(sigma, xi, theta2), rhs, tol)

    lower, upper = equivalence_margins(sigma, xi)
    v_eq = int(np.sum(lower < -tol) + np.sum(upper < -tol))
    m_eq = float(min(lower.min(), upper.min()))

    entry = load_manifest()["triple_cosh"]
    K, lattice = float(entry["constant"]), entry["scan"]
    sig, xi = (np.linspace(lattice[a]["min"], lattice[a]["max"], lattice[a]["count"]) for a in ("sigma", "xi"))
    scan = scan_triple_cosh(sig, xi, *lattice["theta"], K=K, tol=tol)

    verdicts = {
        "sinh": Verdict(passed=v_sinh == 0, margin=m_sinh, tolerance=tol),
        "cosh_minus_one": Verdict(passed=v_cosh == 0, margin=m_cosh, tolerance=tol),
        "equivalence": Verdict(passed=v_eq == 0, margin=m_eq, tolerance=tol),
        "triple_cosh_scan": Verdict(
            passed=scan["violations"] == 0,
            margin=float((K - scan["max_ratio"]) / K),
            tolerance=tol,
        ),
    }
    fits = {
        "samples": {
            "per_family": float(n),
            "violations_sinh": float(v_sinh),
            "violations_cosh_minus_one": float(v_cosh),
            "violations_equivalence": float(v_eq),
        },
        "triple_cosh": {
            "constant": scan["constant"],
            "max_ratio": scan["max_ratio"],
            "points_scanned": float(scan["points_scanned"]),
            "violations": float(scan["violations"]),
        },
    }
    return {}, fits, verdicts


# ---------------------------------------------------------------------------
# the scenario table and its one driver
# ---------------------------------------------------------------------------

# scenario id -> body
SCENARIOS = {"conservation": _conservation, "sigma-scaling": _sigma_scaling, "damping": _damping_decay,
             "iteration": _iterate_windows, "radius": _radius_tracking, "coupled": _iterate_windows,
             "inequalities": _inequalities}


def _run(scenario: str, cfg: ScenarioConfig) -> ExperimentReport:
    """Run one scenario: check that cfg is for it, build its objects once,
    integrate every request its body yields, and build the report from
    what the body returns, wall clock included."""
    t0 = time.perf_counter()
    if cfg.scenario != scenario:
        raise ConfigurationError(f"config is for scenario {cfg.scenario!r}, runner expects {scenario!r}")
    steps, trajectories = SCENARIOS[scenario](cfg, *cfg.build()), None
    while True:
        try:
            requests = steps.send(trajectories)
        except StopIteration as done:
            series, fits, verdicts = done.value
            break
        trajectories = []
        for spec, init, where, t_start, *observe in requests:
            try:
                trajectories.append(integrate(spec, init, *observe))
            except StepError as err:
                t, key = t_start + err.t, err.key and f"evolution.{err.key}"
                advice = f"; lower {key}" if key else ""
                raise type(err)(f"{where}, global t = {t:.6g}: {err}{advice}", t, key) from err
    return ExperimentReport(scenario, series, fits, verdicts, cfg.as_sections(), time.perf_counter() - t0)


RUNNERS = {scenario: partial(_run, scenario) for scenario in SCENARIO_IDS}
