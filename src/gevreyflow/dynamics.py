"""Right-hand sides, damping profiles, and time integration for the three
flows:

  * mKdV               u_t + u_xxx + mu u^2 u_x = 0
  * damped higher mKdV v_t + (-1)^(j+1) d_x^m v + mu v^2 v_x + a(x) v = 0
  * damped coupled     w1_t + w1_xxx + mu (w1 w2^2)_x + a1 w1 = 0
                       w2_t + alpha w2_xxx + mu (w1^2 w2)_x + a2 w2 = 0

For every odd m = 2j+1 the linear part reads dV_k/dt = i xi_k^m V_k in
Fourier variables (the sign (-1)^(j+1) combines with i^m to give +i for all
j), so one dispersive symbol covers all three systems, scaled per
component by its dispersion ratio: (1,) for one component, (1, alpha) for
the coupled pair.  So one type, Equation, states every flow, and
EvolutionSpec adds only the time grid; check_band_phase bounds the
symbol's phase per step.  A damping profile
checks its (A1) floor itself, and its closed form is its (A2)
certificate, so no transform runs outside the step loop.

Integration is classical RK4 in the integrating-factor frame: the stiff
dispersive part is propagated exactly by the unimodular symbol
exp(i xi^m t) and RK4 only sees the nonlinear + damping terms.

Every flow is stepped as a stack of C = len(alphas) components, 1 or 2,
through one rhs and one RK4 loop.  States live in the dealiased band
|k| <= N/4 (the 1/2 rule; initial data is projected into it), and the
loop holds only that band of the package's half spectrum: k = 0..N/4 of
each real component, shape (C, N/4+1), and the dispersive symbol is
built on that band alone.  Every run has one record path, through one
block of at most RECORD_BLOCK rows (see integrate), and no state is kept
in the full half k = 0..N/2 (see RecordedStates).

nonlinear_term builds the one implementation of the non-dispersive rhs:
integrate runs it, and the tests call it.  It writes every cubic term in
conservative form, (mu/3)(v^3)_x for one component and mu (w1 w2^2)_x,
mu (w1^2 w2)_x for the pair, and differentiates the product in Fourier
space.  One batched irfft of the band (zero-padded to N points) and one
batched rfft of the products per evaluation make 8 transforms per RK4 step
for every flow: 2 N-point rows per evaluation for undamped mKdV, 3 with
damping, 6 for the pair; only the (K, K, K) triple, K = N/4, aliases
into the band (see nonlinear_term).

At N = 512 a numpy call costs more than the arithmetic it does: the 8
transforms are most of a step, and the rest of it is the fixed cost of
about 30 small calls.  So the step loop keeps one rule: one call per
operation, array operands only, out passed positionally, and no
allocation per step.  The two transforms of each evaluation are
spectral.irfft_into and rfft_into.  Every other operation
is one ufunc call, np.multiply or np.add, that writes into a buffer
allocated once per integrate call; the state is updated in place, and
each record copies it into its block row.  The
RK4 weights, the rhs minus sign, mu and the 1/N of the forward transform
are folded into factors built before the loop, each an array with a
leading axis of length 1 or C, the shape of the rows it multiplies.  On a
2-core x86 machine, on (1, 129) complex rows, a multiply by a Python float
took 0.66 us and the same multiply by an array 0.40 us (numpy casts the
float to complex128 either way, so the products are the same); out given
positionally saved a further 0.07 us per call (median of 31 alternating
repeats); max|w| as np.absolute into a buffer and np.maximum.reduce took
1.47 us, np.abs(w).max() 1.57 us.
Factors that meet one operand are stacked where that saves a call with
no broadcast: K1 and K4 are adjacent rows, scaled by (h/6) E^2 and
h/6 in one multiply.  E V and E^2 V stay two calls, because one multiply
of the stack (E, E^2) by a broadcast V measured about 1% slower per step.
A record transforms only a state past the cap's bound 2 sum|V_k|: a
state's samples are one irfft, made only when something reads them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import field

import numpy as np

from . import spectral
from .errors import BlowUpError, ConfigurationError, DtGuardError, StepError
from .records import frozen
from .spectral import Grid, SpectralField, analyze

BLOWUP_LIMIT = 1e6
# rows of integrate's record block: the states a run holds at a time
RECORD_BLOCK = 64
MAX_PLAN_BYTES, MAX_PLAN_STEPS = 2**30, 2**53  # past 2**53 steps, step * h is inexact


# ---------------------------------------------------------------------------
# damping profiles
# ---------------------------------------------------------------------------


@frozen
class RaisedCosineDamping:
    """a(x) = floor + amplitude * (1 + cos(2 pi x / length)).  Its closed
    form is its certificate, so construction checks only the inputs: (A1),
    amplitude >= 0, a finite sup and a positive, finite length.

    (A1) min a = floor > 0, reached at x = length/2, a node of every even-N grid.
    (A2) sup|d^k a| = amplitude R^k <= C R^k k! for every k >= 1, with
         (C, R) = (floor + 2*amplitude, 2 pi/length) and R = 0 at amplitude 0,
         because floor > 0 and k! >= 1.

    (A3), R < 1/sigma0, ties the profile to the data's weight, so the
    config checks it against run.sigma0.

    amplitude = 0 is the constant damping a = floor.  It is not
    square-integrable on the full line; it is admitted on the torus as an
    oracle because it turns the L2 decay bound into the exact equality
    ||v(t)|| = exp(-floor*t)||v0|| when the nonlinearity is off.
    """

    floor: float
    amplitude: float
    length: float

    def __post_init__(self):
        # each comparison is False for nan, so nan is rejected too
        if not 0 < self.floor < math.inf:
            raise ConfigurationError(f"damping floor must be positive (A1) and finite, got {self.floor}", "floor")
        if not (0 <= self.amplitude and self.sup < math.inf):
            message = f"damping amplitude must be >= 0 and floor + 2 amplitude finite, got {self.amplitude}"
            raise ConfigurationError(message, "amplitude")
        if not 0 < self.length < math.inf:
            raise ConfigurationError(f"damping length must be positive and finite, got {self.length}", "length")

    @property
    def sup(self) -> float:
        return self.floor + 2.0 * self.amplitude

    @property
    def deriv_bound_rate(self) -> float:
        return 2.0 * np.pi / self.length if self.amplitude > 0 else 0.0

    def deriv_sup(self, k: int) -> float:
        if k == 0:
            return self.sup
        return self.amplitude * (2.0 * np.pi / self.length) ** k

    def values(self, grid: Grid) -> np.ndarray:
        if grid.L != self.length:
            raise ConfigurationError(
                f"damping profile built for domain length {self.length}, grid has {grid.L}"
            )
        return self.floor + self.amplitude * (1.0 + np.cos(2.0 * np.pi * grid.x / self.length))


# ---------------------------------------------------------------------------
# evolution specification
# ---------------------------------------------------------------------------


@frozen
class Equation:
    """One flow: mu = +1 focusing, -1 defocusing; odd order m >= 3; one
    dispersion ratio per component, (1,) or (1, alpha) with alpha in (0, 1);
    no damping or one profile per component; and nonlinear, the config key
    equation.nonlinear, whose False drops the cubic terms and leaves the
    exactly solvable linear (damped linear) flow.  Equation(mu) is mKdV,
    Equation(mu, m, dampings=(a,)) the damped flow (m = 3 only as a
    cross-check), Equation(mu, alphas=(1.0, alpha), dampings=(a1, a2)) the
    coupled pair."""

    mu: int
    m: int = 3
    alphas: tuple = (1.0,)
    dampings: tuple = ()
    nonlinear: bool = True

    def __post_init__(self):
        if self.mu not in (-1, 1):
            raise ConfigurationError(f"mu must be +-1, got {self.mu}", "mu")
        if self.m < 3 or self.m % 2 == 0:
            raise ConfigurationError(f"order must be odd and >= 3, got m={self.m}", "m")
        if not 1 <= len(self.alphas) <= 2 or self.alphas[0] != 1.0:
            raise ConfigurationError(f"dispersion ratios must be (1,) or (1, alpha), got {self.alphas}")
        if len(self.alphas) == 2 and not 0.0 < self.alphas[1] < 1.0:
            raise ConfigurationError(f"dispersion ratio must lie in (0, 1), got alpha={self.alphas[1]}", "alpha")
        if self.dampings and len(self.dampings) != len(self.alphas):
            raise ConfigurationError(
                f"need no damping or one profile per component ({len(self.alphas)}), got {len(self.dampings)}"
            )


@frozen
class EvolutionSpec:
    """The flow and its time grid: equation, step, horizon, record cadence."""

    equation: Equation
    dt: float
    t_end: float
    record_every: int

    def __post_init__(self):
        if self.dt <= 0 or not np.isfinite(self.dt):
            raise ConfigurationError(f"dt must be positive, got {self.dt}", "dt")
        if self.t_end <= 0 or not np.isfinite(self.t_end):
            raise ConfigurationError(f"t_end must be positive, got {self.t_end}", "t_end")
        if not 1 <= self.record_every <= MAX_PLAN_STEPS:
            raise ConfigurationError(f"record_every must lie in [1, 2**53], got {self.record_every}", "record_every")


class RecordedStates(Sequence):
    """The recorded states of a trajectory, as a read-only sequence over
    band, the (R, C, N/4+1) array of their band rows.  Item r pads row r
    with zeros to the half spectrum k = 0..N/2, read-only, and returns its
    field, or a pair of them for C = 2, built on each read and not kept;
    integrate's record has checked the state, so no read checks it again.
    A slice is the same kind of view over fewer rows, with no state
    copied."""

    __slots__ = ("band", "grid")

    def __init__(self, band: np.ndarray, grid: Grid):
        self.band, self.grid = band, grid

    def __len__(self) -> int:
        return len(self.band)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return RecordedStates(self.band[index], self.grid)
        rows = self.band[index]
        half = np.zeros((len(rows), self.grid.xi.size), dtype=complex)
        half[:, : rows.shape[-1]] = rows
        half.flags.writeable = False
        # a list: tuple() of a generator leaves a resized 1-tuple per read
        states = [SpectralField(self.grid, H) for H in half]
        return tuple(states) if len(states) > 1 else states[0]


@frozen
class RunPlan:
    """integrate's plan (see plan_run): its steps and records, and their bytes."""

    n_rec: int
    n_steps: int
    h: float
    times_bytes: int
    band_bytes: int


@frozen(eq=False)
class Trajectory:
    """Recorded states at uniform cadence; times[0] = 0, last = t_end.
    observed holds integrate's record rows, read-only: the band rows, or
    the observer's; final is the state at t_end.  states is a
    RecordedStates view over kept band rows, else None.  Two trajectories
    are equal only when they are the same object."""

    times: np.ndarray = field(repr=False)
    observed: np.ndarray = field(repr=False)
    final: SpectralField | tuple
    spec: EvolutionSpec  # the benchmark's tracer (bench/tracer.py) counts steps from it
    plan: RunPlan
    states: RecordedStates | None = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------


def linear_symbol(grid: Grid, m: int, alpha: float = 1.0) -> np.ndarray:
    """i * alpha * xi^m on the band k = 0..N/4 that integrate evolves."""
    return 1j * alpha * grid.xi[: grid.band] ** m


def nonlinear_term(eq: Equation, grid: Grid):
    """Build the non-dispersive part N(V) of the rhs, on the dealiased band:
    the one rhs, which integrate runs.

    Returns (evaluate, samples).  V holds the band k = 0..N/4 of each
    component's state: shape (C, N/4+1), C = len(eq.alphas).
    evaluate(V, out) writes N(V), in the same layout, into out and the
    (C, N) samples w of V into samples, which the next call overwrites; it
    checks nothing, and integrate reads samples for the blow-up check
    before the next call.  An equation with nonlinear=False has no cubic
    terms.

    One irfft of V (zero-padded to N points) gives the rows w_c.
    The cubic rows w_1 w_C w_(C+1-c) are [v^3] for one component and
    [w1 w2^2, w1^2 w2] for the pair.  One rfft of them, with the rows
    -a_c w_c for a damped equation, gives N(V) = dx F[cubic] + F[-a w],
    where dx = -(mu/3) i xi for one component and -mu i xi for the pair.

    The rfft is unnormalised, and its 1/N is folded into dx and -a.  For
    a power-of-two N that scaling is exact, so N(V) is bit-identical to the
    normalised transform's; for other even N it may differ at round-off.

    Aliasing: a cubic product of band modes reaches |k| <= 3N/4, and on N
    points a mode k aliases onto k - N.  The only triple whose alias lands
    in the band is (K, K, K) with K = N/4, whose sum 3K aliases onto -K
    (and (-K, -K, -K) onto K).  So N(V) is exact for every k < K, and at
    k = +-K it carries that one extra term, of size |V_K|^3.

    The scratch arrays are allocated once, here.
    """
    N, band = grid.N, grid.band
    C = len(eq.alphas)
    mu = eq.mu if eq.nonlinear else 0
    damped = bool(eq.dampings)
    # mu v^2 v_x = (mu/3)(v^3)_x: the single cubic row v^3 takes a third
    dx = ((-mu / (3.0 if C == 1 else 1.0) / N) * 1j * grid.xi[:band])[None]
    neg_a = np.stack([-d.values(grid) / N for d in eq.dampings]) if damped else None
    samples = np.empty((C, N))
    first, last, flipped = samples[:1], samples[-1:], samples[::-1]
    pair = np.empty((1, N))
    rows = np.empty((C + C * damped, N))
    cubic, neg_aw = rows[:C], rows[C:]
    P = np.empty((rows.shape[0], grid.xi.size), dtype=complex)
    cubic_band, damp_band = P[:C, :band], P[C:, :band]
    # the package's two transforms (see spectral), looked up once per build
    irfft_into, rfft_into = spectral.irfft_into, spectral.rfft_into
    multiply, add = np.multiply, np.add

    def evaluate(V, out):
        irfft_into(V, samples)
        multiply(first, last, pair)
        multiply(pair, flipped, cubic)
        if damped:
            multiply(neg_a, samples, neg_aw)
        rfft_into(rows, P)
        multiply(dx, cubic_band, out)
        if damped:
            add(out, damp_band, out)

    return evaluate, samples


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


def plan_run(spec: EvolutionSpec, init, runs: int = 1, key: str = "t_end", keeps_band: bool = True) -> RunPlan:
    """The plan of integrate(spec, init), init a field or a tuple: n_rec is the least
    count >= 1 with n_rec >= t_end / (dt record_every) - 1e-9, so h = t_end / n_steps
    is at most dt (1 + 1e-9 / n_rec) exactly and dt (1 + 1e-9 + 2**-50) in floating
    point.  A ConfigurationError keyed key refuses runs runs of it past 2**53 steps in
    all, or past 2**30 bytes of record times and, if kept (keeps_band), band rows."""
    # a count past 2**54, or past double range, is refused below
    n_rec = max(1, math.ceil(min(spec.t_end / (spec.dt * spec.record_every) - 1e-9, 2.0**54)))
    band = (init[0] if isinstance(init, tuple) else init).grid.band
    n_steps, row_bytes = n_rec * spec.record_every, 16 * len(spec.equation.alphas) * band
    plan = RunPlan(n_rec, n_steps, spec.t_end / n_steps, 8 * (n_rec + 1), row_bytes * (n_rec + 1))
    if runs * n_steps > MAX_PLAN_STEPS:
        raise ConfigurationError(f"{key} plans more than 2**53 steps of dt = {spec.dt:g}", key)
    if runs * (plan.times_bytes + keeps_band * plan.band_bytes) > MAX_PLAN_BYTES:
        raise ConfigurationError(f"{key} plans {runs * (n_rec + 1):.6g} records, more than 2**30 bytes", key)
    return plan


def check_band_phase(spec: EvolutionSpec, grid: Grid) -> None:
    """Reject, keyed m, a band-edge phase per step theta = xi_K^m dt (no ratio
    exceeds 1) of 2^26 rad or more, where its roundings, of up to 2^-53 theta
    each, pass 2^-27 rad and exp(i theta) keeps under half a double's bits.
    In log2, as |log xi_K| is 0 or > 2^-53, an m past 2**1000 fails as 2**1000 does."""
    phase = min(spec.equation.m, 2**1000) * math.log2(grid.xi[grid.band - 1]) + math.log2(spec.dt)
    if not phase < 26:
        message = f"band-edge phase per step xi_K^m dt = 2^{phase:.4g} rad, past 2^26 rad"
        raise ConfigurationError(f"{message}; lower equation.m or evolution.dt, or raise grid.L", "m")


def _step_error(peak: float, dt: float, guard: float, t: float) -> StepError:
    """The error of the step at time t: a blow-up for a peak past the cap or
    not a number, else the dt guard's."""
    if not peak <= BLOWUP_LIMIT:
        return BlowUpError(f"blow-up abort at t = {t:.6g}: max|v| = {peak:.3e} exceeds {BLOWUP_LIMIT:.0e}", t)
    message = f"dt = {dt:.6g} exceeds the advective guard 0.5*dx/(max|u|^2 + sup a + 1) = {guard:.6g} at t = {t:.6g}"
    return DtGuardError(message, t, "dt")


def integrate(spec: EvolutionSpec, init, observe=None) -> Trajectory:
    """Run the flow from init: one SpectralField, or a pair of them for a
    two-component equation.

    The C = len(eq.alphas) components are stepped as one (C, N/4+1) stack
    of the dealiased band k = 0..N/4, into which the initial state is
    projected, through the one rhs that nonlinear_term builds.  A record
    copies that band into one block of at most RECORD_BLOCK rows.  Whenever
    the block fills, and at the last record, its rows go into
    Trajectory.observed before integrate steps on: the band rows with
    observe=None, the default, and Trajectory.states reads them; else what
    observe(states, times) returns, called here with the block's states, a
    read-only RecordedStates view it must not keep, and their record times:
    one row per state, of the first block's shape and a kind that casts to
    its dtype (same_kind), else ValueError.  At the start of every step,
    from the peak max|w| of the samples the first rhs evaluation makes:
    abort with BlowUpError once the peak passes 1e6, and raise
    DtGuardError, keyed dt, once dt exceeds the advective guard
    0.5 dx / (peak^2 + sup a + 1).  Every record, the first and the last
    included, raises the same BlowUpError for a state past 1e6, or not
    finite (max|v| = nan), before it is copied, so no row or observer holds
    it.  So a failed step or record is one of these two kinds of StepError,
    built with its time t; every other error integrate raises is a
    ConfigurationError on its inputs or plan, raised before the first step,
    or the observer's own error, as it raised it.  The earliest record's
    error wins, since a block is observed before the next step.

    With E = exp(sym h/2) the step is
        K1 = N(V), K2 = N(E V + (h/2) E K1), K3 = N(E V + (h/2) K2),
        K4 = N(E^2 V + h E K3),
        V <- E^2 V + (h/6) E^2 K1 + (h/3) E (K2 + K3) + (h/6) K4.
    """
    eq = spec.equation
    C = len(eq.alphas)
    fields = tuple(init) if isinstance(init, (tuple, list)) else (init,)
    if len(fields) != C or not all(isinstance(f, SpectralField) for f in fields):
        wanted = "one SpectralField" if C == 1 else "a pair of initial fields"
        raise ConfigurationError(f"{C}-component flow needs {wanted}")
    grid = fields[0].grid
    if any(f.grid != grid for f in fields):
        raise ConfigurationError("coupled components must share one grid")

    plan = plan_run(spec, fields, keeps_band=observe is None)
    n_rec, h = plan.n_rec, plan.h
    times = np.linspace(0.0, spec.t_end, n_rec + 1)

    # the state holds the band k = 0..N/4 of each component, updated in place
    band = grid.band
    sym = np.stack([linear_symbol(grid, eq.m, alpha) for alpha in eq.alphas])
    V = np.stack([f.spectrum[:band] for f in fields])
    evaluate, w = nonlinear_term(eq, grid)

    # every factor is an array of the state's shape (see the module docstring)
    E = np.exp(sym * (h / 2.0))
    E2 = E * E
    hE_2 = (h / 2.0) * E
    hE = h * E
    hE_3 = (h / 3.0) * E
    h_2 = np.full_like(V, h / 2.0)
    hE2_6_h_6 = np.stack([(h / 6.0) * E2, np.full_like(V, h / 6.0)])
    X, EV, E2V, K2, K3 = (np.empty_like(V) for _ in range(5))
    K1_K4 = np.empty_like(hE2_6_h_6)
    K1, K4 = K1_K4
    abs_w = np.empty_like(w)
    multiply, add, absolute, peak_of = np.multiply, np.add, np.absolute, np.maximum.reduce

    dt = spec.dt
    guard_num = 0.5 * grid.dx
    guard_den = max((d.sup for d in eq.dampings), default=0.0) + 1.0

    # observed, the block's rows or the observer's, is made at the first block
    observed, block = None, np.empty((min(RECORD_BLOCK, n_rec + 1), C, band), dtype=complex)

    def record(r: int, t: float) -> None:
        nonlocal observed
        # the cap check of every record, the last too, before any row holds
        # it: as 2 sum|V_k| >= max|v|, only a state past that bound is
        # transformed, and one not finite has peak nan
        with np.errstate(over="ignore", invalid="ignore"):
            if not 2.0 * absolute(V).sum() <= BLOWUP_LIMIT:
                peak = np.abs(spectral.irfft_into(V, w)).max()
                if not peak <= BLOWUP_LIMIT:
                    raise _step_error(peak, dt, guard_num, t)
        i = r % len(block)
        block[i] = V
        if i == len(block) - 1 or r == n_rec:
            start, view = r - i, block[: i + 1]
            view.flags.writeable = False
            rows = view if observe is None else np.asarray(observe(RecordedStates(view, grid), times[start : r + 1]))
            if observed is None and rows.ndim > 0 and len(rows) == i + 1:
                observed = np.empty((n_rec + 1,) + rows.shape[1:], dtype=rows.dtype)
            shape = None if observed is None else (i + 1,) + observed.shape[1:]
            if rows.shape != shape or not np.can_cast(rows.dtype, observed.dtype, "same_kind"):
                first = "" if shape is None else f" shaped {shape[1:]} of {observed.dtype} as the first block's"
                got = f"got shape {rows.shape} of {rows.dtype}"
                raise ValueError(f"an observer returns one row per state: {i + 1}{first}, {got}")
            observed[start : r + 1] = rows

    record(0, 0.0)
    step = 0
    for r in range(1, n_rec + 1):
        for _ in range(spec.record_every):
            evaluate(V, K1)
            peak = float(peak_of(absolute(w, abs_w), axis=None))
            guard = guard_num / (peak * peak + guard_den)
            if not peak <= BLOWUP_LIMIT or dt > guard * (1.0 + 1e-12):
                raise _step_error(peak, dt, guard, step * h)
            multiply(E, V, EV)
            multiply(hE_2, K1, X)
            add(X, EV, X)
            evaluate(X, K2)
            multiply(h_2, K2, X)
            add(X, EV, X)
            evaluate(X, K3)
            multiply(E2, V, E2V)
            multiply(hE, K3, X)
            add(X, E2V, X)
            evaluate(X, K4)
            # the increments are summed before they meet E^2 V: one
            # rounding at the size of the state per step
            add(K2, K3, K2)
            multiply(K2, hE_3, K2)
            multiply(K1_K4, hE2_6_h_6, K1_K4)
            add(K1, K2, K1)
            add(K1, K4, K1)
            add(E2V, K1, V)
            step += 1
        record(r, step * h)
    observed.flags.writeable = False
    # the last record is V: its state, read once here
    final = RecordedStates(V[None], grid)[0]
    states = RecordedStates(observed, grid) if observe is None else None
    return Trajectory(times=times, observed=observed, final=final, spec=spec, plan=plan, states=states)


# ---------------------------------------------------------------------------
# exact solutions
# ---------------------------------------------------------------------------

PEAK_FACTOR = math.sqrt(6.0)


def sech(amplitude: float, width: float, center: float, grid: Grid) -> SpectralField:
    """The profile amplitude * sech((x - center) / width).

    Its transform decays like exp(-pi width |xi| / 2), so its analyticity
    radius is pi*width/2.  Requires 0 < N amplitude < inf, which bounds the
    unnormalised transform, a positive width, the center in [0, L], and a
    width and tail that the grid resolves (see _check_profile).
    """
    if not 0 < grid.N * amplitude < math.inf:
        raise ConfigurationError(f"sech amplitude must be positive and N times it finite, got {amplitude}", "amplitude")
    if not 0 < width < math.inf:
        raise ConfigurationError(f"sech width must be positive and finite, got {width}", "width")
    if not 0.0 <= center <= grid.L:
        raise ConfigurationError(f"sech center {center} outside the domain [0, {grid.L}]", "center")
    _check_profile("sech", center, width, grid, "enlarge L, narrow the width, or recenter", ("center", "width"))
    r = np.minimum(np.abs(grid.x - center) / width, 700.0)
    return analyze(amplitude / np.cosh(r), grid)


def _check_profile(name: str, center: float, width: float, grid: Grid, advice: str, keys: tuple) -> None:
    """Reject a sech profile keyed to keys[1], its width, if a node dx from its peak holds
    below 1e-12 of it (sech(dx/width) < 1e-12, tested with no divide); else one whose edge
    value is not below 1e-12 of its peak, keyed to keys[0], its center, where centring at
    L/2 clears the bound, else to keys[1]."""
    if width * math.acosh(1e12) < grid.dx:
        message = f"{name} width {width:.3g} is below dx/acosh(1e12), dx = grid.L/grid.N = {grid.dx:.3g}"
        raise ConfigurationError(f"{message}: raise grid.N or lower grid.L", keys[1])
    ratio, mid = (1.0 / np.cosh(min(min(c, grid.L - c) / width, 700.0)) for c in (center, grid.L / 2.0))
    if ratio >= 1e-12:
        message = f"{name} tail at the domain edge is {ratio:.3e} of the peak (>= 1e-12); {advice}"
        raise ConfigurationError(message, keys[0] if mid < 1e-12 else keys[1])


def soliton(k: float, x0: float, grid: Grid) -> tuple[SpectralField, float]:
    """Traveling-wave solution sqrt(6) k sech(k (x - x0)) of focusing mKdV.

    Returns (field, speed) with speed = k^2: u(x - speed*t) solves
    u_t + u_xxx + u^2 u_x = 0.  The field is sech(sqrt(6) k, 1/k, x0, grid),
    with that function's checks stated in k and x0, the finite N sqrt(6) k
    among them; its analyticity radius is pi/(2k).
    """
    if not 0 < k < math.inf:
        raise ConfigurationError(f"soliton width parameter must be positive and finite, got k={k}", "k")
    if not grid.N * PEAK_FACTOR * k < math.inf:
        raise ConfigurationError(f"soliton N sqrt(6) k must be finite, got k={k}", "k")
    if not 0.0 <= x0 <= grid.L:
        raise ConfigurationError(f"soliton center outside the domain [0, {grid.L}], got x0={x0}", "x0")
    _check_profile("soliton", x0, 1.0 / k, grid, "enlarge L, raise k, or recenter x0", ("x0", "k"))
    return sech(PEAK_FACTOR * k, 1.0 / k, x0, grid), k * k
