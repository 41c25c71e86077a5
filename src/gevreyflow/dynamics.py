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
the coupled pair.  So one type, Equation(mu, m, alphas, dampings,
nonlinear), states every flow: its only per-flow data are m, the ratios
alphas, the damping profiles, none or one per component, and the cubic
term's switch; EvolutionSpec adds only the time grid.  A damping profile
checks its (A1) floor itself, and its closed form is its (A2)
certificate, so no transform runs outside the step loop.

Integration is classical RK4 in the integrating-factor frame: the stiff
dispersive part is propagated exactly by the unimodular symbol
exp(i xi^m t) and RK4 only sees the nonlinear + damping terms.

Every flow is stepped as a stack of C = len(alphas) components, 1 or 2,
through one rhs and one RK4 loop.  States live in the dealiased band
|k| <= N/4 (the 1/2 rule; initial data is projected into it), and the
loop holds only that band of the package's half spectrum: k = 0..N/4 of
each real component, shape (C, N/4+1).  A record checks that the state is
finite and copies it into its row of one block of at most RECORD_BLOCK
rows, made before the loop.  Whenever the block fills, and at the last
record, integrate hands it, read-only, to the call's observer as a
RecordedStates view with its record times, and keeps only what the
observer returns: one row per state, joined in record order into one
array.  So a run holds one block of states at a time, whatever its
record count.  The default observer returns the band rows themselves,
and Trajectory.states reads them: each read pads one row with zeros to
the half k = 0..N/2 and builds its field, so no state is kept in the
full half.

nonlinear_term builds the one implementation of the non-dispersive rhs:
integrate runs it, and the tests call it.  It writes every cubic term in
conservative form, (mu/3)(v^3)_x for one component and mu (w1 w2^2)_x,
mu (w1^2 w2)_x for the pair, and differentiates the product in Fourier
space.  One batched irfft of the band (zero-padded to N points) and one
batched rfft of the products per evaluation make 8 transforms per RK4 step
for every flow: 2 N-point rows per evaluation for undamped mKdV, 3 with
damping, 6 for the pair.  The products are exact convolutions at every
k < N/4; the only aliased contribution in the band is the (K, K, K)
triple, K = N/4, which lands on +-K.

At N = 512 a numpy call costs more than the arithmetic it does: the 8
transforms are most of a step, and the rest of it is the fixed cost of
about 30 small calls.  So the step loop keeps one rule: one call per
operation, array operands only, out passed positionally, and no
allocation per step.  The two transforms of each evaluation are
spectral.irfft_into and rfft_into, the package's only transforms: numpy's
pocketfft kernels, called without numpy.fft's Python wrapper, with
bit-identical results, and given their unit factor as a read-only 0-d
array.  Every other operation is one ufunc call, np.multiply or np.add,
that writes into a buffer allocated once per integrate call; the state is
updated in place, and each record copies it into its block row.  The
RK4 weights, the rhs minus sign, mu and the 1/N of the forward transform
are folded into factors built before the loop, each an array with a
leading axis of length 1 or C, the shape of the rows it multiplies.  On a
2-core x86 machine, on (1, 129) complex rows, a multiply by a Python float
took 0.66 us and the same multiply by an array 0.40 us (numpy casts the
float to complex128 either way, so the products are the same); out given
positionally saved a further 0.07 us per call (median of 31 alternating
repeats), and the array factor about 0.5 us per N = 512 transform against
the float 1.0, which each call converted.  The blow-up check's max|w|,
one np.absolute into a buffer and one np.maximum.reduce, took 1.47 us
against 1.57 us for np.abs(w).max().  Two
factors that meet the same operand are stacked where that saves a call
with no broadcast: K1 and K4 are adjacent rows, scaled by (h/6) E^2 and
h/6 in one multiply.  E V and E^2 V stay two calls, because one multiply
of the stack (E, E^2) by a broadcast V measured about 1% slower per step.
A record makes no transform: a state's samples are one irfft, made only
when something reads them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .errors import BlowUpError, ConfigurationError, DtGuardError, StepError
from .spectral import Grid, SpectralField, analyze, synthesize

BLOWUP_LIMIT = 1e6
# rows of integrate's record block: the states a run holds at a time
RECORD_BLOCK = 64


# ---------------------------------------------------------------------------
# damping profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RaisedCosineDamping:
    """a(x) = floor + amplitude * (1 + cos(2 pi x / length)).  Its closed
    form is its certificate, so construction checks only the inputs: (A1),
    amplitude >= 0 and a positive, finite length.

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
        if not 0 <= self.amplitude < math.inf:
            raise ConfigurationError(f"damping amplitude must be >= 0 and finite, got {self.amplitude}", "amplitude")
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
        if self.record_every < 1:
            raise ConfigurationError(f"record_every must be >= 1, got {self.record_every}", "record_every")


class RecordedStates(Sequence):
    """The recorded states of a trajectory, as a read-only sequence over
    band, the (R, C, N/4+1) array of their band rows.  Item r pads row r
    with zeros to the half spectrum k = 0..N/2 and returns its field from
    synthesize, or a pair of them for C = 2, built on each read and not
    kept.  A slice is the same kind of view over fewer rows, with no state
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
        states = tuple(synthesize(H, self.grid) for H in half)
        return states if len(states) > 1 else states[0]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded states at uniform cadence; times[0] = 0, last = t_end.
    observed holds the observer's rows, one per record, read-only; final
    is the state at t_end.  states is a RecordedStates view over observed
    where the default observer kept the band rows, else None, so each read
    builds its state.  Two trajectories are equal only when they are the
    same object."""

    times: np.ndarray = field(repr=False)
    observed: np.ndarray = field(repr=False)
    final: SpectralField | tuple
    spec: EvolutionSpec  # the benchmark's tracer (bench/tracer.py) counts steps from it
    step_size: float
    states: RecordedStates | None = field(default=None, repr=False)


def _band_rows(states: RecordedStates, times: np.ndarray) -> np.ndarray:
    """integrate's default observer: each recorded state's band rows, which
    Trajectory.states reads."""
    return states.band


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------


def linear_symbol(grid: Grid, m: int, alpha: float = 1.0) -> np.ndarray:
    """i * alpha * xi^m with the Nyquist mode zeroed (odd symbol)."""
    sym = 1j * alpha * grid.xi**m
    sym[grid.nyquist_index] = 0.0
    return sym


def nonlinear_term(eq: Equation, grid: Grid):
    """Build the non-dispersive part N(V) of the rhs, on the dealiased band:
    the one rhs, which integrate runs.

    Returns (evaluate, samples).  V holds the modes k = 0..N/4 of each
    component's state (the band |k| <= N/4 of the rfft half): shape
    (C, N/4+1), C = len(eq.alphas).  evaluate(V, out) writes N(V), in the
    same layout, into out and the (C, N) samples w of V into samples, which
    the next call overwrites; it checks nothing, and integrate reads samples
    for the blow-up check before the next call.  An equation with
    nonlinear=False has no cubic terms.

    Every cubic term is in conservative form and differentiated in Fourier
    space.  One irfft of V (zero-padded to N points) gives the rows w_c.
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

    The scratch arrays are allocated once, here, and the transforms and
    ufuncs write into them, given as their positional out.
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


def _plan_steps(spec: EvolutionSpec) -> tuple[int, int, float]:
    """Choose (n_records, n_steps, h) so the trajectory lands exactly on
    t_end with h <= dt and records every record_every steps."""
    per_record = spec.dt * spec.record_every
    n_rec = max(1, math.ceil(spec.t_end / per_record - 1e-9))
    n_steps = n_rec * spec.record_every
    return n_rec, n_steps, spec.t_end / n_steps


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

    The C = len(eq.alphas) components of the equation are stepped as one
    (C, N/4+1) stack, every flow through the same loop and the one rhs
    that nonlinear_term builds.  The initial state is projected into the
    dealiased band, and the loop holds only the modes k = 0..N/4.  A
    record copies that band into its row of one block of at most
    RECORD_BLOCK rows.  Whenever the block fills, and at the last record,
    observe(states, times) is called with the block's states, a read-only
    RecordedStates view, and their record times; it returns an array with
    one leading row per state, which integrate copies into
    Trajectory.observed in record order, and it must not keep the view,
    which the next block overwrites.  The default observer keeps the band
    rows, which Trajectory.states reads.  At the start of every step, from
    the peak max|w| of the samples the first rhs evaluation makes: abort
    with BlowUpError once the peak passes 1e6, and raise DtGuardError,
    keyed dt, once dt exceeds the advective guard 0.5 dx / (peak^2 +
    sup a + 1).  A record raises the same BlowUpError, with max|v| = nan,
    for a state that is not finite, as the initial one or one from the
    last step may be, before it enters the block, so no observer sees it.
    So a failed step or record is one of these two kinds of StepError,
    built with its time t; every other error integrate raises is a
    ConfigurationError on its inputs, raised before the first step, or an
    error of the observer, which passes through as itself.

    With E = exp(sym h/2) the step is
        K1 = N(V), K2 = N(E V + (h/2) E K1), K3 = N(E V + (h/2) K2),
        K4 = N(E^2 V + h E K3),
        V <- E^2 V + (h/6) E^2 K1 + (h/3) E (K2 + K3) + (h/6) K4,
    with every factor built once before the loop and every intermediate
    in a buffer allocated once per call.
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

    n_rec, n_steps, h = _plan_steps(spec)
    times = np.linspace(0.0, spec.t_end, n_rec + 1)

    # the state holds the band k = 0..N/4 of each component, updated in place
    band = grid.band
    sym = np.stack([linear_symbol(grid, eq.m, alpha)[:band] for alpha in eq.alphas])
    V = np.stack([f.spectrum[:band] for f in fields])
    evaluate, w = nonlinear_term(eq, grid)

    # every factor is an array of the state's shape, h/2 and h/6 too (see
    # the module docstring); K1 and K4 are adjacent rows, scaled by
    # (h/6) E^2 and h/6 in one call
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

    # one block of record rows, handed to the observer whenever it fills;
    # observed, the rows the observer returns, is made at the first block
    block = np.empty((min(RECORD_BLOCK, n_rec + 1), C, band), dtype=complex)
    observed = None

    def record(r: int, t: float) -> None:
        # the check of the step after a record comes after it, and the
        # last record has no step after it
        if not np.isfinite(V).all():
            raise _step_error(math.nan, dt, guard_num, t)
        i = r % len(block)
        block[i] = V
        if i == len(block) - 1 or r == n_rec:
            flush(r - i, r + 1)

    def flush(start: int, stop: int) -> None:
        nonlocal observed
        view = block[: stop - start]
        view.flags.writeable = False
        rows = np.asarray((observe or _band_rows)(RecordedStates(view, grid), times[start:stop]))
        if rows.ndim == 0 or len(rows) != stop - start:
            raise ValueError(f"an observer returns one row per state: {stop - start}, got shape {rows.shape}")
        if observed is None:
            observed = np.empty((n_rec + 1,) + rows.shape[1:], dtype=rows.dtype)
        observed[start:stop] = rows

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
            # the increments are summed before they meet E^2 V: one rounding
            # at the size of the state per step
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
    return Trajectory(times=times, observed=observed, final=final, spec=spec, step_size=h, states=states)


# ---------------------------------------------------------------------------
# exact solutions
# ---------------------------------------------------------------------------

PEAK_FACTOR = math.sqrt(6.0)


def sech(amplitude: float, width: float, center: float, grid: Grid) -> SpectralField:
    """The profile amplitude * sech((x - center) / width).

    Its transform decays like exp(-pi width |xi| / 2), so its analyticity
    radius is pi*width/2.  Requires a positive amplitude and width, the
    center in [0, L], and the profile far enough from the wrap-around
    point that its value at the domain edge is below 1e-12 of the peak.
    """
    if not 0 < amplitude < math.inf:
        raise ConfigurationError(f"sech amplitude must be positive and finite, got {amplitude}", "amplitude")
    if not 0 < width < math.inf:
        raise ConfigurationError(f"sech width must be positive and finite, got {width}", "width")
    if not 0.0 <= center <= grid.L:
        raise ConfigurationError(f"sech center {center} outside the domain [0, {grid.L}]", "center")
    _check_edge_tail("sech", center, width, grid, "enlarge L, narrow the width, or recenter", ("center", "width"))
    r = np.minimum(np.abs(grid.x - center) / width, 700.0)
    return analyze(amplitude / np.cosh(r), grid)


def _check_edge_tail(name: str, center: float, width: float, grid: Grid, advice: str, keys: tuple) -> None:
    """Reject a sech profile whose edge value is not below 1e-12 of its peak, keyed to
    keys[0], its center, where centring at L/2 clears the bound, else to keys[1], its width."""
    ratio, mid = (1.0 / np.cosh(min(min(c, grid.L - c) / width, 700.0)) for c in (center, grid.L / 2.0))
    if ratio >= 1e-12:
        message = f"{name} tail at the domain edge is {ratio:.3e} of the peak (>= 1e-12); {advice}"
        raise ConfigurationError(message, keys[0] if mid < 1e-12 else keys[1])


def soliton(k: float, x0: float, grid: Grid) -> tuple[SpectralField, float]:
    """Traveling-wave solution sqrt(6) k sech(k (x - x0)) of focusing mKdV.

    Returns (field, speed) with speed = k^2: u(x - speed*t) solves
    u_t + u_xxx + u^2 u_x = 0.  The field is sech(sqrt(6) k, 1/k, x0, grid),
    with that function's checks stated in k and x0, the finite peak
    sqrt(6) k among them; its analyticity radius is pi/(2k).
    """
    if not 0 < k < math.inf:
        raise ConfigurationError(f"soliton width parameter must be positive and finite, got k={k}", "k")
    if not PEAK_FACTOR * k < math.inf:
        raise ConfigurationError(f"soliton peak sqrt(6) k must be finite, got k={k}", "k")
    if not 0.0 <= x0 <= grid.L:
        raise ConfigurationError(f"soliton center outside the domain [0, {grid.L}], got x0={x0}", "x0")
    _check_edge_tail("soliton", x0, 1.0 / k, grid, "enlarge L, raise k, or recenter x0", ("x0", "k"))
    return sech(PEAK_FACTOR * k, 1.0 / k, x0, grid), k * k
