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
the coupled pair.  So one type, Equation(mu, m, alphas, dampings), states
every flow: its only per-flow data are m, the ratios alphas and the damping
profiles, none or one per component.  A damping profile's closed form is
its (A2) certificate, and no transform runs outside the step loop.

Integration is classical RK4 in the integrating-factor frame: the stiff
dispersive part is propagated exactly by the unimodular symbol
exp(i xi^m t) and RK4 only sees the nonlinear + damping terms.

Every flow is stepped as a stack of C = len(alphas) components, 1 or 2,
through one rhs and one RK4 loop.  States live in the dealiased band
|k| <= N/4 (the 1/2 rule; initial data is projected into it), and the
loop holds only that band of the package's half spectrum: k = 0..N/4 of
each real component, shape (C, N/4+1).  Each recorded state is the band
padded with zeros to the half k = 0..N/2.

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
about 30 small calls.  So the step loop keeps one rule: one out= call per
operation, array operands only, and no allocation per step.  The two
transforms of each evaluation are spectral.irfft_into and rfft_into:
numpy's pocketfft kernels, bound once in spectral at import and called
without numpy.fft's Python wrapper, with bit-identical results (the public
numpy.fft functions where that private module is missing).  Every other
operation is one ufunc call, np.multiply or np.add, that writes through
out= into a buffer allocated once per integrate call; the state is
updated in place, and synthesize copies it into each recorded state.  The
RK4 weights, the rhs minus sign, mu and the 1/N of the forward transform
are folded into factors built before the loop, each an array with a
leading axis of length 1 or C, the shape of the rows it multiplies.  On a
2-core x86 machine, on (1, 129) complex rows, a multiply by a Python float
took 0.66 us and the same multiply by an array 0.40 us (numpy casts the
float to complex128 either way, so the products are the same); the
blow-up check's max|w|, one np.absolute into a buffer and one
np.maximum.reduce, took 1.47 us against 1.57 us for np.abs(w).max().  Two
factors that meet the same operand are stacked where that saves a call
with no broadcast: K1 and K4 are adjacent rows, scaled by (h/6) E^2 and
h/6 in one multiply.  E V and E^2 V stay two calls, because one multiply
of the stack (E, E^2) by a broadcast V measured about 1% slower per step.
A record makes no transform: its samples are one irfft, made only when
something reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .errors import ConfigurationError, DivergenceError
from .spectral import Grid, SpectralField, analyze, dealias, synthesize

BLOWUP_LIMIT = 1e6


# ---------------------------------------------------------------------------
# damping profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RaisedCosineDamping:
    """a(x) = floor + amplitude * (1 + cos(2 pi x / length)), amplitude >= 0.

    Smooth, periodic, bounded below by floor exactly (the cosine reaches -1
    at x = length/2).  Derivatives obey the factorial-free bound
    sup|d^k a| = amplitude * (2 pi / length)^k for k >= 1, which certifies
    the coefficients (floor + 2*amplitude, 2 pi / length) for the
    C * R^k * k! growth condition; at amplitude 0 every derivative
    vanishes, and the rate is 0.

    amplitude = 0 is the constant damping a = floor.  It is not
    square-integrable on the full line; it is admitted on the torus as an
    oracle because it turns the L2 decay bound into the exact equality
    ||v(t)|| = exp(-floor*t)||v0|| when the nonlinearity is off.
    """

    floor: float
    amplitude: float
    length: float

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


def make_damping(form: str, floor: float, amplitude: float, grid: Grid, sigma0: float) -> RaisedCosineDamping:
    """The RaisedCosineDamping on the grid's domain ("constant" is its
    amplitude 0, and takes only amplitude 0).  Its closed form is its
    certificate for (A1)-(A3), so only the inputs and (A3) are checked:

    (A1) min a = floor > 0, reached at x = length/2, a node of every even-N grid.
    (A2) sup|d^k a| = amplitude R^k <= C R^k k! for every k >= 1, with
         (C, R) = (floor + 2*amplitude, 2 pi/length) and R = 0 at amplitude 0,
         because floor > 0 and k! >= 1.
    (A3) R < 1/sigma0.
    """
    if floor <= 0:
        raise ConfigurationError(f"damping floor must be positive (A1), got {floor}")
    if sigma0 < 0:
        raise ConfigurationError(f"sigma0 must be >= 0, got {sigma0}")
    if form == "constant":
        if amplitude != 0:
            raise ConfigurationError(f"constant damping takes amplitude = 0, got {amplitude}")
    elif form == "raised_cosine":
        if amplitude < 0:
            raise ConfigurationError(f"raised-cosine amplitude must be >= 0, got {amplitude}")
    else:
        raise ConfigurationError(f"unknown damping form {form!r}")
    profile = RaisedCosineDamping(floor, amplitude, grid.L)

    R = profile.deriv_bound_rate
    if sigma0 > 0 and R >= 1.0 / sigma0:
        raise ConfigurationError(
            f"(A3) violated: derivative rate R = {R:.6g} must be < 1/sigma0 = {1.0 / sigma0:.6g}"
        )
    return profile


# ---------------------------------------------------------------------------
# evolution specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Equation:
    """One flow: mu = +1 focusing, -1 defocusing; odd order m >= 3; one
    dispersion ratio per component, (1,) or (1, alpha) with alpha in (0, 1);
    no damping or one profile per component.  Equation(mu) is mKdV,
    Equation(mu, m, dampings=(a,)) the damped flow (m = 3 only as a
    cross-check), Equation(mu, alphas=(1.0, alpha), dampings=(a1, a2)) the
    coupled pair."""

    mu: int
    m: int = 3
    alphas: tuple = (1.0,)
    dampings: tuple = ()

    def __post_init__(self):
        if self.mu not in (-1, 1):
            raise ConfigurationError(f"mu must be +-1, got {self.mu}")
        if self.m < 3 or self.m % 2 == 0:
            raise ConfigurationError(f"order must be odd and >= 3, got m={self.m}")
        if not 1 <= len(self.alphas) <= 2 or self.alphas[0] != 1.0:
            raise ConfigurationError(f"dispersion ratios must be (1,) or (1, alpha), got {self.alphas}")
        if len(self.alphas) == 2 and not 0.0 < self.alphas[1] < 1.0:
            raise ConfigurationError(f"dispersion ratio must lie in (0, 1), got alpha={self.alphas[1]}")
        if self.dampings and len(self.dampings) != len(self.alphas):
            raise ConfigurationError(
                f"need no damping or one profile per component ({len(self.alphas)}), got {len(self.dampings)}"
            )


@dataclass(frozen=True)
class EvolutionSpec:
    """What to integrate and how: equation, step, horizon, record cadence.

    nonlinear is the config key equation.nonlinear; False drops the cubic
    term, and the flow becomes the exactly solvable linear (damped linear)
    equation.
    """

    equation: Equation
    dt: float
    t_end: float
    record_every: int
    nonlinear: bool = True

    def __post_init__(self):
        if self.dt <= 0 or not np.isfinite(self.dt):
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if self.t_end <= 0 or not np.isfinite(self.t_end):
            raise ConfigurationError(f"t_end must be positive, got {self.t_end}")
        if self.record_every < 1:
            raise ConfigurationError(f"record_every must be >= 1, got {self.record_every}")


@dataclass(frozen=True)
class Trajectory:
    """Recorded states at uniform cadence; times[0] = 0, last = t_end."""

    times: np.ndarray = field(repr=False)
    states: tuple
    spec: EvolutionSpec  # the benchmark's tracer (bench/tracer.py) counts steps from it
    step_size: float

    @property
    def final(self):
        return self.states[-1]


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------


def linear_symbol(grid: Grid, m: int, alpha: float = 1.0) -> np.ndarray:
    """i * alpha * xi^m with the Nyquist mode zeroed (odd symbol)."""
    sym = 1j * alpha * grid.xi**m
    sym[grid.nyquist_index] = 0.0
    return sym


def nonlinear_term(eq: Equation, grid: Grid, nonlinear: bool = True):
    """Build the non-dispersive part N(V) of the rhs, on the dealiased band:
    the one rhs, which integrate runs.

    Returns (evaluate, samples).  V holds the modes k = 0..N/4 of each
    component's state (the band |k| <= N/4 of the rfft half): shape
    (C, N/4+1), C = len(eq.alphas).  evaluate(V, out) writes N(V), in the
    same layout, into out and the (C, N) samples w of V into samples, which
    the next call overwrites; it checks nothing, and integrate reads samples
    for the blow-up check before the next call.  nonlinear=False drops the
    cubic terms.

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
    ufuncs write into them through out=.
    """
    N, band = grid.N, grid.band
    C = len(eq.alphas)
    mu = eq.mu if nonlinear else 0
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
    # numpy's pocketfft kernels (see spectral), looked up once per build
    irfft_into, rfft_into = spectral.irfft_into, spectral.rfft_into
    multiply, add = np.multiply, np.add

    def evaluate(V, out):
        irfft_into(V, samples)
        multiply(first, last, out=pair)
        multiply(pair, flipped, out=cubic)
        if damped:
            multiply(neg_a, samples, out=neg_aw)
        rfft_into(rows, P)
        multiply(dx, cubic_band, out=out)
        if damped:
            add(out, damp_band, out=out)

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


def _step_error(peak: float, dt: float, guard: float, t: float) -> Exception:
    """The blow-up or dt-guard error of the step at time t, with t as err.t."""
    if not peak <= BLOWUP_LIMIT:
        err = DivergenceError(f"blow-up abort at t = {t:.6g}: max|v| = {peak:.3e} exceeds {BLOWUP_LIMIT:.0e}")
    else:
        err = ConfigurationError(
            f"dt = {dt:.6g} exceeds the advective guard 0.5*dx/(max|u|^2 + sup a + 1) = {guard:.6g} at t = {t:.6g}"
        )
    err.t = t
    return err


def integrate(spec: EvolutionSpec, init) -> Trajectory:
    """Run the flow from init: one SpectralField, or a pair of them for a
    two-component equation.

    The C = len(eq.alphas) components of the equation are stepped as one
    (C, N/4+1) stack, every flow through the same loop and the one rhs
    that nonlinear_term builds.  The initial state is projected into the
    dealiased band, and the loop holds only the modes k = 0..N/4; every
    recorded state (a field, or a pair for C = 2) is that band padded with
    zeros to the half spectrum.  At the start of every step, from the peak
    max|w| of the samples the first rhs evaluation makes: abort with
    DivergenceError once the peak passes 1e6, and raise ConfigurationError
    once dt exceeds the advective guard 0.5 dx / (peak^2 + sup a + 1).
    Both errors carry that time as err.t.

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
    V = np.stack([dealias(f).spectrum[:band] for f in fields])
    evaluate, w = nonlinear_term(eq, grid, spec.nonlinear)

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

    # a record pads the band into a half spectrum whose modes k > N/4 stay
    # zero; synthesize copies it, so the record does not follow later steps
    half = np.zeros((C, grid.xi.size), dtype=complex)

    def record():
        half[:, :band] = V
        states = tuple(synthesize(H, grid) for H in half)
        return states if C > 1 else states[0]

    states = [record()]
    step = 0
    for _ in range(n_rec):
        for _ in range(spec.record_every):
            evaluate(V, K1)
            peak = float(peak_of(absolute(w, out=abs_w), axis=None))
            guard = guard_num / (peak * peak + guard_den)
            if not peak <= BLOWUP_LIMIT or dt > guard * (1.0 + 1e-12):
                raise _step_error(peak, dt, guard, step * h)
            multiply(E, V, out=EV)
            multiply(hE_2, K1, out=X)
            add(X, EV, out=X)
            evaluate(X, K2)
            multiply(h_2, K2, out=X)
            add(X, EV, out=X)
            evaluate(X, K3)
            multiply(E2, V, out=E2V)
            multiply(hE, K3, out=X)
            add(X, E2V, out=X)
            evaluate(X, K4)
            # the increments are summed before they meet E^2 V: one rounding
            # at the size of the state per step
            add(K2, K3, out=K2)
            multiply(K2, hE_3, out=K2)
            multiply(K1_K4, hE2_6_h_6, out=K1_K4)
            add(K1, K2, out=K1)
            add(K1, K4, out=K1)
            add(E2V, K1, out=V)
            step += 1
        states.append(record())
    return Trajectory(times=times, states=tuple(states), spec=spec, step_size=h)


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
    if amplitude <= 0:
        raise ConfigurationError(f"sech amplitude must be positive, got {amplitude}")
    if width <= 0:
        raise ConfigurationError(f"sech width must be positive, got {width}")
    if not 0.0 <= center <= grid.L:
        raise ConfigurationError(f"sech center {center} outside the domain [0, {grid.L}]")
    edge = min(center, grid.L - center)
    ratio = 1.0 / np.cosh(min(edge / width, 700.0))
    if ratio >= 1e-12:
        raise ConfigurationError(
            f"sech tail at the domain edge is {ratio:.3e} of the peak (>= 1e-12); "
            "enlarge L, narrow the width, or recenter"
        )
    r = np.minimum(np.abs(grid.x - center) / width, 700.0)
    return analyze(amplitude / np.cosh(r), grid)


def soliton(k: float, x0: float, grid: Grid) -> tuple[SpectralField, float]:
    """Traveling-wave solution sqrt(6) k sech(k (x - x0)) of focusing mKdV.

    Returns (field, speed) with speed = k^2: u(x - speed*t) solves
    u_t + u_xxx + u^2 u_x = 0.  The field is sech(sqrt(6) k, 1/k, x0, grid),
    with that function's domain and edge-tail checks; its analyticity
    radius is pi/(2k).
    """
    if k <= 0:
        raise ConfigurationError(f"soliton width parameter must be positive, got k={k}")
    return sech(PEAK_FACTOR * k, 1.0 / k, x0, grid), k * k
