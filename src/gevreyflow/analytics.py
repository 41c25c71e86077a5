"""Weighted norms, almost-conserved energies, the sigma = 0 mass-rate
identity, index/threshold formulas, and the analyticity-radius estimator.

Conventions shared with the rest of the package: fields are real and
periodic with DFT coefficients F_k = (1/N) sum f_j exp(-i xi_k x_j), of
which the half k = 0..N/2 is stored.  Every sum over modes runs over that
half with the multiplicity weights w = (1, 2, ..., 2, 1) of the grid, so
L * sum_k w_k |F_k|^2 is the integral of f^2.  The bracket weight is
1 + |xi| (not the (1+xi^2)^(1/2) variant).

One path, _weighted_spectra, gives the weighted half spectra
U = cosh(sigma D) u, with spectral.noise_floor and spectral.cosh_weight.
hsigma_norm, functional_M and functional_A all read it, so each takes one
state or R states on one grid and one radius or P of them, and returns a
float, (P,), (R,) or (R, P).

Quadrature: quartic/sextic/product integrals are trapezoid sums on a
2x-refined grid (zero-padded irfft of the half spectrum).  States produced
by the integrator are band-limited to |k| <= N/4, so their sixth powers
have bandwidth 3N/2 < 2N and these sums are exact, not approximate.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dynamics import RaisedCosineDamping
from .errors import (
    ConfigurationError,
    DivergenceError,
    OverflowGuardError,
    UnderresolvedError,
)
from .spectral import (
    Grid,
    SpectralField,
    apply_weight,
    cosh_weight,
    noise_floor,
    pad_spectrum,
)

# terms of damping_A_norm summed exactly; its tail bound closes the rest
_NORM_TERMS = 40
# relative magnitude above which a mode enters radius_estimate's fit, far
# above spectral.noise_floor (1e-13 of the peak)
_FIT_FLOOR = 1e-8


# ---------------------------------------------------------------------------
# the cosh-weighted half spectra, and the norms read off them
# ---------------------------------------------------------------------------


def _weighted_spectra(u: SpectralField | Sequence[SpectralField], sigma: float | np.ndarray):
    """(grid, (R, P), shaped, blocks) for the states u and the radii sigma:
    blocks yields each state's floored half spectrum times each weight, as
    one (P, N/2+1) buffer that the next state overwrites, and shaped drops
    the axis of a single field and of a float sigma from an (R, P) result."""
    sigmas = np.asarray(sigma, dtype=float)
    if sigmas.ndim > 1 or sigmas.size == 0:
        raise ConfigurationError(f"sigma must be a float or a nonempty 1-D array, got shape {sigmas.shape}")
    single = isinstance(u, SpectralField)
    states = (u,) if single else tuple(u)
    if not states:
        raise ConfigurationError("a weighted norm needs at least one state")
    g = states[0].grid
    if any(s.grid != g for s in states):
        raise ConfigurationError("the states of a weighted norm must share one grid")
    weights = [cosh_weight(g, s) for s in np.atleast_1d(sigmas).tolist()]
    W = np.stack([w for w, _ in weights])
    U = np.empty(W.shape, dtype=complex)
    # rows whose weight takes the log-space path are redone by apply_weight
    logged = [(row, weight) for row, weight in zip(U, weights) if weight[1] is not None]

    def blocks():
        for fld in states:
            spectrum = fld.spectrum.copy()
            spectrum[np.abs(spectrum) < noise_floor(spectrum)] = 0.0
            np.multiply(spectrum, W, out=U)
            for row, weight in logged:
                apply_weight(spectrum, weight, out=row)
            yield U

    def shaped(values: np.ndarray) -> float | np.ndarray:
        out = values[0 if single else slice(None), 0 if sigmas.ndim == 0 else slice(None)]
        return float(out) if out.ndim == 0 else out

    return g, (len(states), len(weights)), shaped, blocks()


def _weighted_sum(u, sigma, s: float, root: bool) -> float | np.ndarray:
    """L sum_k w_k (1+|xi_k|)^(2s) |U_k|^2, or its square root if root.
    Each row is scaled by a power of two (np.frexp of its largest entry)
    before it is squared, and unscaled at the end: exact, and nothing
    overflows unless the value itself leaves double range, which raises
    OverflowGuardError."""
    g, shape, shaped, blocks = _weighted_spectra(u, sigma)
    bracket = (1.0 + g.xi) ** s
    L_mult = g.L * g.multiplicity
    values = np.empty(shape)
    with np.errstate(over="ignore"):
        for r, U in enumerate(blocks):
            amps = np.abs(U) * bracket
            e = np.frexp(amps.max(axis=-1))[1]
            S = (L_mult * np.square(np.ldexp(amps, -e[:, None]))).sum(axis=-1)
            values[r] = np.ldexp(np.sqrt(S), e) if root else np.ldexp(S, 2 * e)
    if not np.all(np.isfinite(values)):
        raise OverflowGuardError(f"{'weighted norm' if root else 'M_sigma'} exceeds double range")
    return shaped(values)


def hsigma_norm(u: SpectralField | Sequence[SpectralField], sigma: float | np.ndarray, s: float) -> float | np.ndarray:
    """(L sum_k w_k (1+|xi_k|)^(2s) cosh^2(sigma xi_k) |U_k|^2)^(1/2), with
    coefficients below spectral.noise_floor counted as zero; inputs and
    result shapes as functional_A's.  Finite wherever the norm fits in a
    double."""
    return _weighted_sum(u, sigma, s, root=True)


def functional_M(v: SpectralField | Sequence[SpectralField], sigma: float | np.ndarray) -> float | np.ndarray:
    """M_sigma = ||cosh(sigma D) v||_L2^2, functional_A's l2_sq term, with
    hsigma_norm's inputs and result shapes."""
    return _weighted_sum(v, sigma, 0.0, root=False)


# ---------------------------------------------------------------------------
# energy functionals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionalBreakdown:
    """A scalar functional with its named constituent integrals: floats, or
    arrays with one entry per weight radius."""

    total: float | np.ndarray
    terms: dict


@np.errstate(over="ignore", invalid="ignore")
def functional_A(
    u: SpectralField | Sequence[SpectralField], sigma: float | np.ndarray, mu: int
) -> FunctionalBreakdown:
    """Sixth-order almost-conserved energy of the weighted field U = cosh(sigma D) u.

    Terms: ||U||^2, ||U_x||^2, ||U_xx||^2, -(mu/6)||U||_L4^4,
    -(5 mu/3)||U U_x||^2, (1/18)||U||_L6^6.  For mu = -1 the three nonlinear
    terms are nonnegative, so the total dominates the Sobolev part.

    u is one field or a nonempty sequence of R fields on one grid; sigma
    is a float or a nonempty 1-D array of P values.  Total and terms are
    floats, or arrays shaped (P,), (R,) or (R, P).  The derivative symbol
    and every scratch array are built once per call; then one batched
    irfft of shape (2, P, 2N) per state gives U and U_x on the 2x grid,
    and every term is a row sum.  A term that leaves double range raises
    OverflowGuardError.
    """
    if mu not in (-1, 1):
        raise ConfigurationError(f"mu must be +-1, got {mu}")
    g, (R, P), shaped, blocks = _weighted_spectra(u, sigma)
    N = g.N
    # i xi on the half of the 2x grid
    ixi = (2j * np.pi / g.L) * np.arange(N + 1)
    # L * sum w_k xi^(2p) |U_k|^2 is ||d^p U||^2, for p = 0, 1, 2
    L_mult = g.L * g.multiplicity
    xi_sq = g.xi**2
    xi_4 = xi_sq * xi_sq
    # trapezoid sums on the 2x grid
    h = g.L / (2 * N)

    power, scratch = np.empty((2, P, N // 2 + 1))
    # the padded U and i xi U; above k = N/2 the rows stay zero
    derivs = np.zeros((2, P, N + 1), dtype=complex)
    fine = np.empty((2, P, 2 * N))
    Uf, Uxf = fine
    prod, prod_x = np.empty((2, P, 2 * N))
    # one row per term, in the order of the terms dict below
    sums = np.empty((6, R, P))
    for r, U in enumerate(blocks):
        np.multiply(pad_spectrum(U, N, 2, out=derivs[0]), ixi, out=derivs[1])
        np.fft.irfft(derivs, n=2 * N, norm="forward", out=fine)
        np.abs(U, out=power)
        np.square(power, out=power)
        np.multiply(L_mult, power, out=power)
        power.sum(axis=-1, out=sums[0, r])
        np.multiply(xi_sq, power, out=scratch).sum(axis=-1, out=sums[1, r])
        np.multiply(xi_4, power, out=scratch).sum(axis=-1, out=sums[2, r])
        # each product taken left to right; the three share the prefix U U
        np.multiply(Uf, Uf, out=prod)
        np.multiply(prod, Uxf, out=prod_x)
        prod_x *= Uxf
        prod_x.sum(axis=-1, out=sums[4, r])
        prod *= Uf
        prod *= Uf
        prod.sum(axis=-1, out=sums[3, r])
        prod *= Uf
        prod *= Uf
        prod.sum(axis=-1, out=sums[5, r])
    terms = {
        "l2_sq": sums[0],
        "deriv1_sq": sums[1],
        "deriv2_sq": sums[2],
        "quartic": -(mu / 6.0) * (h * sums[3]),
        "product_sq": -(5.0 * mu / 3.0) * (h * sums[4]),
        "sextic": (1.0 / 18.0) * (h * sums[5]),
    }
    total = sum(terms.values())
    # an inf or nan term leaves the total inf or nan
    if not np.all(np.isfinite(total)):
        raise OverflowGuardError("functional_A exceeds double range")
    return FunctionalBreakdown(total=shaped(total), terms={k: shaped(v) for k, v in terms.items()})


def conserved_combinations(b: FunctionalBreakdown) -> dict:
    """The three flow invariants hiding in the breakdown (exact at sigma=0):
    mass, energy (gradient + quartic), and the second-order combination;
    floats or arrays, as the breakdown's terms are."""
    t = b.terms
    return {
        "inv0": t["l2_sq"],
        "inv1": t["deriv1_sq"] + t["quartic"],
        "inv2": t["deriv2_sq"] + t["product_sq"] + t["sextic"],
    }


def damping_A_norm(a: RaisedCosineDamping, sigma: float) -> float:
    """Analytic size of the damping coefficient:

        sum_k (k+1)^(1/4) sigma^k / k! * sup|d^k a|,

    summed exactly through K = 40 (the profile exposes exact derivative
    sups) and closed with the rigorous tail bound sup|d^k a| <= C R^k k!:

        tail <= C * sum_{k>K} (k+1) (sigma R)^k,

    a differentiated geometric series.  Requires sigma * R < 1; the returned
    value is head + tail, an upper bound sharp to 1e-12 relative.  When the
    tail bound is looser than that, sigma * R is too close to 1, and the
    DivergenceError gives sigma * R (the remedy is a smaller sigma).  A
    constant profile (R = 0) returns exactly its floor at every sigma.
    """
    if sigma < 0:
        raise ConfigurationError(f"weight radius must be >= 0, got {sigma}")
    q = sigma * a.deriv_bound_rate
    if q >= 1.0:
        raise DivergenceError(
            f"damping-norm series diverges: sigma * R = {q:.6g} >= 1 (outside the (A3) regime)"
        )
    K = _NORM_TERMS
    head = 0.0
    coeff = 1.0  # sigma^k / k!
    for k in range(0, K + 1):
        if k > 0:
            coeff *= sigma / k
        sup = a.deriv_sup(k)
        # a zero sup adds exactly 0.0, also where sigma^k / k! overflows
        if sup != 0.0:
            head += (k + 1) ** 0.25 * coeff * sup
    # sum_{k>K} (k+1) q^k = d/dq [q * geometric] remainder, in closed form
    if q == 0.0:
        tail = 0.0
    else:
        full = 1.0 / (1.0 - q) ** 2
        partial = (1.0 - (K + 2) * q ** (K + 1) + (K + 1) * q ** (K + 2)) / (1.0 - q) ** 2
        tail = a.sup * (full - partial)
    if head > 0 and tail > 1e-12 * head:
        raise DivergenceError(
            f"damping-norm tail bound {tail:.3e} exceeds 1e-12 of head {head:.6g}: "
            f"sigma * R = {q:.6g} is too close to 1"
        )
    return head + tail


# ---------------------------------------------------------------------------
# rate identity
# ---------------------------------------------------------------------------


def mass_rate(v: SpectralField, a: RaisedCosineDamping) -> float:
    """Instantaneous drift of functional_M(v, 0) along the damped flow:

        dM/dt = -2 int a v^2.

    The dispersive and cubic contributions vanish identically (odd
    pairings), and at sigma = 0 the commutator errors of the cosh weight
    vanish too, so damping is all that is left.  The integral is a
    trapezoid sum on the 2x grid, with the profile evaluated there
    directly (it is analytic).
    """
    g = v.grid
    v_fine = np.fft.irfft(pad_spectrum(v.spectrum, g.N, 2), n=2 * g.N, norm="forward")
    prod = a.values(Grid(g.L, 2 * g.N)) * v_fine * v_fine
    return -2.0 * float(g.L / prod.size * prod.sum())


# ---------------------------------------------------------------------------
# index formulas, lifespan, sigma selection
# ---------------------------------------------------------------------------


def s_index(m: int) -> Fraction:
    """Critical regularity max{-(m-2)/6, -(14m-55)/60}, exact rational."""
    if m < 5 or m % 2 == 0:
        raise ConfigurationError(f"index formula needs odd m >= 5, got {m}")
    return max(Fraction(-(m - 2), 6), Fraction(-(14 * m - 55), 60))


def theta_max(m: int) -> Fraction:
    """Largest admissible drift exponent min{1, -s_index(m)}."""
    return min(Fraction(1), -s_index(m))


def lifespan_T0(a_norm: float, data_norm_sq: float, c0: float, d: float) -> float:
    """Local-existence window c0 / (1 + a_norm + data_norm_sq)^d.

    c0 and d are not pinned upstream; they are configuration (run.c0, run.d).
    """
    if c0 <= 0:
        raise ConfigurationError(f"lifespan scale must be positive, got c0={c0}")
    if d <= 1:
        raise ConfigurationError(f"lifespan exponent must exceed 1, got d={d}")
    if a_norm < 0 or data_norm_sq < 0:
        raise ConfigurationError("norms must be nonnegative")
    return c0 / (1.0 + a_norm + data_norm_sq) ** d


def sigma_choice(
    sigma0: float,
    lam: float,
    T0: float,
    C1: float,
    a_norm: float,
    M0: float,
    theta: float,
) -> tuple[float, str]:
    """Radius for one iteration window: the three-way minimum

        min{ sigma0, b/(2 C1 a_norm), (b/(2 C1 M0))^(1/theta) },
        b = 1 - exp(-2 lam T0),

    evaluated with expm1 so tiny lam*T0 keeps full precision.  Returns
    (value, active_branch) with branch one of "cap", "damping", "data".
    """
    if theta == 0:
        raise ConfigurationError("degenerate exponent theta = 0: data branch undefined")
    if not 0.0 < theta <= 1.0:
        raise ConfigurationError(f"theta must lie in (0, 1], got {theta}")
    for name, val in (("sigma0", sigma0), ("lam", lam), ("T0", T0), ("C1", C1), ("a_norm", a_norm), ("M0", M0)):
        if val <= 0:
            raise ConfigurationError(f"{name} must be positive, got {val}")
    b = -math.expm1(-2.0 * lam * T0)
    candidates = {
        "cap": sigma0,
        "damping": b / (2.0 * C1 * a_norm),
        "data": (b / (2.0 * C1 * M0)) ** (1.0 / theta),
    }
    branch = min(candidates, key=candidates.get)
    return candidates[branch], branch


# ---------------------------------------------------------------------------
# radius estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadiusFit:
    """Least-squares exponential-decay fit of a spectrum tail.

    sigma_hat is the estimated strip width (-slope of log|F_k| vs xi_k,
    clamped at 0); window is the (xi_lo, xi_hi) range actually fitted;
    residual the rms misfit.  clamped marks a positive slope; the
    superexponential flag marks spectra (entire functions) whose local decay
    rate keeps steepening across the window.
    """

    sigma_hat: float
    intercept: float
    window: tuple
    residual: float
    clamped: bool
    superexponential: bool
    n_modes: int


def radius_estimate(f: SpectralField) -> RadiusFit:
    """Fit the exponential decay rate of the positive-frequency tail.

    Modes are usable when |F_k| exceeds 1e-8 * max|F|; the top 10% (by
    frequency) of the usable set is dropped as dealiasing-contaminated.
    Requires at least 12 surviving modes.
    """
    g = f.grid
    amps = np.abs(f.spectrum[1:-1])
    xi = g.xi[1:-1]
    peak = float(np.abs(f.spectrum).max())
    if peak == 0.0:
        raise UnderresolvedError("zero field has no spectral tail to fit")
    floor = _FIT_FLOOR * peak
    usable = np.nonzero(amps > floor)[0]
    if usable.size:
        keep = usable[: max(1, int(math.ceil(0.9 * usable.size)))]
    else:
        keep = usable
    if keep.size < 12:
        raise UnderresolvedError(
            f"only {keep.size} modes above the noise floor ({floor:.3e}); need >= 12"
        )
    x = xi[keep]
    y = np.log(amps[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    clamped = slope > 0
    half = keep.size // 2
    s_lo, _ = np.polyfit(x[:half], y[:half], 1)
    s_hi, _ = np.polyfit(x[half:], y[half:], 1)
    superexp = (s_hi < 0) and (s_lo < 0) and (abs(s_hi) > 1.25 * abs(s_lo))
    return RadiusFit(
        sigma_hat=max(0.0, float(-slope)),
        intercept=float(intercept),
        window=(float(x[0]), float(x[-1])),
        residual=resid,
        clamped=bool(clamped),
        superexponential=bool(superexp),
        n_modes=int(keep.size),
    )
