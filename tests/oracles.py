"""Reference routes that the tests compare the package against.

Nothing in the package uses these.  Each one reaches a quantity the package
computes by another path: the full FFT-ordered spectrum instead of the
stored half, the literal cosh quotient instead of the tanh identity, an
exact propagator and exact derivative symbols instead of the RK4 loop, the
product-rule cubic term instead of the conservative one, the log-space
weighted norm instead of the power-of-two scaled one, and the chain-rule
drift of functional_A instead of its finite differences along a
trajectory.

The weighted theory lives here too.  The cosh-weighted field
V = cosh(sigma D) v obeys the flow forced by the commutator errors
F (cubic) and G (damping), so

    dM_sigma/dt = -2 int a V^2 + 2 int (F(V) + G(V)) V

(mass_rate_M), which needs the sech weight as well.  The package runs only
the sigma = 0 case, where F and G vanish: analytics.mass_rate.
"""

import math
from dataclasses import dataclass

import numpy as np

from gevreyflow.analytics import FunctionalBreakdown
from gevreyflow.errors import ConfigurationError, OverflowGuardError
from gevreyflow.spectral import Grid, pad_spectrum, synthesize


def full_k(N):
    """Integer mode numbers in full FFT ordering 0..N/2-1, -N/2..-1."""
    return np.concatenate([np.arange(0, N // 2), np.arange(-N // 2, 0)])


def full_spectrum(half, N):
    """Full FFT-ordered spectrum of a half spectrum k = 0..N/2 (last axis):
    the negative modes are the conjugates of the positive ones."""
    return np.concatenate([half, np.conj(half[..., N // 2 - 1 : 0 : -1])], axis=-1)


def refined_samples(fld, factor=2):
    """Samples of the field on a factor-times finer grid (zero-padded
    synthesis through spectral.pad_spectrum)."""
    N = fld.grid.N
    return np.fft.irfft(pad_spectrum(fld.spectrum, N, factor), n=factor * N, norm="forward")


def reflect(fld):
    """Samples of x -> f(-x) on the same grid (spectrum conjugated).

    mKdV is invariant under (x, t) -> (-x, -t), so reflecting, running the
    same flow, and reflecting back realizes exact time reversal.
    """
    return synthesize(np.conj(fld.spectrum), fld.grid)


def triple_cosh_lhs_naive(sigma, xi1, xi2, xi3):
    """Direct evaluation of |1 - cosh(sigma*xi) sech(s*xi1) sech(s*xi2) sech(s*xi3)|.

    Overflows once any cosh argument passes ~710; the second route of the
    dual-route agreement test on moderate inputs.
    """
    s = np.asarray(sigma, dtype=float)
    x1, x2, x3 = (np.asarray(x, dtype=float) for x in (xi1, xi2, xi3))
    prod = np.cosh(s * (x1 + x2 + x3)) / (np.cosh(s * x1) * np.cosh(s * x2) * np.cosh(s * x3))
    return np.abs(1.0 - prod)


def apply_symbol(fld, sym):
    """The field with its half spectrum times sym.values(grid)."""
    spectrum = fld.spectrum * sym.values(fld.grid)
    if not np.all(np.isfinite(spectrum)):
        raise OverflowGuardError(f"multiplier {sym!r} produced non-finite coefficients")
    return synthesize(spectrum, fld.grid)


@dataclass(frozen=True)
class Deriv:
    """d^order/dx^order, symbol (i*xi)^order; Nyquist zeroed for odd order."""

    order: int

    def __post_init__(self):
        if self.order < 0 or self.order != int(self.order):
            raise ConfigurationError(f"derivative order must be a nonnegative integer, got {self.order}")

    def values(self, grid):
        w = (1j * grid.xi) ** self.order
        if self.order % 2 == 1:
            w[grid.N // 2] = 0.0
        return w


class LinearFlow:
    """Exact dispersive propagator, symbol exp(i*sign*alpha*xi^m*t), for
    apply_symbol.

    m odd >= 3; alpha in (0, 1] scales the dispersion; sign = +1 advances
    the flow dv/dt = i*alpha*xi^m*v, sign = -1 inverts it.  Unimodular, so
    it preserves |F_k|; the Nyquist mode is zeroed (odd symbol).
    """

    def __init__(self, m, sign, alpha, t):
        if m < 3 or m % 2 == 0:
            raise ConfigurationError(f"dispersion order must be odd and >= 3, got m={m}")
        if sign not in (-1, 1):
            raise ConfigurationError(f"LinearFlow sign must be +-1, got {sign}")
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"dispersion scale must be in (0, 1], got alpha={alpha}")
        self.m, self.sign, self.alpha, self.t = m, sign, alpha, t

    def values(self, grid):
        w = np.exp(1j * (self.sign * self.alpha * self.t * grid.xi**self.m))
        w[grid.N // 2] = 0.0
        return w


def product_rule_rhs(eq, grid, V):
    """The single-component non-dispersive rhs -(mu v^2 v_x + a v) on the
    band k = 0..N/4, from one irfft of the stack [V, i xi V] and one rfft;
    V and the result have the shape (1, N/4+1) of dynamics.nonlinear_term.

    It agrees with dynamics.nonlinear_term for every k < N/4.  At k = N/4
    the two differ by the aliased (K, K, K) triple, K = N/4: its alias
    carries i xi_{-K} here and -(1/3) i xi_K in the conservative form.
    """
    band = grid.N // 4 + 1
    v, vx = np.fft.irfft(np.stack([V, 1j * grid.xi[:band] * V]), n=grid.N, norm="forward")
    prod = -eq.mu * v * v * vx
    for d in eq.dampings:
        prod -= d.values(grid) * v
    return np.fft.rfft(prod, norm="forward")[..., :band]


# ---------------------------------------------------------------------------
# cosh and sech weights, commutator errors, the weighted rate identities
# ---------------------------------------------------------------------------


def log_cosh(r):
    """Elementwise log(cosh(r)), overflow-free for any magnitude:
    log cosh(r) = |r| + log((1 + exp(-2|r|)) / 2)."""
    a = np.abs(np.asarray(r, dtype=float))
    return a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)


def weight_spectrum(spectrum, grid, sigma):
    """A half spectrum, or a stack of them on leading axes, times the weight
    cosh(sigma*xi), sigma >= 0."""
    if sigma < 0:
        raise ConfigurationError(f"weight radius must be >= 0, got {sigma}")
    return spectrum * np.cosh(sigma * grid.xi)


def cosh_weighted(fld, sigma):
    """The field weighted by cosh(sigma D), through weight_spectrum."""
    return synthesize(weight_spectrum(fld.spectrum, fld.grid, sigma), fld.grid)


def log_space_norm(fld, sigma, s):
    """The norm analytics.hsigma_norm computes, with every weight in log
    space: z_k = s log(1+xi_k) + log cosh(sigma xi_k) + log|F_k| over the
    coefficients above 1e-13 of the largest, summed as exp(2(z_k - max z)),
    so nothing overflows before the final exp."""
    g = fld.grid
    amps = np.abs(fld.spectrum)
    if not amps.any():
        return 0.0
    pos = amps >= 1e-13 * amps.max()
    z = s * np.log1p(g.xi[pos]) + log_cosh(sigma * g.xi[pos]) + np.log(amps[pos])
    top = float(z.max())
    total = float((g.multiplicity[pos] * np.exp(2.0 * (z - top))).sum())
    return math.exp(top + 0.5 * math.log(g.L * total))


def sech_weighted(fld, sigma):
    """The field weighted by sech(sigma D) = 1/cosh(sigma D), the inverse of
    cosh_weighted.  For sigma*max(xi) <= 30 the spectrum is divided by
    cosh(sigma*xi); beyond that it is multiplied by exp(-log cosh(sigma*xi)),
    which is at most 1, so the result stays in range."""
    if sigma < 0:
        raise ConfigurationError(f"weight radius must be >= 0, got {sigma}")
    g = fld.grid
    if sigma * g.xi[-1] <= 30.0:
        spectrum = fld.spectrum / np.cosh(sigma * g.xi)
    else:
        spectrum = fld.spectrum * np.exp(-log_cosh(sigma * g.xi))
    return synthesize(spectrum, g)


def refined_derivs(spectrum, grid, orders):
    """Samples of the requested derivatives on the doubled grid, from one
    batched irfft of the zero-padded half spectrum: shape
    (len(orders),) + spectrum.shape[:-1] + (2N,), one block per order.
    The symbols (i xi)^p are built by repeated multiplication."""
    N = grid.N
    big = pad_spectrum(spectrum, N, 2)
    ixi = (2j * np.pi / grid.L) * np.arange(N + 1)
    symbols = np.ones((len(orders),) + (1,) * (big.ndim - 1) + (N + 1,), dtype=complex)
    for row, p in zip(symbols, orders):
        for _ in range(p):
            row *= ixi
    return np.fft.irfft(big * symbols, n=2 * N, norm="forward")


def _quad(grid, *factors):
    """Trapezoid integral over [0, L) of a pointwise product on the 2x grid."""
    prod = factors[0]
    for f in factors[1:]:
        prod = prod * f
    return float(grid.L / prod.size * prod.sum())


def _masked_spectrum(samples, grid):
    """Dealiased half spectrum of a real product array (band k <= N/4)."""
    H = np.fft.rfft(samples, norm="forward")
    H[grid.band :] = 0.0
    return H


def operator_F(W, sigma, mu):
    """Cubic commutator error of the cosh weight:

        (mu/3) d_x [ dealias(W^3) - cosh(sigma D) dealias((sech(sigma D) W)^3) ].

    Vanishes identically at sigma = 0; for small sigma its L2 size scales
    like sigma^2 (both cubes see the same field to second order).
    """
    if mu not in (-1, 1):
        raise ConfigurationError(f"mu must be +-1, got {mu}")
    g = W.grid
    outer = _masked_spectrum(W.samples**3, g)
    inner = sech_weighted(W, sigma)
    inner_cubed = _masked_spectrum(inner.samples**3, g)
    diff = outer - weight_spectrum(inner_cubed, g, sigma)
    return synthesize((mu / 3.0) * (1j * g.xi) * diff, g)


def operator_G(W, a, sigma):
    """Damping commutator error:

        dealias(a W) - cosh(sigma D) dealias(a * sech(sigma D) W).

    Zero for sigma = 0 and for constant a (constants commute with Fourier
    multipliers).  Both products carry the same dealias projection as the
    damping term inside the integrator, so the mass-rate identity closes
    exactly along discrete trajectories.
    """
    g = W.grid
    avals = a.values(g)
    first = _masked_spectrum(avals * W.samples, g)
    inner = sech_weighted(W, sigma)
    prod = _masked_spectrum(avals * inner.samples, g)
    return synthesize(first - weight_spectrum(prod, g, sigma), g)


def mass_rate_M(v, a, sigma, mu):
    """Instantaneous drift of functional_M along the damped flow:

        dM/dt = -2 int a V^2 + 2 int (F(V) + G(V)) V,   V = cosh(sigma D) v.

    The dispersive and pure-cubic contributions vanish identically (odd
    pairings), leaving damping plus the two commutator errors.  Returns
    (total rate, damping term, commutator term).
    """
    V = cosh_weighted(v, sigma)
    Ff = operator_F(V, sigma, mu)
    Gf = operator_G(V, a, sigma)
    g = v.grid
    V0, F0, G0 = (refined_derivs(f.spectrum, g, (0,))[0] for f in (V, Ff, Gf))
    # the profile is analytic, so evaluate it on the doubled grid directly
    a_fine = a.values(Grid(g.L, 2 * g.N))
    damping_term = -2.0 * _quad(g, a_fine, V0, V0)
    fg_term = 2.0 * _quad(g, F0 + G0, V0)
    return damping_term + fg_term, damping_term, fg_term


def energy_rate_A(u, sigma, mu):
    """Instantaneous drift of functional_A along the flow, the reference
    for the finite-difference drift of functional_A.

    With U = cosh(sigma D) u and F the cubic commutator error, the weighted
    field obeys the original equation forced by F(U), so the chain rule
    pairs F against the variational derivative of each energy term:

        dA/dt = 2 int U F + 2 int U_x F_x + 2 int U_xx F_xx
              - (2 mu/3) int U^3 F + (1/3) int U^5 F
              + (10 mu/3) int U U_x^2 F + (10 mu/3) int U^2 U_xx F.
    """
    if mu not in (-1, 1):
        raise ConfigurationError(f"mu must be +-1, got {mu}")
    U = cosh_weighted(u, sigma)
    Ff = operator_F(U, sigma, mu)
    g = u.grid
    U0, U1, U2 = refined_derivs(U.spectrum, g, (0, 1, 2))
    F0, F1, F2 = refined_derivs(Ff.spectrum, g, (0, 1, 2))
    terms = {
        "pair_l2": 2.0 * _quad(g, U0, F0),
        "pair_deriv1": 2.0 * _quad(g, U1, F1),
        "pair_deriv2": 2.0 * _quad(g, U2, F2),
        "pair_cubic": -(2.0 * mu / 3.0) * _quad(g, U0, U0, U0, F0),
        "pair_quintic": (1.0 / 3.0) * _quad(g, U0, U0, U0, U0, U0, F0),
        "pair_grad_sq": (10.0 * mu / 3.0) * _quad(g, U0, U1, U1, F0),
        "pair_hess": (10.0 * mu / 3.0) * _quad(g, U0, U0, U2, F0),
    }
    return FunctionalBreakdown(total=sum(terms.values()), terms=terms)
