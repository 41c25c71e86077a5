"""Reference routes that the tests compare the package against.

Nothing in the package uses these.  Each one reaches a quantity the package
computes by another path: the full FFT-ordered spectrum instead of the
stored half, the literal cosh quotient instead of the tanh identity, an
exact propagator and exact derivative symbols instead of the RK4 loop, the
product-rule cubic term instead of the conservative one, and the
chain-rule drift of functional_A instead of its finite differences along
a trajectory.
"""

from dataclasses import dataclass

import numpy as np

from gevreyflow.analytics import FunctionalBreakdown, _quad, _refined_derivs, operator_F
from gevreyflow.errors import ConfigurationError, OverflowGuardError
from gevreyflow.spectral import CoshWeight, apply_multiplier, pad_spectrum, synthesize


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
            w[grid.nyquist_index] = 0.0
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
        w[grid.nyquist_index] = 0.0
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
    U = apply_multiplier(u, CoshWeight(sigma))
    Ff = operator_F(U, sigma, mu)
    g = u.grid
    U0, U1, U2 = _refined_derivs(U.spectrum, g, (0, 1, 2))
    F0, F1, F2 = _refined_derivs(Ff.spectrum, g, (0, 1, 2))
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
