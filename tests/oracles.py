"""Reference routes that the tests compare the package against.

Nothing in the package uses these.  Each one reaches a quantity the package
computes by another path: the full FFT-ordered spectrum instead of the
stored half, the literal cosh quotient instead of the tanh identity, an
exact propagator instead of the RK4 loop.
"""

import numpy as np

from gevreyflow.errors import ConfigurationError
from gevreyflow.spectral import pad_spectrum, synthesize


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


class LinearFlow:
    """Exact dispersive propagator, symbol exp(i*sign*alpha*xi^m*t), for
    apply_multiplier.

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
