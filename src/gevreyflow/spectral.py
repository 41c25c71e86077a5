"""Periodic pseudospectral substrate: grids, real-field transforms, Fourier
multipliers, and dealiasing.

Conventions
-----------
The domain is the torus [0, L) sampled at the N nodes x_j = j*L/N.  The
stored transform of a real field f is

    F_k = (1/N) * sum_j f_j * exp(-i xi_k x_j),    xi_k = 2*pi*k/L,

with k = -N/2 .. N/2-1 in numpy FFT ordering (0, 1, .., N/2-1, -N/2, .., -1).
Under this normalization a mode cos(xi_0 x) carries F_{+-k0} = 1/2 and the
trapezoid quadrature of |f|^2 is the Parseval sum

    (L/N) * sum_j f_j^2 = L * sum_k |F_k|^2,

so discrete norms are direct Riemann approximations of integrals over the
line once the data decays inside the box.

Hermitian symmetry (F_{-k} = conj F_k) is an invariant of every operation
exposed here.  The Nyquist mode k = -N/2 has no conjugate partner; symbols
that are odd in xi (odd-order derivatives, the dispersive phase) are zeroed
there, the standard convention for real spectral differentiation (see
https://math.mit.edu/~stevenj/fft-deriv.pdf).  Forward transforms go
through rfft, which computes only the half k = 0..N/2 (the Nyquist entry
of the half is the k = -N/2 mode, real for real samples); full_spectrum
mirrors a half into the full FFT ordering, exactly Hermitian by
construction.

Hyperbolic weights cosh(sigma*xi) overflow double precision near
sigma*|xi| ~ 710.  Weight application therefore goes through log space
whenever sigma*|xi| > 30, using

    log cosh(r) = |r| + log((1 + exp(-2|r|)) / 2),

which keeps products weight*F_k representable whenever the product itself
is; a product that still leaves range raises OverflowGuardError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, OverflowGuardError, SymmetryError

_LOG2 = float(np.log(2.0))
# exp() saturates at ~709.78; stay a hair under when testing representability
_EXP_MAX = 700.0
# switch to log-space evaluation of cosh/sech beyond this argument
_LOG_SWITCH = 30.0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, L) with N (even) modes.

    Attributes x, k, xi are read-only arrays in FFT ordering: k holds the
    integer mode numbers, xi = 2*pi*k/L the physical frequencies.
    """

    L: float
    N: int
    x: np.ndarray = field(init=False, repr=False, compare=False)
    k: np.ndarray = field(init=False, repr=False, compare=False)
    xi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x = np.arange(self.N) * (self.L / self.N)
        # FFT ordering 0..N/2-1, -N/2..-1, built exactly (no float rounding)
        k = np.concatenate([np.arange(0, self.N // 2), np.arange(-self.N // 2, 0)])
        xi = (2.0 * np.pi / self.L) * k
        for name, arr in (("x", x), ("k", k), ("xi", xi)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def xi_max(self) -> float:
        return np.pi * self.N / self.L

    @property
    def nyquist_index(self) -> int:
        return self.N // 2


def make_grid(L: float, N: int) -> Grid:
    """Validated Grid constructor: L > 0 finite, N even and >= 16."""
    if not np.isfinite(L) or L <= 0:
        raise ConfigurationError(f"domain length must be positive and finite, got L={L}")
    if N < 16 or N % 2 != 0:
        raise ConfigurationError(f"mode count must be even and >= 16, got N={N}")
    return Grid(float(L), int(N))


@dataclass(frozen=True)
class SpectralField:
    """A real field on a Grid together with its spectrum.

    samples and spectrum are kept consistent by construction: every public
    constructor (analyze, synthesize, apply_multiplier, dealias) derives one
    from the other through the FFT pair.  Both arrays are read-only.
    """

    grid: Grid
    samples: np.ndarray = field(repr=False, compare=False)
    spectrum: np.ndarray = field(repr=False, compare=False)

    def hermitian_defect(self) -> float:
        """max_k |F_{-k} - conj(F_k)|, including the Nyquist imaginary part."""
        F = self.spectrum
        N = self.grid.N
        idx = np.arange(1, N // 2)
        defect = np.abs(F[N - idx] - np.conj(F[idx])).max(initial=0.0)
        defect = max(defect, abs(F[0].imag), abs(F[N // 2].imag))
        return float(defect)

    def parseval_defect(self) -> float:
        """Relative gap between (L/N)*sum f^2 and L*sum |F|^2."""
        phys = (self.grid.L / self.grid.N) * float(np.sum(self.samples**2))
        spec = self.grid.L * float(np.sum(np.abs(self.spectrum) ** 2))
        scale = max(phys, spec, np.finfo(float).tiny)
        return abs(phys - spec) / scale


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _field(grid: Grid, samples: np.ndarray, spectrum: np.ndarray) -> SpectralField:
    return SpectralField(grid, _freeze(samples), _freeze(spectrum))


def full_spectrum(half: np.ndarray, N: int) -> np.ndarray:
    """Full FFT-ordered spectrum from the rfft half k = 0..N/2 (last axis).

    The negative modes are the conjugates of the positive ones, so the
    result is exactly Hermitian whenever half[0] and half[N/2] are real,
    which rfft guarantees for real samples.  The symmetry then stays exact:
    complex arithmetic rounds conjugate-equivariantly, so multipliers with
    Hermitian symbols preserve it bitwise.
    """
    return np.concatenate([half, np.conj(half[..., N // 2 - 1 : 0 : -1])], axis=-1)


def analyze(samples: np.ndarray, grid: Grid) -> SpectralField:
    """Forward transform of a real sample vector."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (grid.N,):
        raise ConfigurationError(f"sample vector has shape {samples.shape}, grid expects ({grid.N},)")
    if not np.all(np.isfinite(samples)):
        raise ConfigurationError("samples contain NaN/Inf")
    spectrum = full_spectrum(np.fft.rfft(samples, norm="forward"), grid.N)
    return _field(grid, samples.copy(), spectrum)


def synthesize(spectrum: np.ndarray, grid: Grid) -> SpectralField:
    """Inverse transform; the spectrum must be Hermitian-symmetric."""
    spectrum = np.asarray(spectrum, dtype=complex)
    if spectrum.shape != (grid.N,):
        raise ConfigurationError(f"spectrum has shape {spectrum.shape}, grid expects ({grid.N},)")
    N = grid.N
    idx = np.arange(1, N // 2)
    defect = np.abs(spectrum[N - idx] - np.conj(spectrum[idx])).max(initial=0.0)
    defect = max(defect, abs(spectrum[0].imag), abs(spectrum[N // 2].imag))
    scale = np.abs(spectrum).max(initial=0.0)
    if defect > 10.0 * np.finfo(float).eps * max(scale, 1e-300):
        raise SymmetryError(f"spectrum is not Hermitian-symmetric (defect {defect:.3e}, scale {scale:.3e})")
    samples = np.fft.ifft(spectrum * N).real
    return _field(grid, samples, spectrum.copy())


def _resynth(grid: Grid, spectrum: np.ndarray) -> SpectralField:
    """Internal constructor for spectra already Hermitian by construction."""
    samples = np.fft.ifft(spectrum * grid.N).real
    return _field(grid, samples, spectrum)


# ---------------------------------------------------------------------------
# multiplier symbols
# ---------------------------------------------------------------------------


def log_cosh(r: np.ndarray) -> np.ndarray:
    """Elementwise log(cosh(r)), overflow-free for any magnitude."""
    a = np.abs(np.asarray(r, dtype=float))
    return a + np.log1p(np.exp(-2.0 * a)) - _LOG2


@dataclass(frozen=True)
class Deriv:
    """d^order/dx^order, symbol (i*xi)^order; Nyquist zeroed for odd order."""

    order: int

    def __post_init__(self):
        if self.order < 0 or self.order != int(self.order):
            raise ConfigurationError(f"derivative order must be a nonnegative integer, got {self.order}")

    def values(self, grid: Grid) -> np.ndarray:
        w = (1j * grid.xi) ** self.order
        if self.order % 2 == 1:
            w[grid.nyquist_index] = 0.0
        return w


@dataclass(frozen=True)
class AbsDeriv:
    """|D|^power, symbol |xi|^power (real, even)."""

    power: float

    def __post_init__(self):
        if self.power < 0:
            raise ConfigurationError(f"AbsDeriv power must be >= 0, got {self.power}")

    def values(self, grid: Grid) -> np.ndarray:
        return np.abs(grid.xi) ** self.power


@dataclass(frozen=True)
class BracketPower:
    """(1 + |xi|)^s — note the bracket is 1+|xi|, not (1+xi^2)^(1/2)."""

    s: float

    def values(self, grid: Grid) -> np.ndarray:
        return (1.0 + np.abs(grid.xi)) ** self.s


@dataclass(frozen=True)
class CoshWeight:
    """cosh(sigma*xi): the isometry H^{sigma,s} -> H^s as a weight."""

    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise ConfigurationError(f"CoshWeight sigma must be >= 0, got {self.sigma}")

    def values(self, grid: Grid) -> np.ndarray:
        return weight_values(self.log_values(grid))

    def log_values(self, grid: Grid) -> np.ndarray:
        return log_cosh(self.sigma * grid.xi)


@dataclass(frozen=True)
class SechWeight:
    """sech(sigma*xi) = 1/cosh(sigma*xi); inverse of CoshWeight."""

    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise ConfigurationError(f"SechWeight sigma must be >= 0, got {self.sigma}")

    def values(self, grid: Grid) -> np.ndarray:
        return weight_values(self.log_values(grid))

    def log_values(self, grid: Grid) -> np.ndarray:
        return -log_cosh(self.sigma * grid.xi)


@dataclass(frozen=True)
class LinearFlow:
    """Exact dispersive propagator, symbol exp(i*sign*alpha*xi^m*t).

    m odd >= 3; alpha in (0, 1] scales the dispersion (the second component
    of the coupled system uses alpha < 1); sign = +1 advances the flow
    dv/dt = i*alpha*xi^m*v, sign = -1 inverts it.  Unimodular, so it
    preserves |F_k|; the Nyquist mode is zeroed (odd symbol).
    """

    m: int
    sign: int
    alpha: float
    t: float

    def __post_init__(self):
        if self.m < 3 or self.m % 2 == 0:
            raise ConfigurationError(f"dispersion order must be odd and >= 3, got m={self.m}")
        if self.sign not in (-1, 1):
            raise ConfigurationError(f"LinearFlow sign must be +-1, got {self.sign}")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigurationError(f"dispersion scale must be in (0, 1], got alpha={self.alpha}")

    def values(self, grid: Grid) -> np.ndarray:
        phase = self.sign * self.alpha * self.t * grid.xi**self.m
        w = np.exp(1j * phase)
        w[grid.nyquist_index] = 0.0
        return w


MultiplierSymbol = Deriv | AbsDeriv | BracketPower | CoshWeight | SechWeight | LinearFlow


def weight_values(logw: np.ndarray) -> np.ndarray:
    """exp(logw) where representable; +inf entries are caught at application."""
    with np.errstate(over="ignore"):
        return np.exp(logw)


def apply_log_weight(spectrum: np.ndarray, logw: np.ndarray) -> np.ndarray:
    """Multiply a spectrum by exp(logw) without overflowing on huge weights.

    Entries with logw <= 700 are multiplied directly.  Beyond that the
    product is formed as exp(logw + log|F_k|) * phase, which stays in range
    whenever the value itself does.  A non-finite product raises
    OverflowGuardError (the sigma*xi_max <= 700 guard, adjusted for the
    actual coefficient magnitudes).
    """
    out = np.empty_like(spectrum, dtype=complex)
    direct = logw <= _EXP_MAX
    out[direct] = spectrum[direct] * np.exp(logw[direct])
    if not direct.all():
        big = ~direct
        F = spectrum[big]
        mag = np.abs(F)
        pos = mag > 0
        # frexp/ldexp split keeps denormal coefficients exact: mag = m * 2^e
        # with m in [0.5, 1), so neither the log nor the phase division can
        # overflow or lose the subnormal bits
        m, e = np.frexp(mag)
        logmag = np.where(pos, np.log(np.where(pos, m, 1.0)) + e * _LOG2, -np.inf)
        safe_m = np.where(pos, m, 1.0)
        phase = (np.ldexp(F.real, -e) + 1j * np.ldexp(F.imag, -e)) / safe_m
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = np.exp(logw[big] + logmag)
            out[big] = np.where(pos, scaled * phase, 0.0)
    if not np.all(np.isfinite(out)):
        raise OverflowGuardError(
            "weighted spectrum left double-precision range (sigma*xi_max > 700 with O(1) coefficients)"
        )
    return out


def apply_multiplier(fld: SpectralField, sym: MultiplierSymbol) -> SpectralField:
    """Pointwise spectrum multiplication by the symbol; returns a new field."""
    if isinstance(sym, (CoshWeight, SechWeight)):
        r_max = sym.sigma * fld.grid.xi_max
        if r_max > _LOG_SWITCH:
            spectrum = apply_log_weight(fld.spectrum, sym.log_values(fld.grid))
        else:
            spectrum = fld.spectrum * sym.values(fld.grid)
    else:
        spectrum = fld.spectrum * sym.values(fld.grid)
        if not np.all(np.isfinite(spectrum)):
            raise OverflowGuardError(f"multiplier {sym!r} produced non-finite coefficients")
    return _resynth(fld.grid, spectrum)


def dealias(fld: SpectralField) -> SpectralField:
    """Zero all modes with |k| > N/4 (the 1/2 rule: cubic products of the
    retained band are alias-free on this grid away from the band edge)."""
    keep = np.abs(fld.grid.k) <= fld.grid.N // 4
    if np.all(fld.spectrum[~keep] == 0):
        return fld
    return _resynth(fld.grid, np.where(keep, fld.spectrum, 0.0))


def pad_spectrum(spectrum: np.ndarray, N: int, factor: int) -> np.ndarray:
    """Embed an N-mode spectrum into factor*N modes (trigonometric refinement).

    The Nyquist coefficient (real for a real field) is split evenly between
    +-N/2 so the refined field is real and interpolates the original nodes.
    """
    M = factor * N
    out = np.zeros(M, dtype=complex)
    half = N // 2
    out[:half] = spectrum[:half]
    out[M - half + 1 :] = spectrum[half + 1 :]
    out[half] = 0.5 * spectrum[half]
    out[M - half] = 0.5 * spectrum[half]
    return out


def refined_samples(fld: SpectralField, factor: int = 2) -> np.ndarray:
    """Samples of the field on a factor-times finer grid (zero-padded synthesis).

    Used for the L^4/L^6/product quadratures: sixth powers of a dealiased
    field have bandwidth 6*(N/4) = 3N/2 < 2N, so the 2x-refined trapezoid
    sum integrates them exactly.
    """
    N = fld.grid.N
    padded = pad_spectrum(fld.spectrum, N, factor)
    return np.fft.ifft(padded * factor * N).real
