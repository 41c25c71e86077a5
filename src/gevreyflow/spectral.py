"""Periodic pseudospectral substrate: grids, real-field transforms, the
noise floor, and dealiasing.

Conventions
-----------
The domain is the torus [0, L) sampled at the N (even) nodes x_j = j*L/N.
The transform of a real field f is

    F_k = (1/N) * sum_j f_j * exp(-i xi_k x_j),    xi_k = 2*pi*k/L,

and only the half k = 0..N/2 is stored (numpy's rfft layout, shape
(N/2+1,)).  The negative modes are implied by F_{-k} = conj(F_k), so a
stored half describes a real field by construction.  Its two
self-conjugate entries, DC (k = 0) and Nyquist (k = N/2, which stands for
both +-N/2), are real; they are the only entries synthesize checks.  A
mode cos(xi_k0 x) carries F_k0 = 1/2.

A sum over all N modes is a sum over the half weighted by
Grid.multiplicity = (1, 2, ..., 2, 1): every interior k also stands for
-k, while DC and Nyquist stand for themselves.  The trapezoid quadrature
of |f|^2 is the Parseval sum

    (L/N) * sum_j f_j^2 = L * sum_k w_k |F_k|^2,

so discrete norms are direct Riemann approximations of integrals over the
line once the data decays inside the box.

A SpectralField holds the half spectrum; its samples are one irfft, made
on the first read of SpectralField.samples and kept.  analyze is one rfft
and keeps the samples it was given; synthesize checks a half spectrum and
makes no transform, so a field whose samples nothing reads costs none.

The package's symbols that are odd in xi, the dispersive phase and the
derivative of the cubic terms, act on the dealiased band k = 0..N/4
alone, which holds no Nyquist entry.  So none needs the convention of
real spectral differentiation that zeroes an odd symbol at Nyquist to
keep that entry real (see https://math.mit.edu/~stevenj/fft-deriv.pdf).

The cosh weight cosh(sigma*xi) of the sigma-norms is np.cosh, applied in
analytics, which counts the coefficients below noise_floor as zero
whatever their weight.

Every transform in the package is one of two functions, irfft_into and
rfft_into, module functions over numpy's pocketfft gufuncs
(numpy.fft._pocketfft_umath: irfft and rfft_n_even, written into out; a
gufunc works on the last axis without being told).  These are the kernels
numpy.fft itself calls, so the results are bit-identical to numpy.fft's,
without its Python wrapper (axis, dtype, norm factor and out checks), which
is about a third of each call at N = 512.  Their unit factor is a
read-only 0-d array, made once: a Python float there is converted on
every call, about 0.5 us of a 6.5 us N = 512 call on a 2-core x86
machine (median of 31 alternating repeats).  That module is private numpy
API, present in numpy 2.x; the package has no second route to a transform.
rfft_n_even is only right for even lengths, and Grid rejects odd N.
Callers in other modules call them as spectral.irfft_into and
spectral.rfft_into, so one patch point sees every transform; the
integrator's rhs looks them up once, when it is built.
"""

from __future__ import annotations

from dataclasses import field
from functools import cached_property

import numpy as np
from numpy.fft._pocketfft_umath import irfft as _irfft, rfft_n_even as _rfft_n_even

from .errors import ConfigurationError, SymmetryError
from .records import frozen


# the unit factor of both kernels, an array operand that no call converts
_UNIT = np.array(1.0)
_UNIT.flags.writeable = False


def irfft_into(spectrum: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the samples of a half spectrum, or of a stack of them, into
    out and return out: numpy.fft.irfft(spectrum, n=out.shape[-1],
    norm="forward"); a spectrum shorter than out.shape[-1]/2 + 1 is
    zero-padded."""
    return _irfft(spectrum, _UNIT, out)


def rfft_into(samples: np.ndarray, out: np.ndarray, factor: float | np.ndarray = _UNIT) -> np.ndarray:
    """Write factor times the rfft of samples of even length, or of a
    stack of them, into out and return out: numpy.fft.rfft(samples) for
    factor 1, and numpy.fft.rfft(samples, norm="forward") for factor 1/N."""
    return _rfft_n_even(samples, factor, out)


@frozen
class Grid:
    """Uniform periodic grid on [0, L) with N nodes, N even and >= 16, and L
    with L/N > 0 and pi*N/L and 2*L finite (else raises ConfigurationError).

    Attributes are read-only arrays: x the nodes; xi = 2*pi*k/L the
    frequencies of the stored modes k = 0..N/2, so xi[-1] = pi*N/L is the
    largest; multiplicity the weights (1, 2, ..., 2, 1) that turn a sum
    over the stored half into a sum over all N modes.
    """

    L: float
    N: int
    x: np.ndarray = field(init=False, repr=False, compare=False)
    xi: np.ndarray = field(init=False, repr=False, compare=False)
    multiplicity: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.N < 16 or self.N % 2 != 0:
            raise ConfigurationError(f"mode count must be even and >= 16, got N={self.N}", "N")
        if not (0 < self.L / self.N < np.inf and np.pi * self.N / self.L < np.inf and self.L < 2.0**1023):
            raise ConfigurationError(f"domain length must have L/N > 0, pi*N/L and 2*L finite, got L={self.L}", "L")
        # N % 2 == 0 above rules out every non-integral N, so int() is exact
        object.__setattr__(self, "L", float(self.L))
        object.__setattr__(self, "N", int(self.N))
        x = np.arange(self.N) * (self.L / self.N)
        xi = (2.0 * np.pi / self.L) * np.arange(self.N // 2 + 1)
        multiplicity = np.full(xi.size, 2.0)
        multiplicity[[0, -1]] = 1.0
        for name, arr in (("x", x), ("xi", xi), ("multiplicity", multiplicity)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def band(self) -> int:
        """Length of the dealiased band k = 0..N/4 (the 1/2 rule)."""
        return self.N // 4 + 1


@frozen(eq=False)
class SpectralField:
    """A real field on a Grid, held as its half spectrum k = 0..N/2.

    samples, the N values at the grid nodes, is a read-only property: one
    irfft of the spectrum on its first read, kept for later reads.  analyze
    keeps the samples it was given instead.  Fields from analyze,
    synthesize and dealias hold read-only arrays.  Two fields are equal
    only when they are the same object.
    """

    grid: Grid
    spectrum: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def samples(self) -> np.ndarray:
        return _freeze(irfft_into(self.spectrum, np.empty(self.grid.N)))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def analyze(samples: np.ndarray, grid: Grid) -> SpectralField:
    """Forward transform of a real sample vector; the field keeps a copy
    of the samples."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (grid.N,):
        raise ConfigurationError(f"sample vector has shape {samples.shape}, grid expects ({grid.N},)")
    if not np.all(np.isfinite(samples)):
        raise ConfigurationError("samples contain NaN/Inf")
    spectrum = rfft_into(samples, np.empty(grid.N // 2 + 1, dtype=complex), 1.0 / grid.N)
    fld = SpectralField(grid, _freeze(spectrum))
    # primes the cached property, so the samples are never transformed back
    fld.__dict__["samples"] = _freeze(samples.copy())
    return fld


def synthesize(spectrum: np.ndarray, grid: Grid) -> SpectralField:
    """The field of a half spectrum (copied); its entries must be finite,
    and its k = 0 and k = N/2 entries real (irfft would silently drop their
    imaginary parts).  No transform is made here: the samples follow on
    first read."""
    spectrum = np.array(spectrum, dtype=complex)
    if spectrum.shape != (grid.N // 2 + 1,):
        raise ConfigurationError(f"spectrum has shape {spectrum.shape}, grid expects ({grid.N // 2 + 1},)")
    # the largest modulus is nan or inf where an entry is
    scale = np.abs(spectrum).max()
    if not np.isfinite(scale):
        raise ConfigurationError("spectrum contains NaN/Inf")
    defect = max(abs(spectrum[0].imag), abs(spectrum[-1].imag))
    if defect > 10.0 * np.finfo(float).eps * max(scale, 1e-300):
        raise SymmetryError(
            f"spectrum entries at k = 0 and k = N/2 must be real (imaginary part {defect:.3e}, scale {scale:.3e})"
        )
    return SpectralField(grid, _freeze(spectrum))


def noise_floor(spectrum: np.ndarray) -> float:
    """Magnitude below which a coefficient counts as zero: 1e-13 of the
    largest.  Transforms leave round-off near 1e-17 of the peak in modes
    the field does not carry, and a cosh weight or a derivative symbol
    would lift it into the result."""
    return 1e-13 * float(np.abs(spectrum).max())


def dealias(fld: SpectralField) -> SpectralField:
    """Zero all modes with k > N/4 (the 1/2 rule: the only cubic product
    of the retained band that aliases back into it is the (K, K, K)
    triple, K = N/4, which lands on +-K)."""
    band = fld.grid.band
    if np.all(fld.spectrum[band:] == 0):
        return fld
    spectrum = fld.spectrum.copy()
    spectrum[band:] = 0.0
    return synthesize(spectrum, fld.grid)


def pad_spectrum(spectrum: np.ndarray, N: int, factor: int, out: np.ndarray | None = None) -> np.ndarray:
    """Half spectrum of the factor*N-point refinement of an N-point field.

    The Nyquist coefficient (real for a real field) is split evenly between
    +-N/2, which are distinct modes on the finer grid: the stored k = N/2
    entry keeps one half and its implied mirror the other, so the refined
    field is real and interpolates the original nodes.  Leading axes of a
    stacked spectrum are kept.  A given out must be zero above k = N/2:
    those entries are not written.
    """
    if out is None:
        out = np.zeros(spectrum.shape[:-1] + (factor * N // 2 + 1,), dtype=complex)
    out[..., : N // 2] = spectrum[..., : N // 2]
    out[..., N // 2] = 0.5 * spectrum[..., N // 2]
    return out
