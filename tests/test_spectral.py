import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp
from numpy.fft import _pocketfft_umath
from oracles import (
    Deriv,
    LinearFlow,
    apply_symbol,
    cosh_weighted,
    log_cosh,
    log_space_norm,
    refined_samples,
    sech_weighted,
)

from gevreyflow import (
    ConfigurationError,
    OverflowGuardError,
    SymmetryError,
    analyze,
    dealias,
    hsigma_norm,
    spectral,
    synthesize,
)
from gevreyflow.spectral import Grid, SpectralField, pad_spectrum

EPS = np.finfo(float).eps


def dft_direct(samples, grid):
    """O(N^2) reference transform: F_k = (1/N) sum_j f_j exp(-i xi_k x_j)."""
    j = np.arange(grid.N)
    F = np.array(
        [np.sum(samples * np.exp(-1j * xi_k * grid.x)) / grid.N for xi_k in grid.xi]
    )
    assert j.shape == samples.shape
    return F


real_fields = hnp.arrays(
    dtype=np.float64,
    shape=st.sampled_from([32, 64]),
    elements=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
)

# any even length, magnitudes over many decades: not band-limited, so the
# DC and Nyquist entries are generically nonzero
any_real_fields = st.integers(8, 128).flatmap(
    lambda half: hnp.arrays(
        dtype=np.float64,
        shape=2 * half,
        elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_subnormal=False),
    )
)


class TestGrid:
    def test_frequency_layout(self):
        g = Grid(2 * np.pi, 16)
        assert np.allclose(g.xi, np.arange(9.0))
        assert g.xi.size - 1 == g.N // 2 == 8
        assert g.multiplicity.tolist() == [1.0] + [2.0] * 7 + [1.0]
        assert g.dx == pytest.approx(np.pi / 8)

    def test_xi_max(self):
        # the largest stored frequency is the Nyquist one, pi N / L
        g = Grid(64.0, 512)
        assert g.xi[-1] == pytest.approx(8 * np.pi)

    @pytest.mark.parametrize(
        # odd N: rfft_into computes an even-length rfft, wrong with no error
        "L,N", [(0.0, 16), (-1.0, 32), (64.0, 15), (64.0, 255), (64.0, 8), (np.inf, 32)]
    )
    def test_rejects_bad_parameters(self, L, N):
        with pytest.raises(ConfigurationError):
            Grid(L, N)

    @pytest.mark.parametrize("L", [5e-324, 1e-310, 1e308])
    def test_rejects_a_length_whose_spacing_or_top_frequency_leaves_double_range(self, L):
        # L/N = 0 at 5e-324, pi N / L = inf at 5e-324 and 1e-310, and the
        # Parseval weight 2 L = inf at 1e308
        with pytest.raises(ConfigurationError, match=r"must have L/N > 0, pi\*N/L and 2\*L finite, got L=") as err:
            Grid(L, 16)
        assert err.value.key == "L"
        assert Grid(1e-300, 16).xi[-1] == pytest.approx(np.pi * 16 / 1e-300)
        widest = Grid(np.nextafter(2.0**1023, 0), 16)
        assert np.isfinite(widest.L * widest.multiplicity).all()

    def test_stores_float_length_and_int_count(self):
        g = Grid(64, 256.0)
        assert (type(g.L), type(g.N)) == (float, int)
        assert g == Grid(64.0, 256)

    def test_arrays_read_only(self):
        g = Grid(64.0, 32)
        with pytest.raises(ValueError):
            g.x[0] = 1.0


class TestTransformPair:
    def test_single_cosine_mode(self):
        g = Grid(64.0, 32)
        fld = analyze(np.cos(2 * np.pi * g.x / g.L), g)
        F = fld.spectrum
        assert F.shape == (g.N // 2 + 1,)
        assert F[1] == pytest.approx(0.5, abs=1e-14)
        others = np.delete(F, [1])
        assert np.abs(others).max() < 1e-14

    def test_constant_field(self):
        g = Grid(64.0, 32)
        fld = analyze(np.ones(g.N), g)
        assert fld.spectrum[0] == pytest.approx(1.0)
        assert np.abs(fld.spectrum[1:]).max() < 1e-15

    def test_matches_direct_summation(self, rng):
        # frozen oracle: naive O(N^2) DFT at N=32
        g = Grid(10.0, 32)
        f = rng.standard_normal(g.N)
        F = analyze(f, g).spectrum
        F_ref = dft_direct(f, g)
        assert np.abs(F - F_ref).max() < 100 * EPS * np.abs(f).max()

    @given(any_real_fields)
    def test_round_trip(self, f):
        g = Grid(50.0, f.size)
        back = synthesize(analyze(f, g).spectrum, g)
        scale = max(np.abs(f).max(), 1e-300)
        assert np.abs(back.samples - f).max() <= 100 * EPS * scale

    @given(any_real_fields)
    @example(np.ones(16))  # DC only
    @example(np.tile([1.0, -1.0], 8))  # Nyquist only
    @example(np.tile([3.0, -1.0], 8))  # DC and Nyquist
    @example(np.where(np.arange(100) == 3, 2.08e-159, 0.0))  # its square is subnormal
    def test_parseval(self, f):
        # (L/N) sum f^2 = L sum_k w_k |F_k|^2 over the half, w = (1, 2, .., 2, 1).
        # Both sides are homogeneous of degree 2, so the check runs on
        # f / max|f|: squares of tiny values would be subnormal and lose
        # the digits the tolerance asks for
        f = f / max(np.abs(f).max(), np.finfo(float).tiny)
        g = Grid(50.0, f.size)
        F = analyze(f, g).spectrum
        phys = (g.L / g.N) * float(np.sum(f**2))
        spec = g.L * float(np.sum(g.multiplicity * np.abs(F) ** 2))
        assert abs(phys - spec) <= 1e-13 * max(phys, spec, np.finfo(float).tiny)

    def test_synthesize_rejects_asymmetric_spectrum(self):
        # the only way a half spectrum can fail to describe a real field:
        # a non-real entry at k = 0 or k = N/2, whose imaginary part irfft
        # would drop
        g = Grid(64.0, 32)
        for k in (0, g.N // 2):
            F = np.zeros(g.N // 2 + 1, dtype=complex)
            F[k] = 1.0 + 1e-3j
            with pytest.raises(SymmetryError):
                synthesize(F, g)
        F = np.zeros(g.N // 2 + 1, dtype=complex)
        F[0], F[1], F[g.N // 2] = 1.0, 0.5 + 0.5j, 0.25
        r = 2 * np.pi * g.x / g.L
        expect = 1.0 + np.cos(r) - np.sin(r) + 0.25 * (-1.0) ** np.arange(g.N)
        assert np.abs(synthesize(F, g).samples - expect).max() < 1e-14

    def test_synthesize_rejects_full_length_spectrum(self):
        g = Grid(64.0, 32)
        with pytest.raises(ConfigurationError, match="spectrum has shape"):
            synthesize(np.zeros(g.N, dtype=complex), g)

    @pytest.mark.parametrize(
        "k, value",
        [(0, complex(1.0, np.nan)), (3, np.nan), (2, np.inf)],
        ids=["nan-imaginary-dc", "nan", "inf"],
    )
    def test_synthesize_rejects_non_finite_spectrum(self, k, value):
        # each passes the realness check (nan > tol is False, and interior
        # entries are not checked), so the finiteness check must catch it
        g = Grid(64.0, 32)
        F = np.zeros(g.N // 2 + 1, dtype=complex)
        F[k] = value
        with pytest.raises(ConfigurationError, match=r"^spectrum contains NaN/Inf$"):
            synthesize(F, g)

    def test_analyze_rejects_bad_input(self):
        g = Grid(64.0, 32)
        with pytest.raises(ConfigurationError):
            analyze(np.zeros(31), g)
        bad = np.zeros(32)
        bad[3] = np.nan
        with pytest.raises(ConfigurationError):
            analyze(bad, g)


# the package's two transforms bind numpy's private pocketfft gufuncs; the
# import above fails the suite if numpy drops that module
EVEN_N = (16, 24, 32, 100, 128, 256, 384, 512, 1000, 1024, 2048, 4096)


class TestRealTransformBinding:
    def test_module_binds_pocketfft(self):
        assert spectral._irfft is _pocketfft_umath.irfft
        assert spectral._rfft_n_even is _pocketfft_umath.rfft_n_even

    def test_numpy_fft_only_at_the_kernel_import(self):
        # read from the import and attribute nodes of the package source,
        # so docstrings may name numpy.fft; a new direct call fails here
        found = []
        for path in sorted(Path(spectral.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and node.attr == "fft":
                    found.append((path.name, ast.unparse(node)))
                elif isinstance(node, ast.Import):
                    found += [(path.name, f"import {a.name}") for a in node.names if a.name.startswith("numpy.fft")]
                elif isinstance(node, ast.ImportFrom) and (
                    (node.module or "").startswith("numpy.fft")
                    or node.module == "numpy" and any(a.name == "fft" for a in node.names)
                ):
                    found.append((path.name, f"from {node.module} import {', '.join(a.name for a in node.names)}"))
        assert found == [("spectral.py", "from numpy.fft._pocketfft_umath import irfft, rfft_n_even")]

    @pytest.mark.parametrize("N", EVEN_N)
    def test_bit_identical_to_numpy_fft(self, N, rng):
        # the rhs stacks 1, 2, 3 or 6 rows; samples and analyze take one
        for rows in (1, 2, 3, 6):
            # the rhs input is the band k = 0..N/4, zero-padded to N points
            for length in (N // 4 + 1, N // 2 + 1):
                F = rng.standard_normal((rows, length)) + 1j * rng.standard_normal((rows, length))
                out = np.empty((rows, N))
                assert spectral.irfft_into(F, out) is out
                assert out.tobytes() == np.fft.irfft(F, n=N, norm="forward").tobytes()
            f = rng.standard_normal((rows, N))
            out = np.empty((rows, N // 2 + 1), dtype=complex)
            assert spectral.rfft_into(f, out) is out
            assert out.tobytes() == np.fft.rfft(f).tobytes()
            # analyze's factor 1/N is numpy.fft's norm="forward"
            assert spectral.rfft_into(f, out, 1.0 / N) is out
            assert out.tobytes() == np.fft.rfft(f, norm="forward").tobytes()
        g = Grid(50.0, N)
        f = rng.standard_normal(N)
        assert analyze(f, g).spectrum.tobytes() == np.fft.rfft(f, norm="forward").tobytes()
        F = np.fft.rfft(f, norm="forward")
        assert synthesize(F, g).samples.tobytes() == np.fft.irfft(F, n=N, norm="forward").tobytes()


class TestLazySamples:
    def test_samples_are_one_irfft_on_first_read(self, rng, fft_counts):
        g = Grid(50.0, 64)
        F = np.fft.rfft(rng.standard_normal(g.N), norm="forward")
        expect = np.fft.irfft(F, n=g.N, norm="forward")
        fft_counts.update(rfft=0, irfft=0)
        fld = synthesize(F, g)
        assert (fft_counts["rfft"], fft_counts["irfft"]) == (0, 0)
        first = fld.samples
        assert fft_counts["irfft"] == 1
        assert first.tobytes() == expect.tobytes()
        assert fld.samples is first
        assert (fft_counts["rfft"], fft_counts["irfft"]) == (0, 1)
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            fld.samples = expect

    def test_field_built_from_a_spectrum_alone(self, rng):
        g = Grid(50.0, 64)
        F = np.fft.rfft(rng.standard_normal(g.N), norm="forward")
        fld = SpectralField(grid=g, spectrum=F)
        assert fld.samples.tobytes() == np.fft.irfft(F, n=g.N, norm="forward").tobytes()

    def test_analyze_keeps_its_samples(self, rng, fft_counts):
        g = Grid(50.0, 64)
        f = rng.standard_normal(g.N)
        fld = analyze(f, g)
        fft_counts.update(rfft=0, irfft=0)
        assert fld.samples.tobytes() == f.tobytes()
        assert fft_counts["irfft"] == 0
        assert not fld.samples.flags.writeable
        f[0] += 1.0  # a copy: the field does not follow its input
        assert fld.samples[0] != f[0]


class TestMultipliers:
    def test_deriv_on_cosine(self):
        g = Grid(2 * np.pi, 64)
        xi0 = 3.0
        fld = analyze(np.cos(xi0 * g.x), g)
        d = apply_symbol(fld, Deriv(1))
        assert np.abs(d.samples - (-xi0 * np.sin(xi0 * g.x))).max() < 1e-12

    def test_cosh_weight_frozen_value(self):
        # cosh(0.5 * 4) = cosh(2) = 3.7621956910836314
        g = Grid(2 * np.pi, 32)
        fld = analyze(np.cos(4.0 * g.x), g)
        w = cosh_weighted(fld, 0.5)
        ratio = w.spectrum[4].real / fld.spectrum[4].real
        assert ratio == pytest.approx(3.7621956910836314, rel=1e-12)

    @given(real_fields)
    def test_sech_inverts_cosh(self, f):
        g = Grid(50.0, f.size)
        fld = analyze(f, g)
        rt = sech_weighted(cosh_weighted(fld, 0.7), 0.7)
        scale = max(np.abs(f).max(), 1.0)
        assert np.abs(rt.samples - f).max() <= 10 * EPS * scale

    def test_sech_inverts_cosh_in_log_regime(self, rng):
        # sigma*max(xi) = 40 > 30 takes the oracle's log-space sech
        g = Grid(2 * np.pi, 64)
        fld = analyze(rng.standard_normal(g.N), g)
        sigma = 40.0 / g.xi[-1]
        rt = sech_weighted(cosh_weighted(fld, sigma), sigma)
        assert np.abs(rt.samples - fld.samples).max() <= 10 * EPS * np.abs(fld.samples).max()

    def test_sigma_zero_is_identity(self, rng):
        g = Grid(64.0, 32)
        fld = analyze(rng.standard_normal(g.N), g)
        for weighted in (cosh_weighted, sech_weighted):
            out = weighted(fld, 0.0)
            assert np.array_equal(out.spectrum, fld.spectrum)

    @given(real_fields)
    def test_third_derivative_composes(self, f):
        g = Grid(50.0, f.size)
        fld = analyze(f, g)
        once = apply_symbol(fld, Deriv(3))
        thrice = fld
        for _ in range(3):
            thrice = apply_symbol(thrice, Deriv(1))
        scale = max(np.abs(once.spectrum).max(), 1e-300)
        assert np.abs(once.spectrum - thrice.spectrum).max() <= 100 * EPS * scale

    def test_linear_flow_is_unitary_and_invertible(self, rng):
        g = Grid(64.0, 128)
        fld = analyze(rng.standard_normal(g.N), g)
        fwd = apply_symbol(fld, LinearFlow(m=5, sign=1, alpha=1.0, t=0.37))
        # moduli preserved away from the (zeroed) Nyquist mode
        interior = np.arange(g.N // 2 + 1) < g.N // 2
        assert np.allclose(np.abs(fwd.spectrum[interior]), np.abs(fld.spectrum[interior]))
        assert fwd.spectrum[g.N // 2] == 0.0
        back = apply_symbol(fwd, LinearFlow(m=5, sign=-1, alpha=1.0, t=0.37))
        live = fld.spectrum.copy()
        live[g.N // 2] = 0.0
        assert np.abs(back.spectrum - live).max() < 100 * EPS * np.abs(live).max()

    def test_odd_deriv_zeroes_nyquist(self):
        g = Grid(64.0, 32)
        w = Deriv(3).values(g)
        assert w[g.N // 2] == 0.0
        w2 = Deriv(2).values(g)
        assert w2[g.N // 2] != 0.0

    @pytest.mark.parametrize(
        "sym",
        [
            lambda: Deriv(-1),
            lambda: Deriv(1.5),
            lambda: cosh_weighted(analyze(np.ones(16), Grid(2 * np.pi, 16)), -1.0),
            lambda: sech_weighted(analyze(np.ones(16), Grid(2 * np.pi, 16)), -0.1),
            lambda: LinearFlow(m=4, sign=1, alpha=1.0, t=0.0),
            lambda: LinearFlow(m=3, sign=2, alpha=1.0, t=0.0),
            lambda: LinearFlow(m=3, sign=1, alpha=0.0, t=0.0),
            lambda: LinearFlow(m=3, sign=1, alpha=1.5, t=0.0),
        ],
    )
    def test_symbol_validation(self, sym):
        with pytest.raises(ConfigurationError):
            sym()


class TestOverflowGuard:
    def test_huge_weight_on_flat_spectrum_raises(self):
        # every coefficient is kept, and the top weights pass double range
        g = Grid(2 * np.pi, 64)
        sigma = 1000.0 / g.xi[-1]  # sigma * max(xi) = 1000 > 709.8
        F = np.full(g.N // 2 + 1, 1e-3, dtype=complex)
        fld = synthesize(F, g)
        with pytest.raises(OverflowGuardError, match=r"^weighted norm exceeds double range at state 0, sigma = 31\.25$"):
            hsigma_norm(fld, sigma, 0.0)

    def test_huge_weight_on_decaying_spectrum_survives(self):
        # coefficients fall like exp(-0.5*sigma*|xi|), so every mode whose
        # weight overflows lies below the noise floor and counts as zero:
        # the norm is finite and matches the log-space oracle
        g = Grid(2 * np.pi, 64)
        sigma = 1000.0 / g.xi[-1]
        F = np.exp(-0.5 * sigma * g.xi).astype(complex)
        fld = synthesize(F, g)
        kept = np.abs(F) >= 1e-13 * np.abs(F).max()
        with np.errstate(over="ignore"):
            weight = np.cosh(sigma * g.xi)
        assert np.isinf(weight[~kept]).any() and np.isfinite(weight[kept]).all()
        val = hsigma_norm(fld, sigma, 0.0)
        ref = log_space_norm(fld, sigma, 0.0)
        assert abs(val - ref) <= 1e-13 * ref

    def test_log_cosh_accuracy(self):
        # the oracle's log cosh, behind its log-space norm and sech weight
        r = np.array([0.0, 1e-8, 0.5, 2.0, 20.0])
        assert np.abs(log_cosh(r) - np.log(np.cosh(r))).max() < 1e-14
        # far beyond overflow: log cosh(r) ~ |r| - log 2
        assert log_cosh(np.array([5000.0]))[0] == pytest.approx(5000.0 - np.log(2.0))


class TestDealias:
    def test_band_limited_field_unchanged(self, rng):
        g = Grid(64.0, 64)
        F = np.zeros(g.N // 2 + 1, dtype=complex)
        for k in (1, 5, 16):  # 16 = N/4 stays
            F[k] = rng.standard_normal() + 1j * rng.standard_normal()
        fld = synthesize(F, g)
        out = dealias(fld)
        assert np.array_equal(out.spectrum, fld.spectrum)

    def test_high_mode_zeroed(self):
        g = Grid(64.0, 64)
        F = np.zeros(g.N // 2 + 1, dtype=complex)
        F[g.N // 2 - 1] = 1.0
        out = dealias(synthesize(F, g))
        assert np.all(out.spectrum == 0)

    def test_cube_matches_padded_oracle(self, rng):
        """Pseudospectral u^3 with the 1/2 rule against a 3x zero-padded
        product, which is alias-free by construction.

        With input modes strictly inside the band (|k| <= N/4 - 1) the two
        agree on every kept mode; a saturated band (mode N/4 populated) can
        alias triple products onto +-N/4 only, so interior modes still agree.
        """
        N = 64
        g = Grid(30.0, N)

        def padded_cube(F):
            w = np.fft.irfft(pad_spectrum(F, N, 3), n=3 * N, norm="forward")
            return np.fft.rfft(w**3, norm="forward")[: N // 4 + 1]

        # strict interior band: exact agreement on all kept modes
        F = np.zeros(N // 2 + 1, dtype=complex)
        for k in range(1, N // 4):
            F[k] = rng.standard_normal() + 1j * rng.standard_normal()
        u = synthesize(F, g)
        cubed = dealias(analyze(u.samples**3, g))
        oracle = padded_cube(F)
        assert np.abs(cubed.spectrum[: N // 4 + 1] - oracle).max() < 1e-12

        # saturated band: interior modes |k| < N/4 still exact
        F[N // 4] = 0.8
        u = synthesize(F, g)
        cubed = dealias(analyze(u.samples**3, g))
        oracle = padded_cube(F)
        assert np.abs(cubed.spectrum[: N // 4] - oracle[: N // 4]).max() < 1e-12


class TestRefinement:
    def test_refined_grid_interpolates(self, rng):
        g = Grid(64.0, 32)
        fld = analyze(rng.standard_normal(g.N), g)
        fine = refined_samples(fld, factor=2)
        assert np.abs(fine[::2] - fld.samples).max() < 1e-12

    def test_quartic_quadrature_exact_for_dealiased_field(self, rng):
        # band 4*(N/4) = N < 2N: the doubled grid integrates u^4 exactly
        g = Grid(64.0, 64)
        fld = dealias(analyze(rng.standard_normal(g.N), g))
        fine = refined_samples(fld, factor=2)
        q = (g.L / fine.size) * np.sum(fine**4)
        w = refined_samples(fld, factor=8)
        q_ref = (g.L / w.size) * np.sum(w**4)
        assert q == pytest.approx(q_ref, rel=1e-13)

    def test_sextic_quadrature_exact_for_dealiased_field(self, rng):
        # band 6*(N/4) = 3N/2 < 2N: still exact on the doubled grid
        g = Grid(64.0, 64)
        fld = dealias(analyze(rng.standard_normal(g.N), g))
        fine = refined_samples(fld, factor=2)
        q = (g.L / fine.size) * np.sum(fine**6)
        w = refined_samples(fld, factor=8)
        q_ref = (g.L / w.size) * np.sum(w**6)
        assert q == pytest.approx(q_ref, rel=1e-13)
