"""Flow right-hand sides, damping profiles, and the integrating-factor RK4 loop.

Oracle strategy: single-mode trigonometric identities for the rhs operators,
the closed-form soliton (speed k^2, peak sqrt(6) k, transform radius pi/(2k))
for the full solver, and exact linear-damped decay for the damping path.
Tolerances were calibrated against the analysis in the module docstrings;
they are not round-trip self-checks.
"""

import math
import os
import re
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import package_names, packaged_text
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import Deriv, LinearFlow, apply_symbol, product_rule_rhs, reflect

from gevreyflow import dynamics, spectral
from gevreyflow.analytics import functional_A, functional_M
from gevreyflow.config import parse_config_text
from gevreyflow.dynamics import (
    BLOWUP_LIMIT,
    Equation,
    EvolutionSpec,
    RaisedCosineDamping,
    MAX_PLAN_BYTES,
    MAX_PLAN_STEPS,
    RecordedStates,
    Trajectory,
    integrate,
    linear_symbol,
    nonlinear_term,
    plan_run,
    sech,
    soliton,
)
from gevreyflow.errors import BlowUpError, ConfigurationError, DivergenceError, DtGuardError
from gevreyflow.spectral import (
    Grid,
    SpectralField,
    analyze,
    dealias,
    noise_floor,
    synthesize,
)

EPS = np.finfo(float).eps


def l2(fld):
    g = fld.grid
    return math.sqrt(g.L * float(np.sum(g.multiplicity * np.abs(fld.spectrum) ** 2)))


def evaluated(eq, g, V):
    """(N(V), samples of V) from one evaluation of a freshly built
    nonlinear_term, with the samples copied out of its buffer."""
    evaluate, samples = nonlinear_term(eq, g)
    out = np.empty(V.shape, dtype=complex)
    evaluate(V, out)
    return out, samples.copy()


def rhs(eq, *fields):
    """Full rhs (dispersion plus nonlinear_term) of the given fields, one
    SpectralField per component, through the integrator's band k = 0..N/4;
    the result is padded with zeros to the half spectrum."""
    g = fields[0].grid
    band = g.N // 4 + 1
    V = np.stack([f.spectrum[:band] for f in fields])
    sym = np.stack([linear_symbol(g, eq.m, alpha) for alpha in eq.alphas])
    NV, _ = evaluated(eq, g, V)
    half = np.zeros((len(fields), g.xi.size), dtype=complex)
    half[:, :band] = sym * V + NV
    return [synthesize(H, g) for H in half]


def end_record(dt, t_end):
    """record_every that keeps only the endpoint."""
    return max(1, round(t_end / dt))


class TestDampingProfiles:
    def test_constant_values_and_sups(self):
        # amplitude 0 is the constant damping: every derivative vanishes
        g = Grid(64.0, 64)
        a = RaisedCosineDamping(0.7, 0.0, g.L)
        assert a.sup == 0.7
        assert a.deriv_sup(0) == 0.7
        assert a.deriv_sup(3) == 0.0
        assert a.deriv_bound_rate == 0.0
        assert np.all(a.values(g) == 0.7)

    def test_raised_cosine_formula(self):
        g = Grid(64.0, 256)
        a = RaisedCosineDamping(floor=1.0, amplitude=0.5, length=64.0)
        vals = a.values(g)
        expect = 1.0 + 0.5 * (1.0 + np.cos(2.0 * np.pi * g.x / 64.0))
        assert np.allclose(vals, expect, rtol=0, atol=1e-15)
        assert vals.min() >= 1.0  # floor attained, never undershot
        assert a.sup == 2.0

    @pytest.mark.parametrize("amplitude", [0.5, 0.0])
    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("N", [256, 1024, 2048, 8192])
    def test_raised_cosine_deriv_sups_match_spectral(self, N, k, amplitude):
        # the closed form amplitude*(2 pi/L)^k, the profile's (A2)
        # certificate, against spectral differentiation with the round-off
        # modes dropped first, which xi^k would lift past the bound
        g = Grid(64.0, N)
        a = RaisedCosineDamping(floor=1.0, amplitude=amplitude, length=64.0)
        spectrum = analyze(a.values(g), g).spectrum.copy()
        spectrum[np.abs(spectrum) < noise_floor(spectrum)] = 0.0
        measured = np.abs(apply_symbol(synthesize(spectrum, g), Deriv(k)).samples).max()
        if amplitude == 0:
            assert measured == 0.0
        else:
            assert measured == pytest.approx(a.deriv_sup(k), rel=1e-10)
        assert measured <= a.sup * a.deriv_bound_rate**k * math.factorial(k)

    def test_raised_cosine_rejects_foreign_grid(self):
        a = RaisedCosineDamping(floor=1.0, amplitude=0.5, length=64.0)
        with pytest.raises(ConfigurationError, match="domain length"):
            a.values(Grid(32.0, 64))

    def test_certificate_makes_no_transform(self, monkeypatch):
        # the closed form is the certificate: no spectral re-check
        def refuse(*args, **kwargs):
            raise AssertionError("the damping profile called a transform")

        monkeypatch.setattr(spectral, "rfft_into", refuse)
        monkeypatch.setattr(spectral, "irfft_into", refuse)
        a = RaisedCosineDamping(1.0, 0.5, 64.0)
        assert (a.sup, a.deriv_bound_rate, a.deriv_sup(3)) == (2.0, 2.0 * np.pi / 64.0, 0.5 * (2.0 * np.pi / 64.0) ** 3)

    @pytest.mark.parametrize(
        "floor, amplitude, length, pattern",
        [
            (0.0, 0.5, 64.0, r"^damping floor must be positive \(A1\) and finite, got 0\.0$"),
            (-1.0, 0.5, 64.0, r"^damping floor must be positive \(A1\) and finite, got -1\.0$"),
            (math.nan, 0.5, 64.0, r"^damping floor must be positive \(A1\) and finite, got nan$"),
            # (A1) is checked first
            (-1.0, -0.5, 64.0, r"^damping floor must be positive \(A1\) and finite, got -1\.0$"),
            (1.0, -0.5, 64.0, r"^damping amplitude must be >= 0 and floor \+ 2 amplitude finite, got -0\.5$"),
            (1.0, math.nan, 64.0, r"^damping amplitude must be >= 0 and floor \+ 2 amplitude finite, got nan$"),
            (1.0, 0.5, 0.0, r"^damping length must be positive and finite, got 0\.0$"),
            (1.0, 0.5, math.inf, r"^damping length must be positive and finite, got inf$"),
            # an infinite floor or amplitude made every sup and norm inf
            (math.inf, 0.0, 64.0, r"^damping floor must be positive \(A1\) and finite, got inf$"),
            (1.0, math.inf, 64.0, r"^damping amplitude must be >= 0 and floor \+ 2 amplitude finite, got inf$"),
            # a finite amplitude whose sup overflowed the profile, and the dt guard read 0
            (1.0, 1e308, 64.0, r"^damping amplitude must be >= 0 and floor \+ 2 amplitude finite, got 1e\+308$"),
        ],
        ids=["floor-0", "floor-neg", "floor-nan", "floor-and-amplitude-neg", "amplitude-neg", "amplitude-nan",
             "length-0", "length-inf", "floor-inf", "amplitude-inf", "amplitude-sup-inf"],
    )
    def test_rejects_inputs_outside_its_certificate(self, floor, amplitude, length, pattern):
        # the type checks what (A1) and its closed form need; nan fails every check
        with pytest.raises(ConfigurationError, match=pattern) as err:
            RaisedCosineDamping(floor, amplitude, length)
        assert err.value.key in ("floor", "amplitude", "length")

    def test_profile_of_a_finite_sup_is_finite(self):
        # floor + 2 amplitude = 2e307 bounds every value, so none overflows
        a = RaisedCosineDamping(1.0, 1e307, 64.0)
        assert np.isfinite(a.values(Grid(64.0, 64))).all() and a.sup == 2e307


class TestEquationTypes:
    """Equation states all three flows; it rejects what MKdV, MKdVm and
    Coupled rejected, and the shapes their union ruled out by type."""

    def test_mu_validation(self):
        a = RaisedCosineDamping(1.0, 0.0, 64.0)
        for bad in (2, 0, 3, -2):
            for kwargs in ({}, {"m": 5, "dampings": (a,)}, {"alphas": (1.0, 0.5), "dampings": (a, a)}):
                with pytest.raises(ConfigurationError, match="mu must be"):
                    Equation(mu=bad, **kwargs)

    def test_mkdvm_order_validation(self):
        a = RaisedCosineDamping(1.0, 0.0, 64.0)
        for bad in (1, 4, -3):
            with pytest.raises(ConfigurationError, match="order must be odd"):
                Equation(mu=1, m=bad, dampings=(a,))
        # m = 3 is admitted as a cross-check configuration
        assert Equation(mu=1, m=3, dampings=(a,)).m == 3
        assert Equation(mu=-1, m=7, dampings=(a,)).m == 7

    def test_coupled_alpha_validation(self):
        a = RaisedCosineDamping(1.0, 0.0, 64.0)
        for bad in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ConfigurationError, match=r"\(0, 1\)"):
                Equation(mu=1, alphas=(1.0, bad), dampings=(a, a))

    def test_dispersion_ratio_shape(self):
        # the first ratio is 1, and there are one or two components
        for bad in ((), (0.5,), (2.0, 0.5), (1.0, 0.5, 0.25)):
            with pytest.raises(ConfigurationError, match="dispersion ratios must be"):
                Equation(mu=1, alphas=bad)

    def test_one_damping_per_component_or_none(self):
        a = RaisedCosineDamping(1.0, 0.0, 64.0)
        for alphas, dampings in (((1.0,), (a, a)), ((1.0, 0.5), (a,)), ((1.0, 0.5), (a, a, a))):
            with pytest.raises(ConfigurationError, match="one profile per component"):
                Equation(mu=1, alphas=alphas, dampings=dampings)
        assert Equation(mu=1, alphas=(1.0, 0.5)).dampings == ()

    def test_defaults_are_mkdv(self):
        eq = Equation(mu=-1)
        assert (eq.m, eq.alphas, eq.dampings) == (3, (1.0,), ())

    def test_spec_validation(self):
        eq = Equation(mu=1)
        with pytest.raises(ConfigurationError):
            EvolutionSpec(equation=eq, dt=0.0, t_end=1.0, record_every=1)
        with pytest.raises(ConfigurationError):
            EvolutionSpec(equation=eq, dt=1e-3, t_end=-1.0, record_every=1)
        with pytest.raises(ConfigurationError):
            EvolutionSpec(equation=eq, dt=1e-3, t_end=1.0, record_every=0)


class TestRhs:
    def test_zero_field_maps_to_zero(self):
        g = Grid(2.0 * np.pi, 64)
        z = analyze(np.zeros(g.N), g)
        (out,) = rhs(Equation(mu=1), z)
        assert np.all(out.samples == 0.0)
        (out,) = rhs(Equation(mu=-1, m=5, dampings=(RaisedCosineDamping(1.0, 0.0, g.L),)), z)
        assert np.all(out.samples == 0.0)
        a1, a2 = RaisedCosineDamping(1.0, 0.0, g.L), RaisedCosineDamping(2.0, 0.0, g.L)
        eq = Equation(mu=1, alphas=(1.0, 0.5), dampings=(a1, a2))
        r1, r2 = rhs(eq, z, z)
        assert np.all(r1.samples == 0.0) and np.all(r2.samples == 0.0)

    def test_cosine_mode_closed_form(self):
        # u = cos(x) on [0, 2 pi):  -u''' - u^2 u' = -sin - cos^2 (-sin) = -sin^3.
        # Transform crumbs get amplified by xi_cut^3 = 16^3, hence the tolerance.
        g = Grid(2.0 * np.pi, 64)
        u = dealias(analyze(np.cos(g.x), g))
        (out,) = rhs(Equation(mu=1), u)
        assert np.abs(out.samples + np.sin(g.x) ** 3).max() < 1e-11

    def test_fifth_order_single_mode(self):
        # m=5: dv/dt = +d^5 v - mu dealias(v^2 v_x) - a v on a single cosine;
        # crumb amplification here is xi_cut^5 ~ 1e6 eps
        g = Grid(2.0 * np.pi, 64)
        xi0 = 2.0
        v = dealias(analyze(np.cos(xi0 * g.x), g))
        lam = 0.4
        (out,) = rhs(Equation(mu=1, m=5, dampings=(RaisedCosineDamping(lam, 0.0, g.L),)), v)
        expect = (
            -(xi0**5) * np.sin(xi0 * g.x)
            + xi0 * np.cos(xi0 * g.x) ** 2 * np.sin(xi0 * g.x)
            - lam * np.cos(xi0 * g.x)
        )
        assert np.abs(out.samples - expect).max() < 1e-9

    def test_constant_damping_contribution(self):
        g = Grid(64.0, 256)
        v = dealias(analyze(0.8 * np.cos(2 * np.pi * 5 * g.x / g.L), g))
        lam = 0.6
        (with_damp,) = rhs(Equation(mu=1, m=3, dampings=(RaisedCosineDamping(lam, 0.0, g.L),)), v)
        (undamped,) = rhs(Equation(mu=1), v)
        diff = with_damp.samples - (undamped.samples - lam * v.samples)
        assert np.abs(diff).max() < 1e-13

    def test_coupled_degenerate_second_component(self):
        # w2 = 0 kills both nonlinear products: component 1 is damped Airy
        g = Grid(64.0, 256)
        w1 = dealias(analyze(np.cos(2 * np.pi * 4 * g.x / g.L), g))
        z = analyze(np.zeros(g.N), g)
        lam = 0.3
        a1, a2 = RaisedCosineDamping(lam, 0.0, g.L), RaisedCosineDamping(1.0, 0.0, g.L)
        eq = Equation(mu=1, alphas=(1.0, 0.5), dampings=(a1, a2))
        r1, r2 = rhs(eq, w1, z)
        airy = apply_symbol(w1, Deriv(3))
        assert np.abs(r1.samples - (-airy.samples - lam * w1.samples)).max() < 1e-12
        assert np.abs(r2.samples).max() == 0.0

    def test_coupled_grid_mismatch(self):
        g1, g2 = Grid(64.0, 256), Grid(32.0, 256)
        a = RaisedCosineDamping(1.0, 0.0, g1.L)
        w1 = analyze(np.cos(2 * np.pi * g1.x / g1.L), g1)
        w2 = analyze(np.cos(2 * np.pi * g2.x / g2.L), g2)
        spec = EvolutionSpec(equation=Equation(mu=1, alphas=(1.0, 0.5), dampings=(a, a)),
                             dt=1e-3, t_end=1e-3, record_every=1)
        with pytest.raises(ConfigurationError, match="grid"):
            integrate(spec, (w1, w2))

    def test_rhs_rejects_nonfinite(self):
        # a non-finite mode reaches the samples that the blow-up check reads
        g = Grid(64.0, 64)
        spectrum = np.zeros(g.N // 2 + 1, dtype=complex)
        spectrum[3] = np.nan
        _, v = evaluated(Equation(mu=1), g, spectrum[None, : g.N // 4 + 1])
        assert not np.all(np.isfinite(v))
        fld = SpectralField(grid=g, spectrum=spectrum)
        spec = EvolutionSpec(equation=Equation(mu=1), dt=1e-3, t_end=1e-3, record_every=1)
        with pytest.raises(DivergenceError, match="blow-up abort at t = 0"):
            integrate(spec, fld)

    @pytest.mark.parametrize("flow", [0, 1, 2])
    def test_integrate_builds_its_rhs_through_nonlinear_term(self, flow, monkeypatch):
        # the rhs the tests check is the rhs the loop runs: one build per
        # integrate call, through the public builder
        g = Grid(64.0, 256)
        eq, init = three_flows(g)[flow]
        calls = []

        def counted(*args):
            calls.append(args)
            return nonlinear_term(*args)

        monkeypatch.setattr(dynamics, "nonlinear_term", counted)
        integrate(EvolutionSpec(equation=eq, dt=1e-3, t_end=0.01, record_every=5), init)
        assert calls == [(eq, g)]

    def test_rhs_validation(self):
        # the equation types carry the preconditions nonlinear_term relies on
        with pytest.raises(ConfigurationError):
            Equation(mu=3)
        a = RaisedCosineDamping(1.0, 0.0, 64.0)
        with pytest.raises(ConfigurationError):
            Equation(mu=1, m=4, dampings=(a,))
        with pytest.raises(ConfigurationError):
            Equation(mu=1, alphas=(1.0, 1.0), dampings=(a, a))

    @settings(max_examples=60, deadline=None)
    @given(
        N=st.sampled_from([16, 32, 64, 128, 512]),
        family=st.sampled_from(["mkdv", "mkdvm", "coupled"]),
        nonlinear=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_output_vanishes_outside_band(self, N, family, nonlinear, seed):
        # the band k = 0..N/4 is the layout itself: N(V) has exactly the
        # band's entries, so nothing outside it (Nyquist included) exists
        g = Grid(64.0, N)
        a = RaisedCosineDamping(floor=0.5, amplitude=0.25, length=64.0)
        eq = {
            "mkdv": Equation(mu=1, nonlinear=nonlinear),
            "mkdvm": Equation(mu=-1, m=5, dampings=(a,), nonlinear=nonlinear),
            "coupled": Equation(mu=1, alphas=(1.0, 0.5), dampings=(a, RaisedCosineDamping(1.0, 0.0, g.L)),
                                nonlinear=nonlinear),
        }[family]
        rng = np.random.default_rng(seed)
        shape = (len(eq.alphas), N // 4 + 1)
        V = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        out, v = evaluated(eq, g, V)
        assert v.shape == shape[:-1] + (N,)
        if nonlinear or family != "mkdv":
            assert np.any(out != 0.0)


SINGLE_FLOWS = {
    "mkdv+": Equation(mu=1),
    "mkdv-": Equation(mu=-1),
    "mkdvm": Equation(mu=-1, m=5, dampings=(RaisedCosineDamping(floor=0.5, amplitude=0.25, length=64.0),)),
}


class TestConservativeForm:
    """nonlinear_term differentiates v^3 in Fourier space; the product-rule
    form mu v^2 v_x of oracles.product_rule_rhs is the reference."""

    @settings(max_examples=60, deadline=None)
    @given(
        N=st.sampled_from([16, 32, 64, 128, 512]),
        flow=st.sampled_from(sorted(SINGLE_FLOWS)),
        scale=st.sampled_from([1e-3, 1.0, 30.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_product_rule_without_edge_mode(self, N, flow, scale, seed):
        # with V_{N/4} = 0 no cubic product aliases into the band, so both
        # forms are the same exact convolution and differ by round-off
        g = Grid(64.0, N)
        eq = SINGLE_FLOWS[flow]
        rng = np.random.default_rng(seed)
        band = N // 4 + 1
        V = scale * (rng.standard_normal((1, band)) + 1j * rng.standard_normal((1, band))) / band
        V[:, 0] = V[:, 0].real
        V[:, -1] = 0.0
        got, _ = evaluated(eq, g, V)
        ref = product_rule_rhs(eq, g, V)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("flow", sorted(SINGLE_FLOWS))
    def test_edge_mode_differs_only_at_the_edge(self, flow):
        # V_K != 0, K = N/4: the (K, K, K) triple aliases onto +-K.  Only
        # k = K moves, by -(4/3) mu i xi_K conj(V_K)^3, the conservative
        # -(mu/3) i xi_K minus the product-rule +mu i xi_K
        g = Grid(64.0, 64)
        eq = SINGLE_FLOWS[flow]
        K = g.N // 4
        V = np.zeros((1, K + 1), dtype=complex)
        V[0, [0, 3, 7, K - 1, K]] = [0.2, 0.5 - 0.1j, 0.3j, 0.1, 0.4 + 0.3j]
        got, _ = evaluated(eq, g, V)
        ref = product_rule_rhs(eq, g, V)
        scale = np.abs(ref).max()
        assert np.abs(got[0, :K] - ref[0, :K]).max() <= 1e-13 * scale
        alias = -(4.0 / 3.0) * eq.mu * 1j * g.xi[K] * np.conj(V[0, K]) ** 3
        assert abs(alias) > 0.1 * scale
        assert abs((got[0, K] - ref[0, K]) - alias) <= 1e-13 * scale


def three_flows(g):
    """(equation, band-limited initial state) for mKdV, damped m = 5 and coupled."""
    a = RaisedCosineDamping(floor=0.5, amplitude=0.25, length=g.L)
    u, _ = soliton(1.0, g.L / 2.0, g)
    u = dealias(u)
    w2 = dealias(analyze(0.5 * np.cos(2.0 * np.pi * 3.0 * g.x / g.L), g))
    return [
        (Equation(mu=1), u),
        (Equation(mu=-1, m=5, dampings=(a,)), u),
        (Equation(mu=1, alphas=(1.0, 0.5), dampings=(a, RaisedCosineDamping(1.0, 0.0, g.L))), (u, w2)),
    ]


def half_spectra(init):
    """The (C, N/2+1) stack of a state's half spectra, one row per component."""
    return np.stack([f.spectrum for f in (init if isinstance(init, tuple) else (init,))])


class TestBuffers:
    """nonlinear_term and integrate reuse scratch arrays; nothing a caller
    keeps may change afterwards."""

    @pytest.mark.parametrize("flow", [0, 1, 2])
    def test_results_held_at_once_match_fresh_evaluations(self, flow):
        # an evaluation writes only its out and the samples buffer: V is
        # read-only here, an out held from an earlier call keeps its values,
        # and the same V evaluated again gives both results bit for bit
        g = Grid(64.0, 256)
        eq, init = three_flows(g)[flow]
        rng = np.random.default_rng(flow)
        V1 = half_spectra(init)[..., : g.N // 4 + 1]
        V2 = V1 + 0.01 * (rng.standard_normal(V1.shape) + 1j * rng.standard_normal(V1.shape))
        V2[..., 0] = V2[..., 0].real
        V1_in, V2_in = V1.copy(), V2.copy()
        V1.flags.writeable = V2.flags.writeable = False
        evaluate, samples = nonlinear_term(eq, g)
        out1, out2, again = (np.empty_like(V1) for _ in range(3))
        evaluate(V1, out1)
        w1 = samples.copy()
        evaluate(V2, out2)
        for out, w, V in ((out1, w1, V1), (out2, samples, V2)):
            fresh_out, fresh_w = evaluated(eq, g, V)
            assert np.array_equal(out, fresh_out) and np.array_equal(w, fresh_w)
        assert not np.array_equal(out1, out2) and not np.array_equal(w1, samples)
        evaluate(V1, again)
        assert np.array_equal(again, out1) and np.array_equal(samples, w1)
        assert np.array_equal(V1, V1_in) and np.array_equal(V2, V2_in)

    def test_mode_count_bound_holds_the_grid_and_one_rhs_evaluation_in_2_30_bytes(self):
        # the damped pair's rhs is the largest: 108 N bytes, and the grid's arrays 16 N
        N, band = 2**16, 2**14 + 1
        V, out = np.zeros((2, band), dtype=complex), np.empty((2, band), dtype=complex)
        a = RaisedCosineDamping(1.0, 0.25, 64.0)
        tracemalloc.start()
        try:
            grid = Grid(64.0, N)
            evaluate, _ = nonlinear_term(Equation(mu=1, alphas=(1.0, 0.5), dampings=(a, a)), grid)
            evaluate(V, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 124 * N <= peak < 124 * N + 2**14
        assert 124 * spectral.MAX_N <= 2**30 < 124 * 2 * spectral.MAX_N
        # the largest N the tests use, and the benchmark's
        assert Grid(64.0, 8192).N == 8192 and Grid(64.0, 2048).N == 2048

    @pytest.mark.parametrize("flow", [0, 1, 2])
    def test_records_match_runs_stopped_there(self, flow):
        g = Grid(64.0, 256)
        eq, init = three_flows(g)[flow]
        spectra_in = half_spectra(init).copy()
        dt = 2.0**-10  # j * dt / j == dt exactly, so every run steps with h = dt
        n = 4
        traj = integrate(EvolutionSpec(equation=eq, dt=dt, t_end=n * dt, record_every=1), init)
        assert np.array_equal(half_spectra(init), spectra_in)
        for j in range(1, n + 1):
            stopped = integrate(EvolutionSpec(equation=eq, dt=dt, t_end=j * dt, record_every=j), init)
            assert np.array_equal(half_spectra(traj.states[j]), half_spectra(stopped.final)), j
        assert not np.array_equal(half_spectra(traj.states[1]), half_spectra(traj.states[2]))


class TestRecordedStates:
    """A trajectory's states are read from one read-only (R, C, N/4+1)
    array of band rows, each state built on its read; nothing holds them
    in the full half."""

    @pytest.mark.parametrize("flow", [0, 1, 2])
    def test_a_state_is_its_band_row_padded_with_zeros(self, flow):
        g = Grid(64.0, 256)
        eq, init = three_flows(g)[flow]
        traj = integrate(EvolutionSpec(equation=eq, dt=1e-3, t_end=4e-3, record_every=1), init)
        band, C = traj.states.band, len(eq.alphas)
        assert band.shape == (5, C, g.band) and not band.flags.writeable
        for i in range(-5, 5):
            padded = np.zeros((C, g.xi.size), dtype=complex)
            padded[:, : g.band] = band[i]
            assert np.array_equal(half_spectra(traj.states[i]), padded), i
        assert np.array_equal(half_spectra(traj.final), half_spectra(traj.states[4]))
        with pytest.raises(IndexError):
            traj.states[5]

    def test_a_read_builds_its_fields_without_synthesize(self, monkeypatch):
        # record has checked every state, so a read neither copies nor checks
        # it again; the name dynamics binds is where such a call would go
        calls = []

        def counted(*args):
            calls.append(args)
            return spectral.synthesize(*args)

        monkeypatch.setattr(dynamics, "synthesize", counted, raising=False)
        g = Grid(64.0, 256)
        for eq, init in three_flows(g):
            traj = integrate(EvolutionSpec(equation=eq, dt=1e-3, t_end=4e-3, record_every=1), init)
            for state in [*traj.states, traj.final]:
                fields = state if isinstance(state, tuple) else (state,)
                assert all(not f.spectrum.flags.writeable for f in fields)
        assert calls == []

    def test_a_slice_is_a_view_of_the_same_rows(self):
        g = Grid(64.0, 256)
        eq, init = three_flows(g)[0]
        traj = integrate(EvolutionSpec(equation=eq, dt=1e-3, t_end=4e-3, record_every=1), init)
        odd = traj.states[1::2]
        assert isinstance(odd, RecordedStates) and len(odd) == 2
        assert np.shares_memory(odd.band, traj.states.band)
        assert [s.spectrum.tobytes() for s in odd] == [traj.states[i].spectrum.tobytes() for i in (1, 3)]

    def test_functionals_over_the_view_equal_those_over_its_states(self):
        g = Grid(64.0, 256)
        _, init = three_flows(g)[0]
        traj = integrate(EvolutionSpec(equation=Equation(mu=-1), dt=1e-3, t_end=0.01, record_every=2), init)
        sigmas = np.array([0.0, 0.1, 0.4])
        held = tuple(traj.states)
        A, A_held = functional_A(traj.states, sigmas, -1), functional_A(held, sigmas, -1)
        assert A.total.tobytes() == A_held.total.tobytes()
        assert {k: v.tobytes() for k, v in A.terms.items()} == {k: v.tobytes() for k, v in A_held.terms.items()}
        assert functional_M(traj.states, sigmas).tobytes() == functional_M(held, sigmas).tobytes()

    def test_integrate_retains_its_band_array_and_functional_A_only_scratch(self):
        # the bench's sigma-dense spec: 1001 records of N = 512, 7 radii; a
        # full-half field per record would retain twice the band array
        sigmas = [0.05, 0.07, 0.1, 0.14, 0.2, 0.28, 0.4]
        overrides = ["evolution.t_end=1.0", "evolution.record_every=5", f"run.sigmas={sigmas}"]
        spec, init = parse_config_text(packaged_text("sigma_scaling"), overrides).build()
        N, R, P = init.grid.N, 1001, len(sigmas)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            traj = integrate(spec, init)
            retained = tracemalloc.get_traced_memory()[0] - before
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            functional_A(traj.states, np.array(sigmas), -1)
            added = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        band = traj.states.band.nbytes
        assert band == R * (N // 4 + 1) * 16
        assert retained <= 1.1 * band  # about 2.2 MB
        # functional_A's scratch: rows of a few times 2N points per radius,
        # and at most 12 (R, P) arrays of doubles; it holds no copy of the
        # states, which would take at least another band's bytes
        scratch = 160 * P * N + 96 * R * P
        assert added <= scratch < band

    def test_observed_run_retains_only_its_rows(self):
        # the same spec, observed as the sigma-scaling body observes it: the
        # run keeps the (R, P) totals, not the 2.07 MB of band rows
        sigmas = np.array([0.05, 0.07, 0.1, 0.14, 0.2, 0.28, 0.4])
        overrides = ["evolution.t_end=1.0", "evolution.record_every=5", f"run.sigmas={sigmas.tolist()}"]
        spec, init = parse_config_text(packaged_text("sigma_scaling"), overrides).build()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            traj = integrate(spec, init, lambda states, times: functional_A(states, sigmas, -1).total)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        block = dynamics.RECORD_BLOCK * (init.grid.N // 4 + 1) * 16
        assert traj.observed.shape == (1001, 7) and traj.states is None
        assert retained <= block + traj.observed.nbytes  # about 0.12 of 0.19 MB


def masses_and_times(states, times):
    """An observer: each state's record time and the functional_M of each
    of its components at sigma = 0 and 0.1, one row per state."""
    parts = tuple(zip(*states)) if isinstance(states[0], tuple) else (states,)
    return np.column_stack([times] + [functional_M(part, [0.0, 0.1]) for part in parts])


def logged(observe, calls):
    """observe, appending the record times of each of its calls to calls."""

    def observed(states, times):
        calls.append(times.tolist())
        return observe(states, times)

    return observed


def poison(monkeypatch, record, value=np.inf):
    """Make the last rhs evaluation of the step before record `record` write
    value: by default inf, so that record's state is not finite, or a large
    finite value, which puts it past the cap; returns the list that counts
    the evaluations."""
    real, evaluations = dynamics.nonlinear_term, []

    def poisoned(eq, grid):
        evaluate, samples = real(eq, grid)

        def evaluate_poisoned(V, out):
            evaluate(V, out)
            evaluations.append(None)
            if len(evaluations) == 4 * record:
                out[...] = value

        return evaluate_poisoned, samples

    monkeypatch.setattr(dynamics, "nonlinear_term", poisoned)
    return evaluations


def finite_only(states, times):
    """An observer that fails on a state that is not finite, else returns
    the record times."""
    if not np.isfinite(states.band).all():
        raise AssertionError(f"observed a state that is not finite in the block from t = {times[0]:g}")
    return times


def capped(states, times):
    """An observer that fails on a state past the blow-up cap, else returns
    the record times."""
    for state in states:
        if not np.abs(state.samples).max() <= BLOWUP_LIMIT:
            raise AssertionError(f"observed a state past the cap in the block from t = {times[0]:g}")
    return times


def refuse(states, times):
    """An observer whose every call fails, naming its states."""
    raise LookupError(f"observed {len(times)} states from t = {times[0]:g}")


class Unrebuildable(Exception):
    """An error that pickles but does not unpickle: its class needs two
    arguments, its args hold one message."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


class TestRecordObserver:
    """integrate hands its records to the observer in blocks of at most
    RECORD_BLOCK states and keeps only the rows it returns."""

    B = dynamics.RECORD_BLOCK

    @staticmethod
    def spec_of(flow, records):
        """(spec, init) of flow `flow` of three_flows with `records` records, one per step."""
        eq, init = three_flows(Grid(64.0, 256))[flow]
        dt = 2.0**-12
        return EvolutionSpec(equation=eq, dt=dt, t_end=(records - 1) * dt, record_every=1), init

    def run(self, observe, records):
        return integrate(*self.spec_of(0, records), observe)

    @pytest.mark.parametrize("records", [B - 1, B, B + 1, 2 * B + 1])
    @pytest.mark.parametrize("flow", [0, 1, 2])
    def test_observed_rows_are_the_observer_of_the_kept_states(self, flow, records):
        spec, init = self.spec_of(flow, records)
        eq = spec.equation
        calls = []
        observed = integrate(spec, init, logged(masses_and_times, calls))
        kept = integrate(spec, init)
        assert observed.states is None and len(kept.states) == records
        assert observed.observed.tobytes() == masses_and_times(kept.states, kept.times).tobytes()
        assert observed.observed.shape == (records, 1 + 2 * len(eq.alphas)) and not observed.observed.flags.writeable
        assert observed.times.tobytes() == kept.times.tobytes()
        assert np.array_equal(half_spectra(observed.final), half_spectra(kept.final))
        # every record once, in order, each call at most one block
        assert [t for call in calls for t in call] == kept.times.tolist()
        assert all(0 < len(call) <= self.B for call in calls) and len(calls) == -(-records // self.B)

    @pytest.mark.parametrize("records", [B - 1, B, B + 1, 2 * B + 1])
    @pytest.mark.parametrize("flow", [0, 1, 2])
    def test_default_observer_keeps_the_band_rows(self, flow, records):
        # a kept run's rows go through the same block as an observed run's:
        # they are the rows an observer that returns the band would give
        spec, init = self.spec_of(flow, records)
        kept = integrate(spec, init)
        observed = integrate(spec, init, lambda states, times: states.band)
        assert kept.observed is kept.states.band and not kept.observed.flags.writeable
        assert kept.observed.shape == (records, len(spec.equation.alphas), Grid(64.0, 256).band)
        assert kept.observed.dtype == complex and observed.states is None
        assert kept.observed.tobytes() == observed.observed.tobytes()

    def test_observer_runs_in_the_calling_process(self):
        # its side effects are seen here: each call, in this process and
        # thread, before the step loop goes on to the next block
        seen = []

        def observe(states, times):
            seen.append((os.getpid(), threading.get_ident(), len(times)))
            return times

        self.run(observe, 2 * self.B + 1)
        here = (os.getpid(), threading.get_ident())
        assert seen == [here + (self.B,), here + (self.B,), here + (1,)]

    def test_observer_gets_a_read_only_view_it_must_not_keep(self):
        def keep_view(states, times):
            with pytest.raises(ValueError, match="read-only"):
                states.band[0] = 0.0
            return states.band

        calls = []
        traj = self.run(logged(keep_view, calls), self.B + 4)
        assert [len(call) for call in calls] == [self.B, 4]
        # the rows were copied out of the block before the next one overwrote it
        kept = self.run(None, self.B + 4).observed
        assert traj.observed.tobytes() == kept.tobytes()

    def test_observer_must_return_one_row_per_state(self):
        g = Grid(64.0, 256)
        eq, init = three_flows(g)[0]
        spec = EvolutionSpec(equation=eq, dt=1e-3, t_end=4e-3, record_every=1)
        for wrong in (lambda states, times: times[:1], lambda states, times: 0.0):
            with pytest.raises(ValueError, match="one row per state: 5"):
                integrate(spec, init, wrong)

    @pytest.mark.parametrize(
        "first, later, message",
        [
            # one column after three would broadcast into three equal columns
            (lambda t: np.column_stack([t] * 3), lambda t: t[:, None], rf"\(3,\) of float64 .*\({B}, 1\) of float64"),
            # complex rows after real ones would lose their imaginary parts
            (lambda t: t, lambda t: t * 1j, rf"\(\) of float64 .*\({B},\) of complex128"),
            # three columns after one would not fit the rows made for the first block
            (lambda t: t[:, None], lambda t: np.column_stack([t] * 3), rf"\(1,\) of float64 .*\({B}, 3\) of float64"),
            # float rows after integer ones would be truncated
            (lambda t: np.arange(len(t)), lambda t: t, rf"\(\) of int64 .*\({B},\) of float64"),
        ],
        ids=["narrower", "complex", "wider", "float-after-int"],
    )
    def test_later_block_rows_must_match_the_first_blocks(self, first, later, message):
        def observe(states, times):
            return (first if times[0] == 0 else later)(times)

        with pytest.raises(ValueError, match=rf"^an observer returns one row per state: {self.B} shaped {message}$"):
            self.run(observe, 2 * self.B)

    @pytest.mark.parametrize(
        "first, later",
        [(lambda t: t, lambda t: np.arange(len(t))), (lambda t: t * 1j, lambda t: t)],
        ids=["int-after-float", "real-after-complex"],
    )
    def test_later_block_rows_of_the_same_kind_are_cast_to_the_first_blocks(self, first, later):
        def observe(states, times):
            return (first if times[0] == 0 else later)(times)

        traj = self.run(observe, 2 * self.B + 1)
        blocks = [traj.times[: self.B], traj.times[self.B : 2 * self.B], traj.times[2 * self.B :]]
        rows = [first(blocks[0])] + [later(times) for times in blocks[1:]]
        assert traj.observed.dtype == rows[0].dtype
        assert traj.observed.tobytes() == np.concatenate(rows).astype(rows[0].dtype).tobytes()

    def test_observer_error_reaches_the_caller_as_the_object_it_raised(self):
        # no pickle stands between them: an error that could not be rebuilt
        # from its args comes back itself, with no note added
        raised = []

        def fail(states, times):
            raised.append(Unrebuildable("no fit", times[0]))
            raise raised[-1]

        with pytest.raises(Unrebuildable) as info:
            self.run(fail, 3)
        assert [info.value] == raised and str(info.value) == "no fit at 0.0"
        assert not hasattr(info.value, "__notes__")

    def test_error_in_the_last_block_is_raised_after_the_last_step(self):
        # the last, partial block is observed once the step loop has ended
        calls = []

        def last(states, times):
            calls.append(len(times))
            if len(times) < self.B:
                raise ConfigurationError(f"no rows from t = {times[0]:g}", "grid.N")
            return times

        with pytest.raises(ConfigurationError) as info:
            self.run(last, 2 * self.B + 1)
        assert calls == [self.B, self.B, 1] and info.value.key == "grid.N"
        assert str(info.value) == f"no rows from t = {2 * self.B * 2.0**-12:g}"

    @pytest.mark.parametrize("record", [B - 1, B])
    def test_state_that_turns_non_finite_at_a_block_edge_is_never_observed(self, monkeypatch, record):
        # the last rhs evaluation of the step before record `record` writes
        # inf: record B - 1 is the first block's last row, record B the
        # second block's first; the record raises at its own time, and the
        # observer sees only the full blocks before it: no state that is not
        # finite, and, named by the error of an observer that fails on every
        # call, which wins over the later blow-up, no call or one of B states
        evaluations = poison(monkeypatch, record)
        with np.errstate(invalid="ignore"), pytest.raises(BlowUpError, match=r"max\|v\| = nan") as info:
            self.run(finite_only, 2 * self.B + 1)
        assert info.value.t == record * 2.0**-12 and len(evaluations) == 4 * record
        evaluations.clear()
        with np.errstate(invalid="ignore"), pytest.raises((BlowUpError, LookupError)) as info:
            self.run(refuse, 2 * self.B + 1)
        calls = [str(info.value)] if isinstance(info.value, LookupError) else []
        assert calls == [f"observed {self.B} states from t = 0"] * (record // self.B)

    @pytest.mark.parametrize("observe", [None, capped], ids=["kept", "observed"])
    def test_final_state_past_the_cap_is_a_blow_up_at_t_end(self, monkeypatch, observe):
        # the last evaluation writes a large finite value: the last record,
        # which no step follows, raises at t_end with the state's finite peak
        evaluations = poison(monkeypatch, self.B + 5, 1e12)
        with pytest.raises(BlowUpError) as info:
            self.run(observe, self.B + 6)
        peak = float(re.search(r"max\|v\| = (\S+) exceeds", str(info.value)).group(1))
        assert info.value.t == (self.B + 5) * 2.0**-12 and BLOWUP_LIMIT < peak < math.inf
        assert len(evaluations) == 4 * (self.B + 5)

    def test_state_past_the_cap_in_a_blocks_last_row_is_never_observed(self, monkeypatch):
        # record B - 1, the first block's last row, is finite and past the
        # cap: it raises at its own time, before the block is observed
        evaluations = poison(monkeypatch, self.B - 1, 1e12)
        calls = []
        with pytest.raises(BlowUpError, match=r"exceeds 1e\+06$") as info:
            self.run(logged(capped, calls), 2 * self.B + 1)
        assert info.value.t == (self.B - 1) * 2.0**-12 and len(evaluations) == 4 * (self.B - 1)
        assert calls == []

    def test_error_in_the_middle_block_keeps_its_type_message_and_attributes(self):
        def middle(states, times):
            if times[0] > 0:
                raise ConfigurationError(f"no rows from t = {times[0]:g}", "grid.N")
            return times

        with pytest.raises(ConfigurationError) as info:
            self.run(middle, 2 * self.B + 1)
        assert type(info.value) is ConfigurationError and info.value.key == "grid.N"
        assert str(info.value) == f"no rows from t = {self.B * 2.0**-12:g}"

    @pytest.mark.parametrize("fails", [True, False])
    def test_blow_up_one_block_after_an_observed_block(self, monkeypatch, fails):
        # record B + 5 is not finite, after block 0 was observed: that
        # observer's error is the earlier record's, and wins; a passing
        # observer leaves the blow-up at its own time
        poison(monkeypatch, self.B + 5)
        with np.errstate(invalid="ignore"), pytest.raises((LookupError, BlowUpError)) as info:
            self.run(refuse if fails else finite_only, 2 * self.B + 1)
        if fails:
            assert str(info.value) == f"observed {self.B} states from t = 0"
        else:
            assert type(info.value) is BlowUpError and info.value.t == (self.B + 5) * 2.0**-12

    def test_memory_of_an_observed_run_does_not_grow_with_its_records(self):
        # N = 64, so a band row is 17 complex numbers: four times the steps,
        # each recorded, adds at most one block to an observed run's peak
        # beyond its own rows (the record times, 8 bytes each, fit in that
        # block), and at least the kept states' bytes to a kept run's
        g = Grid(32.0, 64)
        u, _ = soliton(2.0, 16.0, g)
        init = dealias(u)
        dt = 2.0**-10
        block = self.B * g.band * 16

        def peak(records, observe):
            spec = EvolutionSpec(equation=Equation(mu=1), dt=dt, t_end=(records - 1) * dt, record_every=1)
            # a first run allocates what numpy and the interpreter then keep
            integrate(spec, init, observe)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                traj = integrate(spec, init, observe)
                return tracemalloc.get_traced_memory()[1] - before, traj.observed.nbytes
            finally:
                tracemalloc.stop()

        short, long = 2 * self.B + 1, 8 * self.B + 1
        (observed_short, rows_short), (observed_long, rows_long) = (peak(n, masses_and_times) for n in (short, long))
        assert observed_long - observed_short <= rows_long - rows_short + block
        (kept_short, _), (kept_long, _) = (peak(n, None) for n in (short, long))
        assert kept_long - kept_short >= (long - short) * g.band * 16


def test_package_starts_no_process():
    # integrate observes in its caller's process, and nothing in the package
    # forks, opens a pipe or reaps a child
    assert package_names({"fork", "pipe", "waitpid", "_exit"}) == []


class TestRunPlan:
    GRID = Grid(2.0 * np.pi, 16)
    ZERO = analyze(np.zeros(16), GRID)
    # the t_end that overshoots a multiple of dt record_every by a relative offset
    OFFSETS = st.sampled_from([-1e-8, -1e-9, -1e-10, 0.0, 1e-10, 1e-9 - 1e-12, 1e-9, 1e-9 + 1e-12, 1e-8])

    @staticmethod
    def assert_bounds(spec, plan):
        assert plan.n_rec >= 1 and plan.n_steps == plan.n_rec * spec.record_every
        assert Fraction(plan.h) <= Fraction(spec.dt) * (1 + Fraction(1e-9) + Fraction(2) ** -50)

    @settings(max_examples=400, derandomize=True)
    @given(dt=st.floats(1e-12, 1e3), every=st.integers(1, 10**6), records=st.integers(1, 10**6),
           offset=OFFSETS | st.floats(-0.999, 1.0))
    def test_plan_keeps_its_bounds(self, dt, every, records, offset):
        spec = EvolutionSpec(Equation(mu=1), dt, dt * every * records * (1.0 + offset), every)
        plan = plan_run(spec, self.ZERO)
        self.assert_bounds(spec, plan)
        # one float64 per record time and one complex row of the band k = 0..N/4 per kept state
        assert (plan.times_bytes, plan.band_bytes) == (8 * (plan.n_rec + 1), 16 * 5 * (plan.n_rec + 1))

    # the counts are reset for each example
    @settings(max_examples=150, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(dt=st.floats(1e-4, 0.05), every=st.integers(1, 6), records=st.integers(1, 6),
           offset=OFFSETS | st.floats(-0.9, 0.9))
    def test_integrate_takes_its_plan_to_t_end(self, dt, every, records, offset, fft_counts):
        spec = EvolutionSpec(Equation(mu=1), dt, dt * every * records * (1.0 + offset), every)
        fft_counts.update(rfft=0, irfft=0)
        traj = integrate(spec, self.ZERO)
        self.assert_bounds(spec, traj.plan)
        assert traj.plan == plan_run(spec, self.ZERO)
        assert fft_counts["rfft"] + fft_counts["irfft"] == 8 * traj.plan.n_steps
        assert len(traj.times) == traj.plan.n_rec + 1 and traj.times[-1] == spec.t_end

    def test_slack_of_the_record_count(self):
        # t_end overshoots three steps by 1e-10 of one: three steps, each that much longer than dt
        spec = EvolutionSpec(Equation(mu=1), 1e-3, 3e-3 * (1 + 1e-10), 1)
        plan = plan_run(spec, self.ZERO)
        assert (plan.n_rec, plan.n_steps) == (3, 3) and plan.h == spec.t_end / 3 > spec.dt

    def test_steps_up_to_two_to_the_53(self):
        # one record of 2**53 steps, or 2**13 runs of one record of 2**40 steps, passes
        for every, runs in ((2**53, 1), (2**40, 2**13)):
            plan = plan_run(EvolutionSpec(Equation(mu=1), 1.0, float(every), every), self.ZERO, runs, keeps_band=False)
            assert plan.n_steps * runs == MAX_PLAN_STEPS
        # two records of 2**53 steps do not
        with pytest.raises(ConfigurationError, match=r"^t_end plans more than 2\*\*53 steps of dt = 1$") as err:
            plan_run(EvolutionSpec(Equation(mu=1), 1.0, 2.0**53 * (1 + 1e-8), 2**53), self.ZERO)
        assert err.value.key == "t_end"
        with pytest.raises(ConfigurationError, match=r"^run.k_max plans more than") as err:
            plan_run(EvolutionSpec(Equation(mu=1), 1.0, float(2**40), 2**40), self.ZERO, 2**13 + 1, "run.k_max")
        assert err.value.key == "run.k_max"

    @pytest.mark.parametrize("alphas", [(1.0,), (1.0, 0.5)])
    def test_bytes_up_to_the_bound(self, alphas):
        # each record holds its time and a complex band row per component
        per_record = 8 + 16 * len(alphas) * self.GRID.band
        records = MAX_PLAN_BYTES // per_record
        eq, init = Equation(mu=1, alphas=alphas), (self.ZERO,) * len(alphas)
        plan = plan_run(EvolutionSpec(eq, 1.0, float(records - 1), 1), init)
        assert plan.times_bytes + plan.band_bytes == records * per_record <= MAX_PLAN_BYTES
        spec = EvolutionSpec(eq, 1.0, float(records), 1)
        message = f"t_end plans {records + 1:.6g} records, more than 2**30 bytes"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            plan_run(spec, init)
        # without the band rows, the times alone fit
        assert plan_run(spec, init, keeps_band=False).times_bytes == 8 * (records + 1)

    def test_count_past_double_range_is_too_many_steps(self):
        # t_end / (dt record_every) = inf
        with pytest.raises(ConfigurationError, match="more than 2"):
            plan_run(EvolutionSpec(Equation(mu=1), 5e-324, 1.0, 1), self.ZERO)
        # a record_every that no plan can hold is the spec's own error
        with pytest.raises(ConfigurationError, match=r"record_every must lie in \[1, 2\*\*53\]") as err:
            EvolutionSpec(Equation(mu=1), 1e-3, 1.0, 10**400)
        assert err.value.key == "record_every"

    def test_integrate_refuses_its_plan_before_the_first_step(self, fft_counts):
        # 1e9 records: 8 GB of times alone
        spec = EvolutionSpec(Equation(mu=1), 1e-3, 1e6, 1)
        with pytest.raises(ConfigurationError, match="^t_end plans") as err:
            integrate(spec, self.ZERO)
        assert err.value.key == "t_end" and fft_counts["rfft"] + fft_counts["irfft"] == 0


class TestTransformCounts:
    @pytest.mark.parametrize("flow", [0, 1, 2])
    def test_four_plus_four_transforms_per_step(self, flow, fft_counts):
        g = Grid(64.0, 256)
        eq, init = three_flows(g)[flow]
        steps = 10
        fft_counts.update(rfft=0, irfft=0, points=0)
        integrate(EvolutionSpec(equation=eq, dt=1e-3, t_end=0.01, record_every=5), init)
        # N-point rows per rhs evaluation: mKdV irfft v, rfft v^3; damped
        # adds the rfft row -a v; coupled irfft 2 rows, rfft 4 rows
        rows = (2, 3, 6)[flow]
        # records make no transform: their samples are computed on first read
        assert fft_counts == {
            "rfft": 4 * steps,
            "irfft": 4 * steps,
            "points": 4 * rows * steps * g.N,
        }


class TestSoliton:
    def test_peak_and_speed(self):
        g = Grid(80.0, 1024)
        u, c = soliton(1.0, 40.0, g)  # x0 = 40 is grid node 512
        assert c == 1.0
        assert u.samples[512] == pytest.approx(math.sqrt(6.0), rel=1e-12)
        assert np.argmax(u.samples) == 512
        _, c2 = soliton(1.5, 40.0, g)
        assert c2 == pytest.approx(2.25)

    def test_boundary_precondition(self):
        g = Grid(40.0, 512)
        with pytest.raises(ConfigurationError, match="edge"):
            soliton(1.0, 20.0, g)  # sech(20) ~ 4e-9 of peak, too fat
        with pytest.raises(ConfigurationError):
            soliton(-1.0, 20.0, g)
        with pytest.raises(ConfigurationError):
            soliton(1.0, 99.0, g)

    def test_width_the_grid_sees_at_one_node_is_refused(self):
        # sech(dx / width) < 1e-12: a node next to the peak holds less than
        # 1e-12 of it; tested with no divide, which overflowed for width 5e-324
        g = Grid(64.0, 512)
        edge = g.dx / math.acosh(1e12)
        assert sech(1.0, 1.001 * edge, 32.0, g).samples.max() == 1.0
        pattern = r"width .* is below dx/acosh\(1e12\), dx = grid\.L/grid\.N = 0\.125: "
        for make, args, key in ((sech, (1.0, 0.999 * edge, 32.0), "width"), (sech, (1.0, 5e-324, 32.0), "width"),
                                (soliton, (1.001 / edge, 32.0), "k"), (soliton, (1e300, 32.0), "k")):
            with pytest.raises(ConfigurationError, match=pattern) as err:
                make(*args, g)
            assert err.value.key == key
        # the coarsest packaged-width grid the tests run, width / dx = 0.25
        assert sech(1.0, 1.0, 32.0, Grid(64.0, 16)).samples.max() == 1.0

    def test_edge_error_is_stated_in_k_and_x0(self):
        # soliton data has no width: its advice names what it reads
        g = Grid(64.0, 512)
        pattern = r"^soliton tail at the domain edge is 8\.139e-02 of the peak \(>= 1e-12\); enlarge L, raise k, or recenter x0$"
        with pytest.raises(ConfigurationError, match=pattern):
            soliton(0.1, 32.0, g)

    @pytest.mark.parametrize(
        "make, args, pattern, key",
        [
            (soliton, (math.inf, 32.0), r"^soliton width parameter must be positive and finite, got k=inf$", "k"),
            (soliton, (math.nan, 32.0), r"^soliton width parameter must be positive and finite, got k=nan$", "k"),
            # a finite k whose peak sqrt(6) k overflows was rejected as sech's amplitude
            (soliton, (1e308, 32.0), r"^soliton N sqrt\(6\) k must be finite, got k=1e\+308$", "k"),
            (sech, (math.inf, 1.0, 32.0), r"^sech amplitude must be positive and N times it finite, got inf$", "amplitude"),
            (sech, (math.nan, 1.0, 32.0), r"^sech amplitude must be positive and N times it finite, got nan$", "amplitude"),
            # N amplitude = inf: the transform overflowed into NaN
            (sech, (1e308, 1.0, 32.0), r"^sech amplitude must be positive and N times it finite, got 1e\+308$",
             "amplitude"),
            (sech, (1e307, 1.0, 32.0), r"^sech amplitude must be positive and N times it finite, got 1e\+307$",
             "amplitude"),
            (sech, (1.0, math.nan, 32.0), r"^sech width must be positive and finite, got nan$", "width"),
            (sech, (1.0, math.inf, 32.0), r"^sech width must be positive and finite, got inf$", "width"),
        ],
        ids=["soliton-k-inf", "soliton-k-nan", "soliton-peak-inf", "sech-amplitude-inf", "sech-amplitude-nan",
             "sech-N-amplitude-inf", "sech-N-amplitude-inf-1e307", "sech-width-nan", "sech-width-inf"],
    )
    def test_rejects_non_finite_parameters(self, make, args, pattern, key):
        # k = inf divided by zero, and a nan width reached analyze
        with pytest.raises(ConfigurationError, match=pattern) as err:
            make(*args, Grid(64.0, 512))
        assert err.value.key == key

    def test_amplitude_with_N_amplitude_finite_transforms_without_overflow(self):
        # sum |f_j| <= N amplitude bounds every sum of the unnormalised transform
        g = Grid(64.0, 512)
        fld = sech(np.nextafter(np.finfo(float).max / g.N, 0.0), 1.0, 32.0, g)
        assert np.isfinite(fld.spectrum).all()

    def test_transform_decay_rate(self):
        # |F_k| tracks (sqrt(6) pi / L) sech(pi xi / (2k)): slope -pi/2 for k=1
        g = Grid(80.0, 1024)
        u, _ = soliton(1.0, 40.0, g)
        sel = (g.xi > 2.0) & (g.xi < 12.0)
        slope = np.polyfit(g.xi[sel], np.log(np.abs(u.spectrum[sel])), 1)[0]
        assert slope == pytest.approx(-math.pi / 2.0, rel=0.02)

    def test_pde_residual_spectral(self):
        # residual of u_t + u_xxx + u^2 u_x with u_t = -c u_x, no projection
        g = Grid(80.0, 1024)
        u, c = soliton(1.0, 40.0, g)
        ux = apply_symbol(u, Deriv(1)).samples
        uxxx = apply_symbol(u, Deriv(3)).samples
        res = -c * ux + uxxx + u.samples**2 * ux
        assert np.abs(res).max() < 1e-9

    def test_rhs_matches_traveling_wave_at_512(self):
        # rhs takes dealiased input; k and L chosen so the projected tail
        # clears the band edge (k L/2 ~ 28.8 keeps the boundary guard happy)
        g = Grid(96.0, 512)
        u, c = soliton(0.6, 48.0, g)
        up = dealias(u)
        (out,) = rhs(Equation(mu=1), up)
        target = apply_symbol(up, Deriv(1))
        assert np.abs(out.samples + c * target.samples).max() < 1e-8


class TestIntegrate:
    def test_trajectory_layout(self):
        g = Grid(64.0, 256)
        u0 = dealias(analyze(0.5 * np.cos(2 * np.pi * 3 * g.x / g.L), g))
        spec = EvolutionSpec(equation=Equation(mu=1), dt=1e-3, t_end=0.01, record_every=2)
        traj = integrate(spec, u0)
        assert traj.times[0] == 0.0
        assert len(traj.times) == len(traj.states) == 6
        assert np.allclose(np.diff(traj.times), 2e-3)
        assert traj.times[-1] == pytest.approx(0.01)
        assert isinstance(traj, Trajectory)
        # states are built on each read, so final is the last state's equal, not that object
        assert np.array_equal(traj.final.spectrum, traj.states[-1].spectrum)
        assert isinstance(traj == integrate(spec, u0), bool)

    def test_initial_state_is_projected(self):
        g = Grid(64.0, 256)
        # mode 100 sits outside the kept band |k| <= 64 and must vanish
        u0 = analyze(np.cos(2 * np.pi * 3 * g.x / g.L)
                     + np.cos(2 * np.pi * 100 * g.x / g.L), g)
        spec = EvolutionSpec(equation=Equation(mu=1), dt=1e-3, t_end=1e-3, record_every=1)
        traj = integrate(spec, u0)
        rec0 = traj.states[0]
        assert np.array_equal(rec0.spectrum, dealias(u0).spectrum)
        assert abs(rec0.spectrum[100]) == 0.0
        assert abs(rec0.spectrum[3]) == pytest.approx(0.5, rel=1e-12)

    def test_unitary_modes_short_horizon(self):
        # |F_k| preserved to 10 eps per mode over a few steps; the |exp|
        # rounding of the factor compounds by ~2 eps per step after that
        g = Grid(64.0, 512)
        u0 = dealias(analyze(0.8 * np.cos(2 * np.pi * 5 * g.x / g.L)
                             + 0.3 * np.sin(2 * np.pi * 11 * g.x / g.L), g))
        spec = EvolutionSpec(equation=Equation(mu=1, nonlinear=False), dt=1e-3, t_end=5e-3,
                             record_every=5)
        traj = integrate(spec, u0)
        f0, f1 = np.abs(u0.spectrum), np.abs(traj.final.spectrum)
        live = f0 > 0
        assert np.abs(f1[live] / f0[live] - 1.0).max() < 10 * EPS

    def test_unitary_accumulation_bound(self):
        g = Grid(64.0, 512)
        u0 = dealias(analyze(np.cos(2 * np.pi * 7 * g.x / g.L), g))
        steps = 500
        spec = EvolutionSpec(equation=Equation(mu=1, nonlinear=False), dt=1e-3, t_end=0.5,
                             record_every=steps)
        traj = integrate(spec, u0)
        f0, f1 = np.abs(u0.spectrum), np.abs(traj.final.spectrum)
        live = f0 > 0
        assert np.abs(f1[live] / f0[live] - 1.0).max() < (2 * steps + 10) * EPS

    def test_linear_flow_matches_symbol(self):
        g = Grid(64.0, 512)
        u0 = dealias(analyze(0.8 * np.cos(2 * np.pi * 5 * g.x / g.L)
                             + 0.3 * np.sin(2 * np.pi * 11 * g.x / g.L), g))
        t_end = 0.05
        spec = EvolutionSpec(equation=Equation(mu=1, nonlinear=False), dt=1e-3, t_end=t_end,
                             record_every=end_record(1e-3, t_end))
        traj = integrate(spec, u0)
        exact = apply_symbol(u0, LinearFlow(3, 1, 1.0, t_end))
        scale = np.abs(u0.samples).max()
        assert np.abs(traj.final.samples - exact.samples).max() < 1e-12 * scale

    def test_exact_damped_decay(self):
        # nonlinearity off, constant damping: ||v(t)|| = e^{-lam t} ||v0||
        g = Grid(64.0, 512)
        v0 = dealias(analyze(0.8 * np.cos(2 * np.pi * 5 * g.x / g.L)
                             + 0.3 * np.sin(2 * np.pi * 11 * g.x / g.L), g))
        lam, t_end = 0.4, 1.0
        eq = Equation(mu=1, m=3, dampings=(RaisedCosineDamping(lam, 0.0, g.L),), nonlinear=False)
        spec = EvolutionSpec(equation=eq, dt=2e-4, t_end=t_end,
                             record_every=end_record(2e-4, t_end))
        traj = integrate(spec, v0)
        assert l2(traj.final) == pytest.approx(math.exp(-lam * t_end) * l2(v0), rel=1e-10)

    def test_time_reversibility(self):
        g = Grid(64.0, 512)
        v0, _ = soliton(1.0, 32.0, g)
        t_end = 0.2
        spec = EvolutionSpec(equation=Equation(mu=1), dt=1e-4, t_end=t_end,
                             record_every=end_record(1e-4, t_end))
        fwd = integrate(spec, v0)
        back = integrate(spec, reflect(fwd.final))
        recovered = reflect(back.final)
        v0p = dealias(v0)
        assert np.abs(recovered.samples - v0p.samples).max() < 1e-8

    def test_mean_is_conserved(self):
        g = Grid(64.0, 512)
        v0, _ = soliton(1.0, 32.0, g)
        t_end = 0.5
        spec = EvolutionSpec(equation=Equation(mu=1), dt=2e-4, t_end=t_end,
                             record_every=end_record(2e-4, t_end))
        traj = integrate(spec, v0)
        m0 = dealias(v0).spectrum[0].real
        assert abs(traj.final.spectrum[0].real - m0) < 1e-10

    def test_l2_damping_identity(self):
        # centered FD of int v^2 vs -2 int a v^2 at the recorded times
        g = Grid(64.0, 512)
        v0, _ = soliton(1.0, 32.0, g)
        a = RaisedCosineDamping(floor=0.2, amplitude=0.15, length=64.0)
        eq = Equation(mu=-1, m=3, dampings=(a,))
        spec = EvolutionSpec(equation=eq, dt=1e-4, t_end=6e-4, record_every=1)
        traj = integrate(spec, v0)
        avals = a.values(g)
        masses = [l2(s) ** 2 for s in traj.states]
        dt_rec = traj.times[1] - traj.times[0]
        for i in (1, 2, 3, 4, 5):
            if i + 1 >= len(masses):
                break
            fd = (masses[i + 1] - masses[i - 1]) / (2.0 * dt_rec)
            v = traj.states[i].samples
            rate = -2.0 * g.L / g.N * float(np.sum(avals * v * v))
            assert fd == pytest.approx(rate, rel=1e-7)

    def test_soliton_short_run_error(self):
        g = Grid(64.0, 512)
        u0, c = soliton(1.0, 32.0, g)
        t_end = 0.5
        spec = EvolutionSpec(equation=Equation(mu=1), dt=2e-4, t_end=t_end,
                             record_every=end_record(2e-4, t_end))
        traj = integrate(spec, u0)
        d = (g.x - 32.0 - c * t_end) % g.L
        d = np.minimum(d, g.L - d)
        exact = math.sqrt(6.0) / np.cosh(d)
        assert np.abs(traj.final.samples - exact).max() < 1e-6

    def test_order_of_convergence(self):
        # dt halving cuts the error ~16x; run above the spatial floor
        g = Grid(64.0, 1024)
        u0, c = soliton(1.0, 32.0, g)
        t_end = 0.5
        errs = []
        for dt in (1e-3, 5e-4):
            spec = EvolutionSpec(equation=Equation(mu=1), dt=dt, t_end=t_end,
                                 record_every=end_record(dt, t_end))
            traj = integrate(spec, u0)
            d = (g.x - 32.0 - c * t_end) % g.L
            d = np.minimum(d, g.L - d)
            exact = math.sqrt(6.0) / np.cosh(d)
            errs.append(np.abs(traj.final.samples - exact).max())
        ratio = errs[0] / errs[1]
        assert 10.0 <= ratio <= 24.0

    def test_dt_guard(self):
        g = Grid(64.0, 512)
        u0, _ = soliton(1.0, 32.0, g)
        # guard = 0.5 dx / (6 + 1) ~ 8.9e-3 here
        spec = EvolutionSpec(equation=Equation(mu=1), dt=2e-2, t_end=1.0, record_every=10)
        with pytest.raises(ConfigurationError, match="guard"):
            integrate(spec, u0)

    def test_dt_guard_in_loop(self):
        # linear flow from a packet dispersed backward over t = 1: it refocuses,
        # its peak grows from ~2.06 to ~4, and the guard falls from ~0.024
        # to ~0.0074, so dt = 0.012 passes at t = 0 and fails mid-run
        g = Grid(64.0, 256)
        focused = dealias(analyze(4.0 * np.exp(-((g.x - 32.0) ** 2) / 0.72), g))
        u0 = synthesize(np.exp(-1j * g.xi**3) * focused.spectrum, g)
        spec = EvolutionSpec(equation=Equation(mu=1, nonlinear=False), dt=0.012, t_end=1.0, record_every=1)
        with pytest.raises(DtGuardError, match="advective guard") as err:
            integrate(spec, u0)
        t_fail = float(re.search(r"at t = (\S+)", str(err.value)).group(1))
        assert 0.0 < t_fail < 1.0
        assert f"{err.value.t:.6g}" == f"{t_fail:.6g}" and err.value.key == "dt"

    def test_blowup_abort(self):
        g = Grid(64.0, 64)
        huge = analyze(np.full(g.N, 2.0 * BLOWUP_LIMIT), g)
        dt = 1e-14  # below the guard for this amplitude
        spec = EvolutionSpec(equation=Equation(mu=1), dt=dt, t_end=3e-14, record_every=1)
        with pytest.raises(DivergenceError, match="blow-up"):
            integrate(spec, huge)

    @pytest.mark.parametrize("amplitude", [1e7, 1e200])
    def test_initial_state_past_the_cap_is_refused_before_the_first_evaluation(self, amplitude, fft_counts):
        # the first evaluation's cube of 1e200 overflows before its peak is
        # checked; the initial state is checked first, with one transform
        init = sech(amplitude, 1.0, 32.0, Grid(64.0, 512))
        fft_counts.update(rfft=0, irfft=0)
        message = f"blow-up abort at t = 0: max|v| = {amplitude:.3e} exceeds 1e+06"
        with pytest.raises(BlowUpError, match=f"^{re.escape(message)}$") as err:
            integrate(EvolutionSpec(Equation(mu=1), 2e-4, 2e-4, 1), init)
        assert err.value.t == 0.0 and (fft_counts["rfft"], fft_counts["irfft"]) == (0, 1)

    def test_initial_samples_past_double_range_are_a_blow_up(self):
        # a finite band whose samples overflow: max|v| = inf, with no warning
        g = Grid(64.0, 512)
        half = np.zeros(g.xi.size, dtype=complex)
        half[: g.band] = 1e306
        init = (synthesize(half, g), synthesize(np.zeros_like(half), g))
        eq = Equation(mu=1, alphas=(1.0, 0.5))
        with pytest.raises(BlowUpError, match=r"^blow-up abort at t = 0: max\|v\| = inf exceeds"):
            integrate(EvolutionSpec(eq, 2e-4, 2e-4, 1), init)

    def test_coupled_needs_pair(self):
        g = Grid(64.0, 256)
        u0 = analyze(np.cos(2 * np.pi * 3 * g.x / g.L), g)
        a = RaisedCosineDamping(1.0, 0.0, g.L)
        eq = Equation(mu=1, alphas=(1.0, 0.5), dampings=(a, a))
        spec = EvolutionSpec(equation=eq, dt=1e-3, t_end=1e-2, record_every=10)
        with pytest.raises(ConfigurationError, match="pair"):
            integrate(spec, u0)

    def test_coupled_degenerate_matches_single(self):
        # w2 = 0: first component evolves as the linear damped flow
        g = Grid(64.0, 256)
        w0 = dealias(analyze(0.5 * np.cos(2 * np.pi * 4 * g.x / g.L), g))
        z = analyze(np.zeros(g.N), g)
        lam = 0.5
        a = RaisedCosineDamping(lam, 0.0, g.L)
        eq = Equation(mu=1, alphas=(1.0, 0.5), dampings=(a, a))
        t_end = 0.2
        spec = EvolutionSpec(equation=eq, dt=1e-3, t_end=t_end,
                             record_every=end_record(1e-3, t_end))
        traj = integrate(spec, (w0, z))
        w1_end, w2_end = traj.final
        single = EvolutionSpec(equation=Equation(mu=1, m=3, dampings=(a,), nonlinear=False), dt=1e-3,
                               t_end=t_end, record_every=end_record(1e-3, t_end))
        ref = integrate(single, w0)
        assert np.abs(w1_end.samples - ref.final.samples).max() < 1e-10
        assert np.abs(w2_end.samples).max() == 0.0

    def test_fifth_order_flow_runs_and_damps(self):
        # m=5 dispersion is handled by the same exact symbol; mass must
        # decay at least as fast as the floor allows
        g = Grid(64.0, 256)
        v0 = dealias(analyze(0.6 * np.cos(2 * np.pi * 3 * g.x / g.L), g))
        lam = 0.5
        eq = Equation(mu=-1, m=5, dampings=(RaisedCosineDamping(lam, 0.0, g.L),))
        t_end = 0.5
        spec = EvolutionSpec(equation=eq, dt=5e-4, t_end=t_end,
                             record_every=end_record(5e-4, t_end))
        traj = integrate(spec, v0)
        assert l2(traj.final) <= math.exp(-lam * t_end) * l2(v0) * (1.0 + 1e-10)


class TestLinearSymbol:
    def test_matches_dispersion_sign_for_all_orders(self):
        # the (-1)^(j+1) sign combines with i^m to +i xi^m for every odd m
        g = Grid(2.0 * np.pi, 64)
        for m in (3, 5, 7):
            sym = linear_symbol(g, m)
            assert np.allclose(sym[1], 1j * g.xi[1] ** m)
            # the band k = 0..N/4 alone, which integrate evolves
            assert sym.shape == (g.N // 4 + 1,)
            # purely imaginary, so the implied sym(-k) = -sym(k) = conj(sym(k))
            # and the flow preserves real fields
            assert np.all(sym.real == 0.0)

    def test_alpha_scaling(self):
        g = Grid(2.0 * np.pi, 64)
        assert np.allclose(linear_symbol(g, 3, 0.25), 0.25 * linear_symbol(g, 3))
