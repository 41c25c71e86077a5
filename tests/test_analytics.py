"""Weighted norms, energy functionals, commutator operators, rate identities,
index formulas, and the radius estimator.

Frozen oracles: the k=1 soliton has closed-form energy terms
(12, 4, 28/5, -8, -16, 64/5; invariant combinations 12, -4, 12/5, total 52/5)
and transform radius pi/2; single cosine modes give every weighted norm in
closed form; the sigma-selection example was computed independently through
exp (the implementation goes through expm1).
"""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from conftest import package_names, packaged_text
from hypothesis import example, given, settings, strategies as st
from oracles import energy_rate_A, full_k, full_spectrum, log_space_norm, mass_rate_M, operator_F, operator_G

from gevreyflow.analytics import (
    FunctionalBreakdown,
    RadiusFit,
    conserved_combinations,
    damping_A_norm,
    fit_line,
    fit_loglog,
    functional_A,
    functional_M,
    hsigma_norm,
    lifespan_T0,
    mass_rate,
    radius_estimate,
    s_index,
    sigma_choice,
    theta_max,
)
from gevreyflow.config import parse_config_text
from gevreyflow.dynamics import (
    Equation,
    EvolutionSpec,
    RaisedCosineDamping,
    integrate,
    soliton,
)
from gevreyflow.errors import (
    ConfigurationError,
    DivergenceError,
    GevreyError,
    OverflowGuardError,
    UnderresolvedError,
)
from gevreyflow.spectral import Grid, analyze, dealias, synthesize

EPS = np.finfo(float).eps


@pytest.fixture(scope="module")
def soliton_field():
    g = Grid(64.0, 512)
    u, _ = soliton(1.0, 32.0, g)
    return u


def single_mode(L, N, k0, amp=1.0):
    g = Grid(L, N)
    return analyze(amp * np.cos(2.0 * np.pi * k0 * g.x / L), g), g


def weighted_full_spectrum(u, sigma):
    """cosh(sigma xi) times the full FFT-ordered spectrum of u (its stored
    half mirrored), with the full-ordering frequencies.  Coefficients below
    1e-13 of the largest are round-off and count as zero, as in the
    package."""
    g = u.grid
    xi = (2.0 * np.pi / g.L) * full_k(g.N)
    F = full_spectrum(u.spectrum, g.N)
    F[np.abs(F) < 1e-13 * np.abs(F).max()] = 0.0
    return F * np.cosh(sigma * xi), xi


def wide_field():
    """Every coefficient above the noise floor, F_k = exp(-0.2 xi_k) on
    L = 2 pi, N = 256: at sigma = 5.6 the top weights cosh(sigma xi)
    overflow a double, and the norm is about 1.2e298."""
    g = Grid(2.0 * np.pi, 256)
    F = np.zeros(g.N // 2 + 1, dtype=complex)
    F[0] = 1.0
    for k in range(1, g.N // 2):
        F[k] = math.exp(-0.2 * g.xi[k])  # F_127 = exp(-25.4) = 9.3e-12 of F_0
    return synthesize(F, g)


def mixed_field(seed):
    """A dealiased field with every band mode populated, on L=64, N=256."""
    g = Grid(64.0, 256)
    rng = np.random.default_rng(seed)
    x = g.x - g.L / 2.0
    return dealias(analyze(0.8 / np.cosh(x) + 0.05 * rng.standard_normal(g.N), g))


class TestWeightedNorms:
    def test_single_mode_closed_form(self):
        f, g = single_mode(2.0 * np.pi, 64, 3)
        xi0, sig, s = 3.0, 0.7, 0.25
        expect = math.sqrt(g.L * 0.5 * (1.0 + xi0) ** (2 * s) * math.cosh(sig * xi0) ** 2)
        assert hsigma_norm(f, sig, s) == pytest.approx(expect, rel=1e-12)

    def test_sigma_zero_is_plain_l2(self, soliton_field):
        u = soliton_field
        direct = math.sqrt((u.grid.L / u.grid.N) * float(np.sum(u.samples**2)))
        assert hsigma_norm(u, 0.0, 0.0) == pytest.approx(direct, rel=1e-14)

    def test_monotone_in_sigma_and_s(self, soliton_field):
        u = soliton_field
        assert hsigma_norm(u, 0.2, 0.0) < hsigma_norm(u, 0.6, 0.0)
        assert hsigma_norm(u, 0.2, 0.0) < hsigma_norm(u, 0.2, 1.0)

    def test_kept_weight_beyond_double_range_raises(self):
        # every coefficient above the noise floor, and the top ones weighted
        # by a cosh(sigma xi) that alone overflows a double: although the
        # norm (about 1e298) would fit, the one overflow rule rejects it
        f = wide_field()
        sig = 5.6  # sigma * xi_127 = 711 > 709.8
        with pytest.raises(OverflowGuardError, match=r"^weighted norm exceeds double range at state 0, sigma = 5\.6$"):
            hsigma_norm(f, sig, 0.0)
        with pytest.raises(OverflowGuardError, match=r"^M_sigma exceeds double range at state 1, sigma = 5\.6$"):
            functional_M([analyze(np.cos(f.grid.x), f.grid), f], np.array([0.1, 5.6]))
        with pytest.raises(OverflowGuardError, match=r"^functional_A exceeds double range at state 0, sigma = 5\.6$"):
            functional_A(f, np.array([0.1, 5.6]), -1)

    def test_floored_modes_with_infinite_weights_stay_zero(self):
        # a dealiased field: sigma * xi_{N/4} = 400 keeps every band weight
        # finite, while sigma * max(xi) = 800 overflows the weights of the
        # empty modes above the band, which must stay zero and not become
        # nan; the size 1e-170 keeps the weighted field, about 1e-2, and its
        # sixth power in range
        g = Grid(2.0 * np.pi, 64)
        sig = 25.0
        f = dealias(synthesize(1e-170 * np.exp(-0.8 * g.xi), g))
        with np.errstate(over="ignore"):
            assert np.isinf(np.cosh(sig * g.xi[g.band :])).any()
        for s in (0.0, 1.5):
            ref = log_space_norm(f, sig, s)
            assert math.isfinite(ref)
            assert abs(hsigma_norm(f, sig, s) - ref) <= 1e-13 * ref, s
        b = functional_A(f, sig, 1)
        assert math.isfinite(b.total)
        assert b.terms["l2_sq"] == pytest.approx(hsigma_norm(f, sig, 0.0) ** 2, rel=1e-12)

    @pytest.mark.parametrize(
        "call",
        [
            lambda u: hsigma_norm(u, math.nan, 0.0),
            lambda u: hsigma_norm(u, math.inf, 0.0),
            lambda u: hsigma_norm(u, np.array([0.1, math.nan]), 1.0),
            lambda u: functional_M(u, math.nan),
            lambda u: functional_M(u, math.inf),
            lambda u: functional_A(u, math.nan, 1),
            lambda u: functional_A([u, u], np.array([math.inf, 0.1]), -1),
            lambda u: functional_A(u, -math.inf, 1),
            lambda u: hsigma_norm(u, 0.1, math.nan),
            lambda u: hsigma_norm(u, 0.1, math.inf),
        ],
        ids=[
            "norm-nan", "norm-inf", "norm-nan-in-array", "M-nan", "M-inf", "A-nan", "A-inf-in-array", "A-minus-inf",
            "norm-s-nan", "norm-s-inf",
        ],
    )
    def test_non_finite_radius_rejected(self, soliton_field, call):
        # a nan radius slipped through every weight test and gave 0.0, an
        # inf one a RuntimeWarning, and s = nan was reported as an overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ConfigurationError,
                match=r"^(weight radius must be finite and >= 0, got -?|bracket exponent must be finite, got s = )(nan|inf)$",
            ):
                call(soliton_field)

    @pytest.mark.parametrize("sigma,s", [(0.0, 0.0), (0.3, 0.0), (0.7, 1.5), (1.2, -0.5)])
    def test_matches_full_spectrum_reference(self, soliton_field, sigma, s):
        # independent route: a plain sum over all N modes, direct cosh
        for u in (soliton_field, mixed_field(7)):
            U, xi = weighted_full_spectrum(u, sigma)
            ref = math.sqrt(u.grid.L * float(np.sum((1.0 + np.abs(xi)) ** (2 * s) * np.abs(U) ** 2)))
            assert abs(hsigma_norm(u, sigma, s) - ref) <= 1e-13 * ref

    @pytest.mark.parametrize(
        "name, sigma",
        [("wide", 5.0), ("soliton", 1.25), ("soliton", 3.0), ("mixed", 3.0), ("mixed", 10.0)],
    )
    def test_matches_log_space_route(self, soliton_field, name, sigma):
        # the oracle takes every weight in log space, the package by np.cosh;
        # on the wide field at 5.0 the top weight is cosh(635)
        u = {"wide": wide_field(), "soliton": soliton_field, "mixed": mixed_field(7)}[name]
        for s in (0.0, 1.5, -0.5):
            ref = log_space_norm(u, sigma, s)
            assert abs(hsigma_norm(u, sigma, s) - ref) <= 1e-13 * ref, s

    def test_overflow_guard(self, soliton_field):
        with pytest.raises(OverflowGuardError, match=r"at state 0, sigma = 200$"):
            hsigma_norm(soliton_field, 200.0, 0.0)

    def test_mass_out_of_range_raises(self):
        # the norm (1.5e264) fits in a double, its square does not
        f = wide_field()
        assert math.isfinite(hsigma_norm(f, 5.0, 0.0))
        with pytest.raises(OverflowGuardError, match=r"^M_sigma exceeds double range at state 0, sigma = 5$"):
            functional_M(f, 5.0)
        with pytest.raises(OverflowGuardError, match=r"^M_sigma exceeds double range at state 0, sigma = 5$"):
            functional_M([f, f], np.array([0.1, 5.0]))

    def test_trajectory_rows_match_single_calls(self, soliton_field):
        # magnitudes far apart: each row has its own noise floor and scale
        fields = [synthesize(soliton_field.spectrum * c, soliton_field.grid) for c in (1.0, 1e-30, 1e30)]
        sigmas = np.array([0.0, 0.3, 1.25])
        M = functional_M(fields, sigmas)
        norms = hsigma_norm(fields, sigmas, 0.0)
        assert M.shape == norms.shape == (3, 3)
        assert functional_M(fields, 0.3).shape == hsigma_norm(fields, 0.3, 1.0).shape == (3,)
        assert functional_M(soliton_field, sigmas).shape == hsigma_norm(soliton_field, sigmas, 1.0).shape == (3,)
        assert isinstance(functional_M(soliton_field, 0.3), float)
        assert isinstance(hsigma_norm(soliton_field, 0.3, 1.0), float)
        # M_sigma is functional_A's l2_sq term, and the norm its square root,
        # bit for bit: the power-of-two scaling is exact
        assert M.tobytes() == functional_A(fields, sigmas, 1).terms["l2_sq"].tobytes()
        assert norms.tobytes() == np.sqrt(M).tobytes()
        bracketed = hsigma_norm(fields, sigmas, 1.5)
        for r, u in enumerate(fields):
            for p, sigma in enumerate(sigmas):
                assert functional_M(u, sigma) == M[r, p]
                assert hsigma_norm(u, sigma, 0.0) == norms[r, p]
                assert hsigma_norm(u, sigma, 1.5) == bracketed[r, p]

    @pytest.mark.parametrize(
        "sigma, count",
        [(-0.1, 2), (np.array([0.1, -0.1]), 2), (np.zeros((2, 2)), 2), (np.array([]), 2), (0.1, 0)],
        ids=["negative", "negative-in-array", "2-D", "no-sigma", "empty"],
    )
    def test_validation(self, soliton_field, sigma, count):
        for norm in (lambda u: hsigma_norm(u, sigma, 0.0), lambda u: functional_M(u, sigma)):
            with pytest.raises(ConfigurationError):
                norm([soliton_field] * count)

    def test_states_must_share_a_grid(self, soliton_field):
        other = analyze(np.zeros(256), Grid(64.0, 256))
        with pytest.raises(ConfigurationError, match="one grid"):
            hsigma_norm([soliton_field, other], 0.1, 0.0)

    def test_negative_sigma_rejected(self, soliton_field):
        with pytest.raises(ConfigurationError):
            hsigma_norm(soliton_field, -0.1, 0.0)

    def test_zero_field(self):
        g = Grid(2.0 * np.pi, 64)
        z = analyze(np.zeros(g.N), g)
        assert hsigma_norm(z, 1.0, 2.0) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        sigma=st.floats(0.0, 1e3) | st.sampled_from([math.nan, math.inf]),
        name=st.sampled_from(["soliton", "wide"]),
    )
    @example(sigma=math.nan, name="soliton")
    @example(sigma=math.inf, name="wide")
    @example(sigma=5.6, name="wide")
    def test_finite_or_raises(self, soliton_field, sigma, name):
        # each weighted function gives a finite, nonzero value or raises one
        # of the package's errors: no warning, and no silent 0
        u = soliton_field if name == "soliton" else wide_field()
        calls = [
            lambda: hsigma_norm(u, sigma, 0.0),
            lambda: hsigma_norm(u, sigma, 1.5),
            lambda: functional_M(u, sigma),
            lambda: functional_A(u, sigma, -1).total,
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                try:
                    value = call()
                except GevreyError:
                    continue
                assert math.isfinite(value) and value > 0.0, (sigma, value)

    @settings(max_examples=60, deadline=None)
    @given(
        coeffs=st.lists(
            st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=8,
        ),
        sigma=st.floats(0.0, 0.6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_noise_below_floor_leaves_norms_unchanged(self, coeffs, sigma, seed):
        # modes 1..8 carry the field; the empty tail gets noise under
        # 1e-13 of the peak, which cosh(sigma xi) up to cosh(38) = 1.6e16
        # would lift above the field itself if it were summed
        g = Grid(2.0 * np.pi, 128)
        F = np.zeros(g.N // 2 + 1, dtype=complex)
        F[1 : 1 + len(coeffs)] = coeffs
        rng = np.random.default_rng(seed)
        level = 0.99e-13 * np.abs(F).max()
        tail = slice(1 + len(coeffs), None)
        noise = rng.uniform(0.0, level, F[tail].size) * np.exp(2j * np.pi * rng.uniform(size=F[tail].size))
        noise[-1] = noise[-1].real  # the Nyquist entry is real
        noisy = F.copy()
        noisy[tail] = noise
        clean, dirty = synthesize(F, g), synthesize(noisy, g)
        for s in (0.0, 1.0):
            assert hsigma_norm(dirty, sigma, s) == hsigma_norm(clean, sigma, s)
        assert functional_M(dirty, sigma) == functional_M(clean, sigma)
        assert functional_A(dirty, sigma, -1).terms == functional_A(clean, sigma, -1).terms


class TestEnergyFunctional:
    def test_soliton_terms_closed_form(self, soliton_field):
        # sqrt(6) sech: each constituent integral is rational
        b = functional_A(soliton_field, 0.0, 1)
        expect = {
            "l2_sq": 12.0,
            "deriv1_sq": 4.0,
            "deriv2_sq": 28.0 / 5.0,
            "quartic": -8.0,
            "product_sq": -16.0,
            "sextic": 64.0 / 5.0,
        }
        for name, val in expect.items():
            assert b.terms[name] == pytest.approx(val, rel=1e-10, abs=1e-10)
        assert b.total == pytest.approx(52.0 / 5.0, rel=1e-12)

    def test_breakdown_sums_to_total(self, soliton_field):
        for sig in (0.0, 0.3):
            b = functional_A(soliton_field, sig, 1)
            scale = sum(abs(v) for v in b.terms.values())
            assert abs(b.total - sum(b.terms.values())) <= 10 * EPS * scale

    def test_overflow_guard(self, soliton_field):
        # l2_sq (3.1e201) fits in a double, the quartic, product and sextic
        # terms do not; they used to come back as -inf, -inf, +inf and a nan
        # total with only RuntimeWarnings
        big = synthesize(soliton_field.spectrum * 1e100, soliton_field.grid)
        assert math.isfinite(functional_M(big, 1.25))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowGuardError, match=r"^functional_A exceeds double range at state 0, sigma = 1\.25$"):
                functional_A(big, 1.25, 1)
            # big's sextic term overflows already at sigma = 0
            with pytest.raises(OverflowGuardError, match=r"^functional_A exceeds double range at state 1, sigma = 0$"):
                functional_A([soliton_field, big], np.array([0.0, 1.25]), -1)

    def test_conserved_combinations(self, soliton_field):
        inv = conserved_combinations(functional_A(soliton_field, 0.0, 1))
        assert inv["inv0"] == pytest.approx(12.0, rel=1e-12)
        assert inv["inv1"] == pytest.approx(-4.0, rel=1e-10)
        assert inv["inv2"] == pytest.approx(12.0 / 5.0, rel=1e-10)

    def test_defocusing_terms_nonnegative(self, soliton_field):
        b = functional_A(soliton_field, 0.2, -1)
        for name in ("quartic", "product_sq", "sextic"):
            assert b.terms[name] >= 0.0
        sobolev = b.terms["l2_sq"] + b.terms["deriv1_sq"] + b.terms["deriv2_sq"]
        assert b.total >= sobolev

    def test_small_amplitude_single_mode(self):
        # delta cos(x): total = delta^2 L (3/2) cosh^2(sigma) + O(delta^4)
        delta, sig = 1e-3, 0.5
        f, g = single_mode(2.0 * np.pi, 64, 1, amp=delta)
        b = functional_A(f, sig, 1)
        lead = delta**2 * g.L * 1.5 * math.cosh(sig) ** 2
        assert b.total == pytest.approx(lead, rel=1e-4)

    @pytest.mark.parametrize("sigma,mu", [(0.0, 1), (0.3, 1), (0.6, -1)])
    def test_matches_full_spectrum_reference(self, soliton_field, sigma, mu):
        # independent route: all N modes, direct cosh weight, and
        # a complex ifft of the 2x zero-padded full spectrum for quadrature
        for u in (soliton_field, mixed_field(11)):
            g = u.grid
            N, M = g.N, 2 * g.N
            U, xi = weighted_full_spectrum(u, sigma)
            big = np.zeros(M, dtype=complex)
            big[: N // 2] = U[: N // 2]
            big[M - N // 2 + 1 :] = U[N // 2 + 1 :]
            big[N // 2] = big[M - N // 2] = 0.5 * U[N // 2]
            xi_fine = (2.0 * np.pi / g.L) * full_k(M)
            Uf = np.fft.ifft(big * M).real
            Uxf = np.fft.ifft(1j * xi_fine * big * M).real
            power = g.L * np.abs(U) ** 2
            h = g.L / M
            ref = {
                "l2_sq": power.sum(),
                "deriv1_sq": (xi**2 * power).sum(),
                "deriv2_sq": (xi**4 * power).sum(),
                "quartic": -(mu / 6.0) * h * np.sum(Uf**4),
                "product_sq": -(5.0 * mu / 3.0) * h * np.sum(Uf**2 * Uxf**2),
                "sextic": (1.0 / 18.0) * h * np.sum(Uf**6),
            }
            b = functional_A(u, sigma, mu)
            for name, val in ref.items():
                assert abs(b.terms[name] - val) <= 1e-13 * abs(val), name
            assert abs(b.total - sum(ref.values())) <= 1e-13 * sum(abs(v) for v in ref.values())

    @given(
        sigmas=st.lists(st.floats(0.0, 1.5), max_size=5).flatmap(lambda s: st.permutations([0.0, 1.25, *s])),
        mu=st.sampled_from([-1, 1]),
    )
    def test_sigma_vector_matches_scalar_calls(self, soliton_field, sigmas, mu):
        # 1.25 * max(xi) = 31.4 weighs the top modes by up to cosh(31.4) = 2.2e13
        b = functional_A(soliton_field, np.array(sigmas), mu)
        assert b.total.shape == (len(sigmas),)
        for i, sigma in enumerate(sigmas):
            ref = functional_A(soliton_field, sigma, mu)
            assert isinstance(ref.total, float)
            for name, val in ref.terms.items():
                assert abs(b.terms[name][i] - val) <= 1e-13 * abs(val), (name, sigma)
            assert abs(b.total[i] - ref.total) <= 1e-13 * abs(ref.total), sigma

    @pytest.mark.parametrize("P", [1, 3, 7])
    def test_one_inverse_transform_for_any_sigma_count(self, soliton_field, P, fft_counts):
        fft_counts.update(rfft=0, irfft=0)
        functional_A(soliton_field, np.linspace(0.0, 0.4, P), -1)
        assert (fft_counts["rfft"], fft_counts["irfft"]) == (0, 1)

    def test_mu_validation(self, soliton_field):
        with pytest.raises(ConfigurationError):
            functional_A(soliton_field, 0.1, 2)

    @pytest.mark.parametrize("sigma", [np.zeros((2, 2)), np.array([]), np.array([0.1, -0.1]), -0.1])
    def test_sigma_validation(self, soliton_field, sigma):
        with pytest.raises(ConfigurationError):
            functional_A(soliton_field, sigma, 1)

    def test_functional_m_single_mode(self):
        f, g = single_mode(2.0 * np.pi, 64, 3)
        sig = 0.4
        expect = g.L * math.cosh(sig * 3.0) ** 2 / 2.0
        assert functional_M(f, sig) == pytest.approx(expect, rel=1e-12)


@pytest.fixture(scope="module")
def recorded_states():
    """States recorded by the packaged conserve and sigma-scaling runs,
    cut to t_end = 0.5 and recorded every 50 steps (51 states each), with
    each config's mu."""
    out = {}
    for name in ("conserve", "sigma_scaling"):
        cfg = parse_config_text(packaged_text(name), ["evolution.t_end=0.5", "evolution.record_every=50"])
        spec, init = cfg.build()
        out[name] = (integrate(spec, init).states, cfg.mu)
    return out


def assert_rows_match_single_calls(states, sigma, mu):
    """functional_A over the sequence equals one call per state, bit for
    bit in every term and the total."""
    batch = functional_A(states, sigma, mu)
    P = np.shape(sigma)
    assert batch.total.shape == (len(states),) + P
    for r, u in enumerate(states):
        ref = functional_A(u, sigma, mu)
        assert np.asarray(batch.total[r]).tobytes() == np.asarray(ref.total).tobytes(), r
        for name, val in ref.terms.items():
            assert batch.terms[name].shape == (len(states),) + P, name
            assert np.asarray(batch.terms[name][r]).tobytes() == np.asarray(val).tobytes(), (name, r)


class TestTrajectoryFunctional:
    # 1.25 * max(xi) = 31.4 is the largest weight argument here
    @pytest.mark.parametrize("name", ["conserve", "sigma_scaling"])
    @pytest.mark.parametrize(
        "sigma", [0.0, 1.25, np.array([0.05, 0.1, 0.2, 0.4]), np.array([0.0, 0.05, 1.25, 0.4])],
        ids=["zero", "sigma-1.25", "sigma-scaling", "with-sigma-1.25"],
    )
    def test_matches_one_call_per_state(self, recorded_states, name, sigma):
        states, mu = recorded_states[name]
        assert_rows_match_single_calls(states, sigma, mu)

    def test_each_state_has_its_own_noise_floor(self, recorded_states, rng):
        # amplitudes over twelve decades, and tails just under and just over
        # the floor of the state they ride on, in modes above the band that
        # the recorded state leaves empty
        states, mu = recorded_states["sigma_scaling"]
        g = states[0].grid
        base = states[-1].spectrum
        tail = np.zeros_like(base)
        tail[g.band : g.band + 8] = rng.standard_normal(8)
        peak = np.abs(base).max()
        spectra = [base * scale for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6)]
        spectra += [base + factor * 1e-13 * peak * tail / np.abs(tail).max() for factor in (0.5, 2.0)]
        fields = [synthesize(F, g) for F in spectra]
        assert_rows_match_single_calls(fields, np.array([0.05, 0.4, 1.25]), mu)
        assert_rows_match_single_calls(fields, 0.2, mu)

    def test_weights_beyond_double_range(self):
        # cosh(25 * 32) overflows on kept top modes: even a field of size
        # 1e-300, whose weighted values would fit, raises, naming the first
        # state and radius that left range
        g = Grid(2.0 * np.pi, 64)
        fields = [synthesize(a * np.exp(-0.8 * g.xi), g) for a in (1e-300, 3e-300)]
        with pytest.raises(OverflowGuardError, match=r"^functional_A exceeds double range at state 0, sigma = 25$"):
            functional_A(fields, np.array([0.5, 25.0]), 1)
        with pytest.raises(OverflowGuardError, match=r"^weighted norm exceeds double range at state 1, sigma = 25$"):
            hsigma_norm([dealias(fields[0]), fields[1]], np.array([0.5, 25.0]), 0.0)
        assert np.all(np.isfinite(functional_A(fields, 0.5, 1).total))

    def test_result_shapes(self, soliton_field):
        sigmas = np.array([0.0, 0.1, 0.2])
        fields = [soliton_field] * 4
        one = functional_A(soliton_field, 0.1, 1)
        assert isinstance(one.total, float) and all(isinstance(v, float) for v in one.terms.values())
        assert functional_A(soliton_field, sigmas, 1).total.shape == (3,)
        assert functional_A(fields, 0.1, 1).total.shape == (4,)
        assert functional_A(fields, sigmas, 1).total.shape == (4, 3)
        inv = conserved_combinations(functional_A(fields, sigmas, 1))
        assert all(v.shape == (4, 3) for v in inv.values())

    def test_one_inverse_transform_per_state(self, recorded_states, fft_counts):
        states, mu = recorded_states["sigma_scaling"]
        fft_counts.update(rfft=0, irfft=0)
        functional_A(states, np.linspace(0.05, 0.4, 7), mu)
        assert (fft_counts["rfft"], fft_counts["irfft"]) == (0, len(states))

    @pytest.mark.parametrize(
        "sigma, mu, count",
        [(-0.1, 1, 2), (np.array([0.1, -0.1]), 1, 2), (np.zeros((2, 2)), 1, 2), (0.1, 2, 2), (0.1, 1, 0)],
        ids=["negative", "negative-in-array", "2-D", "bad-mu", "empty"],
    )
    def test_validation(self, soliton_field, sigma, mu, count):
        with pytest.raises(ConfigurationError):
            functional_A([soliton_field] * count, sigma, mu)

    def test_states_must_share_a_grid(self, soliton_field):
        other = analyze(np.zeros(256), Grid(64.0, 256))
        with pytest.raises(ConfigurationError, match="one grid"):
            functional_A([soliton_field, other], 0.1, 1)


class TestDampingNorm:
    @given(
        floor=st.floats(1e-6, 1e6),
        L=st.floats(1.0, 1e3),
        N=st.sampled_from([16, 64, 256, 1024]),
        sigma=st.floats(0.0, 1e6),
    )
    def test_constant_profile(self, floor, L, N, sigma):
        # amplitude 0 is the constant damping: its samples are the floor bit
        # for bit, and only k=0 survives, so the norm is the floor itself
        # at any sigma (its rate R = 0 leaves (A3) nothing to reject)
        g = Grid(L, N)
        a = RaisedCosineDamping(floor, 0.0, g.L)
        assert a.values(g).tobytes() == np.full(N, floor).tobytes()
        assert damping_A_norm(a, sigma) == floor

    @pytest.mark.parametrize("sigma", [1e8, 1e9, 1e10, 1e300])
    def test_constant_profile_where_the_head_coefficient_overflows(self, sigma):
        # from sigma = 1e9 on, sigma^k / k! overflows to inf within the 40
        # head terms; the zero derivative sups must not turn it into nan
        a = RaisedCosineDamping(1.0, 0.0, 64.0)
        assert damping_A_norm(a, sigma) == 1.0

    def test_raised_cosine_against_long_sum(self):
        a = RaisedCosineDamping(floor=0.2, amplitude=0.15, length=64.0)
        sig = 0.5
        val = damping_A_norm(a, sig)
        direct = sum(
            (k + 1) ** 0.25 * sig**k / math.factorial(k) * a.deriv_sup(k)
            for k in range(120)
        )
        assert val == pytest.approx(direct, rel=1e-12)

    def test_divergent_radius(self):
        a = RaisedCosineDamping(floor=1.0, amplitude=0.5, length=64.0)
        bad_sigma = 1.0 / a.deriv_bound_rate + 1.0
        with pytest.raises(DivergenceError, match="diverges"):
            damping_A_norm(a, bad_sigma)

    @pytest.mark.parametrize("q", [0.05, 0.49, 0.88, 0.95, 0.999])
    def test_whole_a3_regime_against_long_sum(self, q):
        # every sigma R < 1 is in the series' domain, and the 41 summed
        # terms are the series to round-off
        a = RaisedCosineDamping(floor=1.0, amplitude=0.25, length=64.0)
        sig = q / a.deriv_bound_rate
        direct = sum(
            (k + 1) ** 0.25 * sig**k / math.factorial(k) * a.deriv_sup(k)
            for k in range(120)
        )
        assert damping_A_norm(a, sig) == pytest.approx(direct, rel=1e-14)


class TestCommutatorOperators:
    def test_f_vanishes_at_sigma_zero(self, soliton_field):
        g = soliton_field.grid
        out = operator_F(soliton_field, 0.0, 1)
        # scale of the cubic term the commutator is carved out of
        scale = np.abs(soliton_field.samples).max() ** 3 * g.xi[-1] / 3.0
        assert np.abs(out.samples).max() <= 10 * EPS * scale
        # a synthesized (spectrum-born) field cancels bitwise
        w = synthesize(dealias(soliton_field).spectrum.copy(), g)
        assert np.abs(operator_F(w, 0.0, 1).samples).max() == 0.0

    def test_f_single_mode_support(self):
        # cube of one cosine lives on {+-xi0, +-3 xi0}; so does the commutator
        f, g = single_mode(2.0 * np.pi, 64, 3)
        out = operator_F(f, 0.05, 1)
        spec = np.abs(out.spectrum)
        support = {3, 9}
        rest = np.array([spec[k] for k in range(g.N // 2 + 1) if k not in support])
        assert rest.max() <= 1e-13 * spec.max()
        assert spec[3] > 0 and spec[9] > 0

    def test_f_quadratic_in_sigma(self, soliton_field):
        g = soliton_field.grid
        sigs = np.geomspace(1e-3, 1e-1, 7)
        norms = [
            math.sqrt(float(np.sum(g.multiplicity * np.abs(operator_F(soliton_field, s, 1).spectrum) ** 2)))
            for s in sigs
        ]
        slope = np.polyfit(np.log(sigs), np.log(norms), 1)[0]
        assert 1.9 <= slope <= 2.1

    def test_g_vanishes_at_sigma_zero(self, soliton_field):
        g = soliton_field.grid
        a = RaisedCosineDamping(floor=0.2, amplitude=0.15, length=64.0)
        w = synthesize(dealias(soliton_field).spectrum.copy(), g)
        out = operator_G(w, a, 0.0)
        assert np.abs(out.samples).max() == 0.0

    def test_g_vanishes_for_constant_damping(self, soliton_field):
        # cosh amplification of transform crumbs caps the attainable sigma;
        # at sigma = 0.3 the bound 10 eps ||a W|| still holds cleanly
        lam = 0.8
        a = RaisedCosineDamping(lam, 0.0, soliton_field.grid.L)
        scale = lam * np.abs(soliton_field.samples).max()
        for sig in (0.0, 0.1, 0.3):
            out = operator_G(soliton_field, a, sig)
            assert np.abs(out.samples).max() <= 10 * EPS * scale

    def test_g_linear_in_sigma(self):
        # G is even in sigma through the band edge unless the probe sits at
        # high frequency; mode 102 of 512 makes the odd term dominate
        g = Grid(64.0, 512)
        probe = analyze(np.cos(2.0 * np.pi * 102 * g.x / g.L), g)
        a = RaisedCosineDamping(floor=0.2, amplitude=0.15, length=64.0)
        sigs = np.linspace(0.3, 1.0, 8)
        norms = [
            math.sqrt(float(np.sum(g.multiplicity * np.abs(operator_G(probe, a, s).spectrum) ** 2)))
            for s in sigs
        ]
        slope = np.polyfit(np.log(sigs), np.log(norms), 1)[0]
        assert 0.9 <= slope <= 1.1


class TestRateIdentities:
    def test_energy_rate_zero_at_sigma_zero(self, soliton_field):
        r = energy_rate_A(soliton_field, 0.0, 1)
        assert all(v == 0.0 for v in r.terms.values())
        assert r.total == 0.0

    def test_energy_rate_matches_finite_difference(self):
        g = Grid(64.0, 512)
        u0 = analyze(
            0.9 * np.cos(2 * np.pi * 3 * g.x / g.L)
            + 0.45 * np.sin(2 * np.pi * 5 * g.x / g.L)
            + 0.2 * np.cos(2 * np.pi * 8 * g.x / g.L),
            g,
        )
        sig, mu = 0.25, 1
        spec = EvolutionSpec(equation=Equation(mu=mu), dt=1e-4, t_end=6e-4, record_every=1)
        traj = integrate(spec, u0)
        A = [functional_A(s, sig, mu).total for s in traj.states]
        dt_rec = traj.times[1] - traj.times[0]
        mid = 3
        fd = (A[mid + 1] - A[mid - 1]) / (2.0 * dt_rec)
        rate = energy_rate_A(traj.states[mid], sig, mu).total
        assert fd == pytest.approx(rate, rel=1e-5)

    def test_energy_rate_scales_quadratically(self):
        g = Grid(64.0, 512)
        u = dealias(analyze(
            0.9 * np.cos(2 * np.pi * 3 * g.x / g.L)
            + 0.45 * np.sin(2 * np.pi * 5 * g.x / g.L),
            g,
        ))
        sigs = np.array([0.05, 0.1, 0.2, 0.4])
        vals = np.array([abs(energy_rate_A(u, s, -1).total) for s in sigs])
        slope = np.polyfit(np.log(sigs), np.log(vals), 1)[0]
        assert 1.8 <= slope <= 2.2

    def test_mass_rate_constant_damping_exact(self, soliton_field):
        lam = 0.35
        a = RaisedCosineDamping(lam, 0.0, soliton_field.grid.L)
        rate, damping, fg = mass_rate_M(soliton_field, a, 0.0, 1)
        assert fg == 0.0
        expect = -2.0 * lam * functional_M(soliton_field, 0.0)
        assert rate == pytest.approx(expect, rel=1e-12)

    def test_mass_rate_matches_finite_difference(self, soliton_field):
        g = soliton_field.grid
        a = RaisedCosineDamping(floor=0.2, amplitude=0.15, length=64.0)
        eq = Equation(mu=-1, m=3, dampings=(a,))
        spec = EvolutionSpec(equation=eq, dt=1e-4, t_end=6e-4, record_every=1)
        traj = integrate(spec, soliton_field)
        sig = 0.25
        M = [functional_M(s, sig) for s in traj.states]
        dt_rec = traj.times[1] - traj.times[0]
        mid = 3
        fd = (M[mid + 1] - M[mid - 1]) / (2.0 * dt_rec)
        rate, damping, fg = mass_rate_M(traj.states[mid], a, sig, -1)
        assert fd == pytest.approx(rate, rel=1e-5)
        assert rate == pytest.approx(damping + fg, rel=1e-14)
        assert damping < 0

    @pytest.mark.parametrize(
        "a",
        [RaisedCosineDamping(floor=0.2, amplitude=0.15, length=64.0), RaisedCosineDamping(0.35, 0.0, 64.0)],
        ids=["raised_cosine", "constant"],
    )
    def test_closed_form_rate_equals_weighted_rate_at_sigma_zero(self, soliton_field, a):
        # the package's rate is the oracle's sigma = 0 rate bit for bit,
        # commutator terms and all, on every state of a damped run
        eq = Equation(mu=-1, m=5, dampings=(a,))
        traj = integrate(EvolutionSpec(equation=eq, dt=1e-4, t_end=6e-4, record_every=2), soliton_field)
        for state in traj.states:
            assert mass_rate(state, a) == mass_rate_M(state, a, 0.0, -1)[0]

    def test_mass_rate_fg_zero_at_sigma_zero(self, soliton_field):
        a = RaisedCosineDamping(floor=0.2, amplitude=0.15, length=64.0)
        w = synthesize(dealias(soliton_field).spectrum.copy(), soliton_field.grid)
        _, _, fg = mass_rate_M(w, a, 0.0, -1)
        assert fg == 0.0

    def test_mass_rate_is_one_inverse_transform(self, soliton_field, fft_counts):
        # one irfft of the half spectrum, zero-padded to the 2x grid
        a = RaisedCosineDamping(floor=0.2, amplitude=0.15, length=64.0)
        fft_counts.update(rfft=0, irfft=0, points=0)
        mass_rate(soliton_field, a)
        assert fft_counts == {"rfft": 0, "irfft": 1, "points": 2 * soliton_field.grid.N}


class TestIndexFormulas:
    def test_exact_rationals(self):
        assert s_index(5) == Fraction(-1, 4)
        assert s_index(7) == Fraction(-43, 60)
        assert s_index(9) == Fraction(-7, 6)
        assert theta_max(5) == Fraction(1, 4)
        assert theta_max(7) == Fraction(43, 60)
        assert theta_max(9) == Fraction(1)

    def test_branch_crossover(self):
        # -(m-2)/6 dominates up to m=9 ... check which max is active
        for m in (5, 7):
            assert s_index(m) == Fraction(-(14 * m - 55), 60)
        assert s_index(9) == Fraction(-(9 - 2), 6)

    def test_m_validation(self):
        for bad in (3, 4, 6, 1):
            with pytest.raises(ConfigurationError):
                s_index(bad)

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: damping_A_norm(RaisedCosineDamping(1.0, 0.25, 64.0), math.nan), r"^weight radius must be >= 0, got nan$"),
            (lambda: lifespan_T0(math.nan, 1.0, 1.0, 2.0), r"^norms must be nonnegative, got a_norm=nan, data_norm_sq=1\.0$"),
            (lambda: lifespan_T0(1.0, math.nan, 1.0, 2.0), r"^norms must be nonnegative, got a_norm=1\.0, data_norm_sq=nan$"),
            (lambda: lifespan_T0(1.0, 1.0, math.nan, 2.0), r"^lifespan scale must be positive, got c0=nan$"),
            (lambda: lifespan_T0(1.0, 1.0, 1.0, math.nan), r"^lifespan exponent must exceed 1, got d=nan$"),
            (lambda: sigma_choice(0.5, 1.0, math.nan, 1.0, 1.0, 1.0, 0.5), r"^T0 must be positive, got nan$"),
            (lambda: sigma_choice(math.nan, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5), r"^sigma0 must be positive, got nan$"),
        ],
        ids=["damping-norm-sigma", "lifespan-a-norm", "lifespan-data-norm", "lifespan-c0", "lifespan-d", "choice-T0", "choice-sigma0"],
    )
    def test_nan_fails_every_guard(self, call, match):
        # a nan argument passed each `x < 0` style guard and came back as a
        # nan norm, a nan window or the "cap" branch
        with pytest.raises(ConfigurationError, match=match):
            call()

    def test_lifespan(self):
        assert lifespan_T0(1.0, 3.0, 1.0, 2.0) == pytest.approx(1.0 / 25.0, rel=1e-15)
        assert lifespan_T0(0.0, 0.0, 1.0, 2.0) == 1.0
        # a power beyond double range leaves no window
        assert lifespan_T0(1.0, 1.0, 1.0, 1e300) == 0.0
        with pytest.raises(ConfigurationError):
            lifespan_T0(1.0, 1.0, c0=0.0, d=2.0)
        with pytest.raises(ConfigurationError):
            lifespan_T0(1.0, 1.0, c0=1.0, d=1.0)
        with pytest.raises(ConfigurationError):
            lifespan_T0(-1.0, 1.0, 1.0, 2.0)


class TestSigmaChoice:
    def test_data_branch_example(self):
        val, branch = sigma_choice(1.0, 1.0, 0.04, 1.0, 2.0, 1.0, 0.25)
        assert branch == "data"
        b = 1.0 - math.exp(-0.08)  # independent route: exp, not expm1
        assert val == pytest.approx((b / 2.0) ** 4, rel=1e-12)
        assert val == pytest.approx(2.1838161376366920e-06, rel=1e-12)

    def test_cap_branch(self):
        val, branch = sigma_choice(0.01, 5.0, 10.0, 1.0, 0.5, 0.5, 1.0)
        assert branch == "cap" and val == 0.01

    def test_data_candidate_beyond_double_range_is_never_the_minimum(self):
        # (b / (2 C1 M0))^(1/theta) = 500^10000 leaves double range
        val, branch = sigma_choice(0.01, 5.0, 10.0, 1e-3, 0.5, 1.0, 1e-4)
        assert branch == "cap" and val == 0.01

    def test_damping_branch(self):
        val, branch = sigma_choice(10.0, 1.0, 10.0, 1.0, 5.0, 0.01, 1.0)
        assert branch == "damping"
        assert val == pytest.approx((1.0 - math.exp(-20.0)) / 10.0, rel=1e-12)

    def test_tiny_exponent_precision(self):
        # lam T0 = 1e-12: expm1 keeps the leading term exact
        val, branch = sigma_choice(1.0, 1e-6, 1e-6, 1.0, 1.0, 1e6, 1.0)
        assert branch == "data"
        assert val == pytest.approx(2e-12 / 2e6, rel=1e-9)

    def test_degenerate_theta(self):
        with pytest.raises(ConfigurationError, match=r"theta must lie in \(0, 1\], got 0\.0"):
            sigma_choice(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ConfigurationError):
            sigma_choice(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.5)

    def test_positive_inputs_required(self):
        with pytest.raises(ConfigurationError):
            sigma_choice(1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 0.5)


class TestRadiusEstimate:
    def test_synthetic_exponential(self):
        g = Grid(64.0, 512)
        F = np.zeros(g.N // 2 + 1, dtype=complex)
        F[0] = 1.0
        for k in range(1, g.N // 2):
            F[k] = math.exp(-0.7 * g.xi[k])
        fit = radius_estimate(synthesize(F, g))
        assert abs(fit.sigma_hat - 0.7) < 1e-10
        assert not fit.clamped and not fit.superexponential

    def test_soliton_radius(self, soliton_field):
        fit = radius_estimate(soliton_field)
        assert fit.sigma_hat == pytest.approx(math.pi / 2.0, rel=0.03)
        assert not fit.superexponential

    def test_translation_invariance(self, soliton_field):
        g = soliton_field.grid
        rolled = analyze(np.roll(soliton_field.samples, 77), g)
        fit_a = radius_estimate(soliton_field)
        fit_b = radius_estimate(rolled)
        assert fit_a.sigma_hat == pytest.approx(fit_b.sigma_hat, abs=1e-9)

    def test_gaussian_flags_superexponential(self):
        g = Grid(64.0, 512)
        fit = radius_estimate(analyze(np.exp(-0.5 * (g.x - 32.0) ** 2), g))
        assert fit.superexponential

    def test_underresolved(self):
        f, _ = single_mode(64.0, 512, 3)
        with pytest.raises(UnderresolvedError):
            radius_estimate(f)

    def test_clamped_growing_spectrum(self):
        g = Grid(64.0, 512)
        F = np.zeros(g.N // 2 + 1, dtype=complex)
        for k in range(1, 40):
            F[k] = 1e-6 * math.exp(0.05 * g.xi[k])
        F[0] = 2e-6
        fit = radius_estimate(synthesize(F, g))
        assert fit.clamped and fit.sigma_hat == 0.0

    def test_zero_field(self):
        g = Grid(64.0, 512)
        with pytest.raises(UnderresolvedError):
            radius_estimate(analyze(np.zeros(g.N), g))

    @pytest.mark.parametrize("L, why", [(1e250, "divide by zero"), (1e-200, "overflow")])
    def test_frequencies_beyond_double_range(self, L, why):
        # the centred sum of squares of xi underflows to 0 at L = 1e250
        # (a divide by zero) and overflows at L = 1e-200; tier-1 turns its
        # warnings into errors, so a numpy warning would fail here too
        g = Grid(L, 256)
        F = np.exp(-0.1 * np.arange(g.N // 2 + 1)).astype(complex)
        with pytest.raises(UnderresolvedError, match=rf"^the fit's frequencies xi = .* leave double range \({why}"):
            radius_estimate(synthesize(F, g))


class TestLineFit:
    """fit_line, the package's one least-squares line, in closed form;
    np.polyfit is its reference here and nowhere in the package."""

    @settings(max_examples=200, derandomize=True)
    @given(
        n=st.integers(3, 60),
        x0=st.floats(-10.0, 10.0),
        width=st.floats(1.0, 20.0),
        slope=st.floats(0.1, 10.0),
        sign=st.sampled_from([-1.0, 1.0]),
        intercept=st.floats(-10.0, 10.0),
        noise=st.floats(0.0, 0.1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_agrees_with_polyfit(self, n, x0, width, slope, sign, intercept, noise, seed):
        # spread points with a noisy line through them: cond(x) <= ~ 10
        rng = np.random.default_rng(seed)
        x = x0 + width * np.sort(rng.uniform(0.0, 1.0, n))
        x[[0, -1]] = x0, x0 + width
        y = sign * slope * x + intercept + noise * slope * width * rng.standard_normal(n)
        ref_slope, ref_intercept = np.polyfit(x, y, 1)
        got_slope, got_intercept = fit_line(x, y)
        assert got_slope == pytest.approx(ref_slope, rel=1e-12)
        scale = np.abs(y).max()
        assert got_intercept == pytest.approx(ref_intercept, rel=1e-12, abs=1e-12 * scale)
        assert np.abs((got_slope * x + got_intercept) - (ref_slope * x + ref_intercept)).max() <= 1e-12 * scale

    @settings(max_examples=200, derandomize=True)
    @given(
        x=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=40, unique=True).filter(
            lambda v: max(v) - min(v) >= 1e-3 * max(1.0, *map(abs, v))
        ),
        slope=st.floats(-1e3, 1e3),
        intercept=st.floats(-1e3, 1e3),
    )
    def test_recovers_an_exact_line(self, x, slope, intercept):
        x = np.array(x)
        y = slope * x + intercept
        got_slope, got_intercept = fit_line(x, y)
        # y holds one rounding of each point; the centring adds a few more
        scale = np.abs(y).max() + np.abs(slope) * np.abs(x).max() + abs(intercept)
        spread = x.max() - x.min()
        assert abs(got_slope - slope) <= 64 * EPS * scale / spread
        assert np.abs(got_slope * x + got_intercept - y).max() <= 64 * EPS * scale * (1.0 + np.abs(x).max() / spread)

    def test_loglog_of_a_power_law(self):
        x = np.array([0.25, 0.5, 1.0, 1.5])
        slope, intercept, r2 = fit_loglog(x, 3.0 * x**2)
        assert slope == pytest.approx(2.0, rel=1e-14)
        assert intercept == pytest.approx(math.log(3.0), rel=1e-14)
        assert r2 == pytest.approx(1.0, abs=1e-14)
        # a constant y has no spread to explain: r2 is 1 and the slope 0
        assert fit_loglog(x, np.full(4, 2.0)) == (0.0, pytest.approx(math.log(2.0)), 1.0)

    def test_no_least_squares_route_but_fit_line(self):
        # np.polyfit, lstsq and the Polynomial classes load LAPACK, whose
        # first call keeps 1.2 MB
        assert package_names({"polyfit", "lstsq", "linalg", "Polynomial"}) == []


def interpolation_margin(v, sigma1):
    """rhs - lhs of ||v||_{H^{sigma1/2,0}} <= (||v||_L2 ||v||_{H^{sigma1,0}})^(1/2),
    a pointwise consequence of cosh^2(r/2) = (1 + cosh r)/2 <= cosh r."""
    rhs = math.sqrt(hsigma_norm(v, 0.0, 0.0) * hsigma_norm(v, sigma1, 0.0))
    return rhs - hsigma_norm(v, sigma1 / 2.0, 0.0), rhs


class TestInterpolation:
    def test_holds_on_fixed_fields(self, soliton_field):
        for sig1 in (0.2, 0.8, 1.5):
            margin, _ = interpolation_margin(soliton_field, sig1)
            assert margin >= 0.0

    @given(
        amps=st.lists(
            st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
            min_size=3,
            max_size=8,
        ),
        sig1=st.floats(min_value=0.01, max_value=1.5),
    )
    def test_holds_on_random_band_limited_fields(self, amps, sig1):
        g = Grid(2.0 * np.pi, 64)
        samples = np.zeros(g.N)
        for j, a in enumerate(amps):
            samples += a * np.cos((j + 1) * g.x + 0.3 * j)
        if np.abs(samples).max() == 0.0:
            return
        margin, rhs = interpolation_margin(analyze(samples, g), sig1)
        assert margin >= -1e-12 * max(1.0, rhs)


class TestBreakdownType:
    def test_frozen(self):
        b = FunctionalBreakdown(total=1.0, terms={"x": 1.0})
        with pytest.raises(AttributeError):
            b.total = 2.0

    def test_radius_fit_fields(self):
        # the fit's three readings, all the radius scenario reads of it
        assert [f.name for f in dataclasses.fields(RadiusFit)] == ["sigma_hat", "clamped", "superexponential"]
