import numpy as np
import pytest
from hypothesis import given, strategies as st
from oracles import triple_cosh_lhs_naive

from gevreyflow.harness import _violations
from gevreyflow.inequalities import (
    cosh_minus_one_margin,
    equivalence_margins,
    load_manifest,
    scan_triple_cosh,
    sinh_margin,
    triple_cosh_lhs,
    triple_cosh_rhs,
)

magnitudes = st.floats(min_value=1e-6, max_value=1e3)
signed = st.floats(min_value=-1e3, max_value=1e3)
thetas = st.floats(min_value=0.0, max_value=1.0)
TOL = 1e-12  # the default tolerances.inequality
K = load_manifest()["triple_cosh"]["constant"]  # the certified constant


def holds(margin, scale):
    """No violation under the inequality scenario's rule: the margin over
    max(1, rhs scale) is >= -1e-12."""
    return _violations(np.asarray(margin, dtype=float), np.asarray(scale, dtype=float), TOL)[0] == 0


def triple_margin(sigma, x1, x2, x3, t1, t2):
    """(rhs - lhs, rhs) of the product bound at the certified constant."""
    rhs = triple_cosh_rhs(sigma, x1, x2, x3, t1, t2, K=K)
    return rhs - triple_cosh_lhs(sigma, x1, x2, x3), rhs


class TestSinh:
    def test_zero_argument(self):
        m = sinh_margin(0.0, 0.7)
        assert holds(m, 0.0) and m == pytest.approx(0.0, abs=1e-15)

    def test_scalar_example(self):
        # sinh 3 ~ 10.0179 <= 3 cosh 3 ~ 30.2030
        assert np.sinh(3.0) == pytest.approx(10.0179, abs=1e-3)
        assert 3 * np.cosh(3.0) == pytest.approx(30.2030, abs=1e-3)
        m = sinh_margin(3.0, 1.0)
        assert holds(m, 3.0)
        assert m == pytest.approx(3.0 - np.tanh(3.0))

    def test_theta_zero_is_tanh_bound(self):
        for r in (-50.0, -0.3, 0.0, 2.0, 800.0):
            assert holds(sinh_margin(r, 0.0), 1.0)

    @given(signed, thetas)
    def test_always_holds(self, r, theta):
        assert holds(sinh_margin(r, theta), abs(r) ** theta)

    def test_margin_nonincreasing_in_theta_below_one(self, rng):
        # for |r| < 1 the majorant |r|^theta shrinks as theta grows
        for r in rng.uniform(1e-6, 1.0 - 1e-9, size=50):
            m = sinh_margin(r, np.linspace(0.0, 1.0, 101))
            assert np.all(np.diff(m) <= 1e-15)


class TestCoshMinusOne:
    def test_zero_argument(self):
        m = cosh_minus_one_margin(0.0, 5.0, 0.5)
        assert holds(m, 0.0) and m == pytest.approx(0.0, abs=1e-15)

    def test_scalar_example(self):
        # cosh(0.1) - 1 ~ 0.0050042 <= 0.01 cosh(0.1) ~ 0.0100500
        assert np.cosh(0.1) - 1 == pytest.approx(0.0050042, abs=1e-7)
        assert 0.01 * np.cosh(0.1) == pytest.approx(0.0100500, abs=1e-7)
        assert holds(cosh_minus_one_margin(0.1, 1.0, 1.0), 0.01)

    def test_theta_zero_always_holds(self):
        for r in (0.0, 0.5, 3.0, 1e6):
            assert holds(cosh_minus_one_margin(1.0, r, 0.0), 1.0)

    @given(magnitudes, signed, thetas)
    def test_always_holds(self, sigma, xi, theta):
        assert holds(cosh_minus_one_margin(sigma, xi, theta), abs(sigma * xi) ** (2.0 * theta))


class TestEquivalence:
    def test_zero_argument(self):
        lower, upper = equivalence_margins(0.0, 7.0)
        assert lower == 0.5 and upper == 0.0

    def test_large_argument_ratio_approaches_half(self):
        # cosh(r) e^(-r) -> 1/2: the lower constant is sharp
        lower, upper = equivalence_margins(1.0, 50.0)
        assert lower == pytest.approx(0.0, abs=1e-16)
        assert upper == pytest.approx(0.5, abs=1e-16)

    @given(magnitudes, signed)
    def test_always_holds(self, sigma, xi):
        lower, upper = equivalence_margins(sigma, xi)
        assert lower >= -TOL and upper >= -TOL


class TestTripleCosh:
    def test_sigma_zero(self):
        margin, rhs = triple_margin(0.0, 3.0, -2.0, 5.0, 1.0, 1.0)
        assert holds(margin, rhs) and margin == pytest.approx(0.0, abs=1e-15)

    def test_two_frequencies_zero(self):
        # cosh(s x) sech(s x) = 1 exactly, lhs vanishes
        assert holds(*triple_margin(1.3, 4.0, 0.0, 0.0, 0.7, 0.9))
        assert triple_cosh_lhs(1.3, 4.0, 0.0, 0.0) == 0.0

    def test_identity_matches_naive_on_moderate_inputs(self, rng):
        # dual route: the tanh identity against the literal cosh quotient
        sigma = rng.uniform(0.0, 2.0, size=2000)
        xi = rng.uniform(-20.0, 20.0, size=(3, 2000))
        a = triple_cosh_lhs(sigma, xi[0], xi[1], xi[2])
        b = triple_cosh_lhs_naive(sigma, xi[0], xi[1], xi[2])
        assert np.abs(a - b).max() < 5e-13

    def test_identity_survives_where_naive_overflows(self):
        sigma, x = 10.0, 200.0  # cosh(6000) overflows
        val = triple_cosh_lhs(sigma, x, x, x)
        assert np.isfinite(val) and val == pytest.approx(3.0, rel=1e-12)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(triple_cosh_lhs_naive(sigma, x, x, x))

    @given(
        st.floats(min_value=0.0, max_value=100.0),
        signed,
        signed,
        signed,
        thetas,
        thetas,
    )
    def test_always_holds_at_certified_constant(self, sigma, x1, x2, x3, t1, t2):
        assert holds(*triple_margin(sigma, x1, x2, x3, t1, t2))

    def test_spec_lattice_scan_is_violation_free(self):
        res = scan_triple_cosh(
            np.linspace(0.0, 2.0, 21), np.linspace(-20.0, 20.0, 50), 1.0, 1.0, K=8.0, tol=TOL
        )
        assert res["violations"] == 0
        manifest = load_manifest()["triple_cosh"]["scan"]
        assert res["max_ratio"] == pytest.approx(
            manifest["max_ratio_vs_constant_one"], rel=1e-12
        )

    def test_identity_bound_three_also_certifies(self):
        # the rigorous constant from the tanh identity
        res = scan_triple_cosh(
            np.linspace(0.0, 2.0, 21), np.linspace(-20.0, 20.0, 50), 1.0, 1.0, K=3.0, tol=TOL
        )
        assert res["violations"] == 0


class TestManifest:
    def test_certified_constants(self):
        manifest = load_manifest()
        assert manifest["triple_cosh"]["constant"] == 8.0
        assert manifest["sinh"]["constant"] == 1.0


class TestBulkMargins:
    """Vectorized sweeps: a smaller stand-in for the acceptance-scale runs."""

    def test_log_uniform_sweep_no_violations(self, rng):
        n = 200_000
        r = np.exp(rng.uniform(np.log(1e-6), np.log(1e3), size=n))
        r *= rng.choice([-1.0, 1.0], size=n)
        theta = rng.uniform(0.0, 1.0, size=n)
        assert np.all(sinh_margin(r, theta) >= -1e-12)

        sigma = np.exp(rng.uniform(np.log(1e-6), np.log(1e3), size=n))
        assert np.all(cosh_minus_one_margin(sigma, r, theta) >= -1e-12 * np.maximum(1.0, np.abs(sigma * r) ** (2 * theta)))

        lower, upper = equivalence_margins(sigma, r)
        assert np.all(lower >= -1e-12) and np.all(upper >= -1e-12)

    def test_triple_cosh_bulk(self, rng):
        n = 200_000
        sigma = np.exp(rng.uniform(np.log(1e-6), np.log(1e2), size=n))
        xi = rng.uniform(-1e3, 1e3, size=(3, n))
        t1 = rng.uniform(0.0, 1.0, size=n)
        t2 = rng.uniform(0.0, 1.0, size=n)
        lhs = triple_cosh_lhs(sigma, xi[0], xi[1], xi[2])
        rhs = triple_cosh_rhs(sigma, xi[0], xi[1], xi[2], t1, t2, K=8.0)
        assert np.all(lhs <= rhs * (1 + 1e-12) + 1e-300)
