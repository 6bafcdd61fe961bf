"""Covariance and correlation of powers: kernel coefficients, pair
functions, GEV mixtures, and their independently coded oracles."""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from windrisk import (
    ConvergenceError,
    DomainError,
    GevParams,
    PowerSpec,
    b_coeff,
    bivariate_coeffs,
    cov_gev,
    cov_gev_xi_zero,
    cov_simple,
    dep_measure,
    dep_measure_from_gamma,
    extremal_coefficient,
    extremal_coefficient_radial,
    g_gev,
    g_simple,
    gamma,
    norm_cdf,
    norm_pdf,
    power,
    var_gev,
    var_simple,
)
from windrisk.dependence import _xi_limit

from conftest import ETA, TAU, XI

# ---------------------------------------------------------------------------
# frozen oracle values
# ---------------------------------------------------------------------------

# Hand expansion of the two bracketed factors of C2 at theta = 1, h = 2:
# log(theta) = 0 makes each bracket collapse to Phi(1) (the phi terms
# cancel pairwise), so C2 = Phi(1)^2.
C2_AT_1_2 = 0.707860981737141

# C3 at theta = 1, h = 2 collapses to phi(1)/2.
C3_AT_1_2 = 0.12098536225957168

# 2-D grid quadrature of z1^0.25 z2^0.25 against the bivariate density at
# h = 1 over (0, 1e4)^2, 4000-point log-spaced trapezoid per axis (frozen
# from the oracle run; converged to ~1e-4 in grid size).  The domain
# truncation removes joint-tail mass ~ 2/sqrt(zmax) ~ 2e-2, so the true
# value exceeds this by about that much.
G_2D_ORACLE_1E4 = 1.70670544
# Same oracle widened to (1e-10, 1e8)^2 with 6000 points: truncation
# residue ~ 2e-4.
G_2D_ORACLE_1E8 = 1.72829227


def br_bivariate_density(z1, z2, h):
    """Bivariate density of the simple field at metric lag h (independent
    oracle path: no theta substitution, no collapsed coefficients)."""
    w = h / 2.0 + np.log(z2 / z1) / h
    v = h / 2.0 - np.log(z2 / z1) / h
    phi_w = np.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi)
    phi_v = np.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi)
    a = ndtr(w) / z1**2 + phi_w / (h * z1**2) - phi_v / (h * z1 * z2)
    b = ndtr(v) / z2**2 + phi_v / (h * z2**2) - phi_w / (h * z1 * z2)
    c = v * phi_w / (h**2 * z1**2 * z2) + w * phi_v / (h**2 * z1 * z2**2)
    return np.exp(-ndtr(w) / z1 - ndtr(v) / z2) * (a * b + c)


def oracle_g_2d(b1, b2, h, n, zmin, zmax):
    """Log-spaced trapezoid of z1^b1 z2^b2 l(z1, z2) over (zmin, zmax)^2."""
    z = np.exp(np.linspace(math.log(zmin), math.log(zmax), n))
    inner = np.empty(n)
    block = 256
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        f = (z[i0:i1, None] ** b1 * z[None, :] ** b2
             * br_bivariate_density(z[i0:i1, None], z[None, :], h))
        inner[i0:i1] = np.trapezoid(f, z, axis=1)
    return float(np.trapezoid(inner, z))


class TestBivariateCoeffs:
    def test_c1_at_theta_one(self):
        for h in (0.5, 2.0, 7.0):
            c = bivariate_coeffs(1.0, h)
            assert c.c1 == pytest.approx(2.0 * norm_cdf(h / 2.0), rel=1e-14)

    def test_c1_direct_phi_oracle(self):
        # 2 Phi(1) at (theta, h) = (1, 2)
        phi1 = 0.5 * math.erfc(-1.0 / math.sqrt(2.0))
        assert bivariate_coeffs(1.0, 2.0).c1 == pytest.approx(2.0 * phi1, rel=1e-14)

    def test_c2_hand_expanded_oracle(self):
        assert bivariate_coeffs(1.0, 2.0).c2 == pytest.approx(C2_AT_1_2, rel=1e-12)

    def test_c3_at_theta_one(self):
        assert bivariate_coeffs(1.0, 2.0).c3 == pytest.approx(C3_AT_1_2, rel=1e-12)
        for h in (0.3, 1.0, 4.0):
            assert bivariate_coeffs(1.0, h).c3 == pytest.approx(
                norm_pdf(h / 2.0) / h, rel=1e-13
            )

    def test_c1_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            th = math.exp(rng.uniform(-4, 4))
            h = math.exp(rng.uniform(-2, 2))
            assert bivariate_coeffs(th, h).c1 > 0.0

    def test_collapsed_identities(self):
        # C2 = Phi(w)Phi(v)/theta^2 and C3 = phi(w)/(h theta): the exact
        # simplifications the stable integrand relies on
        rng = np.random.default_rng(4)
        for _ in range(60):
            th = math.exp(rng.uniform(-3, 3))
            h = math.exp(rng.uniform(-1.5, 1.5))
            c = bivariate_coeffs(th, h)
            w = h / 2.0 + math.log(th) / h
            v = h / 2.0 - math.log(th) / h
            assert c.c2 == pytest.approx(norm_cdf(w) * norm_cdf(v) / th**2, rel=1e-9)
            assert c.c3 == pytest.approx(norm_pdf(w) / (h * th), rel=1e-9)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bivariate_coeffs(0.0, 1.0)
        with pytest.raises(DomainError):
            bivariate_coeffs(1.0, -2.0)


class TestGSimple:
    def test_zero_lag_branch(self):
        assert g_simple(0.2, 0.1, 0.0) == pytest.approx(gamma(0.7), rel=1e-14)
        for beta in (-1.0, -0.5, 0.1, 0.25, 0.4):
            assert g_simple(beta, beta, 0.0) == pytest.approx(
                gamma(1.0 - 2.0 * beta), rel=1e-14
            )

    def test_zeroth_moments(self):
        assert g_simple(0.0, 0.0, 1.7) == pytest.approx(1.0, abs=3e-6)

    def test_against_2d_density_oracle(self):
        g = g_simple(0.25, 0.25, 1.0)
        # truncated-domain oracle: g must exceed it by the missing joint
        # tail, which is bounded by ~2.5e-2 on (0, 1e4)^2
        assert g > G_2D_ORACLE_1E4
        assert g - G_2D_ORACLE_1E4 < 0.025
        # widened-domain oracle pins it to ~5e-4
        assert g == pytest.approx(G_2D_ORACLE_1E8, abs=5e-4)

    def test_2d_oracle_machinery(self):
        # a reduced run of the oracle converges from below as the domain grows
        small = oracle_g_2d(0.25, 0.25, 1.0, n=600, zmin=1e-6, zmax=1e3)
        g = g_simple(0.25, 0.25, 1.0)
        assert small < g
        assert g - small < 0.08  # joint tail ~ 2/sqrt(1e3)

    def test_symmetry_in_betas(self):
        assert g_simple(0.3, -0.7, 1.3) == pytest.approx(
            g_simple(-0.7, 0.3, 1.3), rel=1e-8
        )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            g_simple(0.5, 0.1, 1.0)
        with pytest.raises(DomainError):
            g_simple(0.1, 0.7, 1.0)
        with pytest.raises(DomainError):
            g_simple(0.1, 0.1, -1.0)

    def test_strictly_decreasing_small_grid(self):
        hs = 0.01 * 2.0 ** np.arange(10)
        vals = [g_simple(0.25, 0.25, h) for h in hs]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestCovSimple:
    def test_same_site(self):
        v = power(1.0, 1.0)
        expected = gamma(0.5) - gamma(0.75) ** 2
        assert cov_simple(0.25, 0.25, v, [1.0, 2.0], [1.0, 2.0]) == pytest.approx(
            expected, rel=1e-12
        )
        assert expected == pytest.approx(0.2708, abs=5e-5)

    def test_constants_have_zero_covariance(self):
        v = power(1.0, 1.0)
        assert abs(cov_simple(0.0, 0.0, v, [0.0, 0.0], [3.0, 1.0])) < 1e-5

    def test_decreases_with_distance(self):
        v = power(1.0, 1.0)
        c1 = cov_simple(0.25, 0.25, v, [0.0, 0.0], [1.0, 0.0])
        c2 = cov_simple(0.25, 0.25, v, [0.0, 0.0], [4.0, 0.0])
        assert 0.0 < c2 < c1


class TestBCoeff:
    def test_diagonal_top(self):
        p = PowerSpec.gev(2, GevParams(ETA, TAU, XI))
        assert b_coeff(2, 2, p) == pytest.approx((ETA - TAU / XI) ** 4, rel=1e-13)

    def test_zero_zero_beta_one(self):
        p = PowerSpec.gev(1, GevParams(ETA, TAU, XI))
        assert b_coeff(0, 0, p) == pytest.approx((TAU / XI) ** 2, rel=1e-13)

    def test_dual_coded_oracle(self):
        # independently coded expression via logarithms and explicit sign
        beta, k1, k2 = 2, 1, 0
        p = PowerSpec.gev(beta, GevParams(ETA, TAU, XI))
        a_val = ETA - TAU / XI
        b_val = TAU / XI
        sign = (-1.0 if a_val < 0 else 1.0) ** (k1 + k2)
        sign *= (-1.0 if b_val < 0 else 1.0) ** (2 * beta - k1 - k2)
        log_mag = (
            math.log(math.comb(beta, k1)) + math.log(math.comb(beta, k2))
            + (k1 + k2) * math.log(abs(a_val))
            + (2 * beta - k1 - k2) * math.log(abs(b_val))
        )
        assert b_coeff(k1, k2, p) == pytest.approx(sign * math.exp(log_mag), rel=1e-12)

    def test_index_errors(self):
        p = PowerSpec.gev(2, GevParams(ETA, TAU, XI))
        for k1, k2 in ((-1, 0), (0, 3), (5, 5)):
            with pytest.raises(DomainError):
                b_coeff(k1, k2, p)

    def test_simple_mode_rejected(self):
        with pytest.raises(DomainError):
            b_coeff(0, 0, PowerSpec.simple(0.25))


class TestGGev:
    def test_zero_lag_matches_coefficient_sum(self, paper_gev):
        p = PowerSpec.gev(2, paper_gev)
        total = 0.0
        for k1 in range(3):
            for k2 in range(3):
                total += b_coeff(k1, k2, p) * gamma(1.0 - XI * (4 - k1 - k2))
        assert g_gev(p, 0.0) == pytest.approx(total, rel=1e-12)

    def test_beta_one_hand_expansion(self, paper_gev):
        # 4 summands: B00 g(xi,xi) + B01 g(xi,0) + B10 g(0,xi) + B11 g(0,0)
        p = PowerSpec.gev(1, paper_gev)
        h = 1.3
        b00 = (TAU / XI) ** 2
        b01 = (ETA - TAU / XI) * (TAU / XI)
        b11 = (ETA - TAU / XI) ** 2
        expansion = (
            b00 * g_simple(XI, XI, h)
            + b01 * (g_simple(XI, 0.0, h) + g_simple(0.0, XI, h))
            + b11 * g_simple(0.0, 0.0, h)
        )
        assert g_gev(p, h) == pytest.approx(expansion, rel=1e-6)

    def test_limit_at_infinity(self, paper_gev):
        # gamma = 1e6 through the psi=1 variogram: h = 1000; the limit is
        # the squared first moment
        from windrisk import mean_cost

        for beta in (1, 3):
            p = PowerSpec.gev(beta, paper_gev)
            mu2 = mean_cost(p) ** 2
            assert g_gev(p, 1000.0) == pytest.approx(mu2, rel=1e-3)

    def test_continuity_at_zero(self, paper_gev):
        p = PowerSpec.gev(2, paper_gev)
        limit = g_gev(p, 0.0)
        assert abs(g_gev(p, 1e-6) - limit) <= 1e-4 * abs(limit)

    def test_moment_condition(self):
        with pytest.raises(DomainError):
            g_gev(PowerSpec.gev(2, GevParams(30.0, 3.0, 0.3)), 1.0)

    def test_simple_mode_rejected(self):
        with pytest.raises(DomainError):
            g_gev(PowerSpec.simple(0.2), 1.0)


class TestVarGev:
    def test_beta_one_closed_form(self, paper_gev):
        p = PowerSpec.gev(1, paper_gev)
        expected = 225.0 * (gamma(1.4) - gamma(1.2) ** 2)
        assert var_gev(p) == pytest.approx(expected, rel=1e-12)

    def test_beta_zero_internal(self, paper_gev):
        p = PowerSpec(beta=0, margin=paper_gev)  # internal construction
        assert var_gev(p) == pytest.approx(0.0, abs=1e-12)

    def test_mc_oracle_beta_three(self, paper_gev):
        rng = np.random.default_rng(99)
        z = 1.0 / -np.log(rng.uniform(size=4_000_000))
        zg = (ETA - TAU / XI) + TAU * z**XI / XI
        x = zg**3
        est = x.var(ddof=1)
        se = np.std((x - x.mean()) ** 2, ddof=1) / math.sqrt(len(x))
        p = PowerSpec.gev(3, paper_gev)
        assert abs(var_gev(p) - est) <= 3.0 * se

    def test_simple_margin_variance(self):
        assert var_gev(PowerSpec.simple(0.25)) == pytest.approx(
            var_simple(0.25), rel=1e-14
        )


class TestCovGev:
    def test_same_site_is_variance(self, paper_gev):
        p = PowerSpec.gev(1, paper_gev)
        v = power(1.0, 1.0)
        c = cov_gev(p, p, v, [2.0, 3.0], [2.0, 3.0])
        assert c == pytest.approx(var_gev(p), rel=1e-12)

    def test_zero_powers(self):
        v = power(1.0, 1.0)
        p = PowerSpec.simple(0.0)
        assert abs(cov_gev(p, p, v, [0.0, 0.0], [1.0, 1.0])) < 1e-5

    def test_positive_at_finite_distance(self, paper_gev):
        v = power(1.0, 1.0)
        for beta in (1, 3):
            p = PowerSpec.gev(beta, paper_gev)
            for d in (0.5, 2.0, 10.0):
                assert cov_gev(p, p, v, [0.0, 0.0], [d, 0.0]) > 0.0

    def test_reduces_to_simple(self):
        v = power(1.0, 1.0)
        p = PowerSpec.simple(0.25)
        a = cov_gev(p, p, v, [0.0, 0.0], [2.0, 0.0])
        b = cov_simple(0.25, 0.25, v, [0.0, 0.0], [2.0, 0.0])
        assert a == pytest.approx(b, rel=1e-9)


class TestDepMeasure:
    def test_same_site_is_one(self, paper_gev):
        p = PowerSpec.gev(2, paper_gev)
        v = power(1.0, 1.5)
        assert dep_measure(p, v, [1.0, 1.0], [1.0, 1.0]) == 1.0

    def test_in_unit_interval_and_decreasing(self, paper_gev):
        p = PowerSpec.gev(1, paper_gev)
        v = power(1.0, 1.0)
        last = 1.0
        for d in (0.5, 1.0, 2.0, 4.0, 8.0):
            val = dep_measure(p, v, [0.0, 0.0], [d, 0.0])
            assert 0.0 < val < last
            last = val

    def test_radial_form_matches(self, paper_gev):
        p = PowerSpec.gev(1, paper_gev)
        v = power(1.0, 1.0)
        d = 2.5
        assert dep_measure_from_gamma(p, v.radial(d)) == pytest.approx(
            dep_measure(p, v, [0.0, 0.0], [d, 0.0]), rel=1e-12
        )

    def test_simple_margin_mode(self):
        p = PowerSpec.simple(0.25)
        val = dep_measure_from_gamma(p, 4.0)
        expected = (g_simple(0.25, 0.25, 2.0) - gamma(0.75) ** 2) / var_simple(0.25)
        assert val == pytest.approx(expected, rel=1e-10)

    def test_degenerate_power_rejected(self):
        with pytest.raises(DomainError):
            dep_measure_from_gamma(PowerSpec.simple(0.0), 1.0)


class TestXiZero:
    def test_gumbel_variance(self, paper_gev):
        v = power(1.0, 1.0)
        val = cov_gev_xi_zero(1, ETA, TAU, v, [0.0, 0.0], [0.0, 0.0])
        assert val == pytest.approx(TAU**2 * math.pi**2 / 6.0, rel=1e-6)

    def test_error_estimate_returned(self):
        v = power(1.0, 1.0)
        val, err = cov_gev_xi_zero(1, ETA, TAU, v, [0.0, 0.0], [1.0, 0.0], return_err=True)
        assert val > 0.0
        assert err < 1e-2 * val

    def test_gev_ops_accept_xi_zero(self):
        gumbel = GevParams(ETA, TAU, 0.0)
        p = PowerSpec.gev(1, gumbel)
        assert var_gev(p) == pytest.approx(TAU**2 * math.pi**2 / 6.0, rel=1e-6)
        v = power(1.0, 1.0)
        c = cov_gev(p, p, v, [0.0, 0.0], [1.0, 0.0])
        assert 0.0 < c < var_gev(p)

    def test_extrapolation_disagreement_raises(self):
        # |xi| has no even-order expansion: the two levels disagree at O(eps)
        with pytest.raises(ConvergenceError):
            _xi_limit(abs)

    def test_beta_validation(self):
        v = power(1.0, 1.0)
        with pytest.raises(DomainError):
            cov_gev_xi_zero(0, ETA, TAU, v, [0.0, 0.0], [1.0, 0.0])


class TestExtremalCoefficient:
    def test_same_site(self):
        v = power(1.0, 1.0)
        assert extremal_coefficient(v, [1.0, 1.0], [1.0, 1.0]) == pytest.approx(1.0)

    def test_limit_two(self):
        v = power(1.0, 2.0)
        assert extremal_coefficient(v, [0.0, 0.0], [1e3, 0.0]) == pytest.approx(2.0)

    def test_gamma_four(self):
        # gamma = 4 => 2 Phi(1), pinned by the erfc oracle
        v = power(1.0, 2.0)
        phi1 = 0.5 * math.erfc(-1.0 / math.sqrt(2.0))
        assert extremal_coefficient(v, [0.0, 0.0], [2.0, 0.0]) == pytest.approx(
            2.0 * phi1, rel=1e-13
        )

    def test_radial_matches(self):
        v = power(1.0, 1.3)
        assert extremal_coefficient_radial(v, 2.0) == pytest.approx(
            extremal_coefficient(v, [0.0, 0.0], [2.0, 0.0]), rel=1e-13
        )

    def test_bounds(self):
        v = power(1.0, 0.5)
        for d in np.geomspace(1e-4, 1e8, 25):
            val = extremal_coefficient_radial(v, float(d))
            assert 1.0 <= val <= 2.0


class TestPowerSpecValidation:
    def test_gev_requires_positive_integer(self, paper_gev):
        with pytest.raises(DomainError):
            PowerSpec.gev(0, paper_gev)
        with pytest.raises(DomainError):
            PowerSpec.gev(1.5, paper_gev)

    def test_simple_requires_below_one(self):
        with pytest.raises(DomainError):
            PowerSpec.simple(1.0)
        PowerSpec.simple(-3.0)  # negative powers allowed

    def test_gev_params_validation(self):
        with pytest.raises(DomainError):
            GevParams(0.0, -1.0, 0.1)


class TestSingleCovariancePath:
    """Every closed-form covariance is one computation, so the public forms
    agree exactly, not merely to the quadrature tolerance."""

    ORIGIN = [0.0, 0.0]
    SITES = ([0.0, 0.0], [0.3, 0.1], [2.0, 0.0], [9.0, 4.0])

    def test_cov_simple_is_cov_gev_of_simple_specs(self):
        v = power(1.0, 1.0)
        for b in (-0.5, 0.0, 0.25, 0.45):
            p = PowerSpec.simple(b)
            for x2 in self.SITES:
                assert cov_simple(b, b, v, self.ORIGIN, x2) == cov_gev(
                    p, p, v, self.ORIGIN, x2)

    def test_dependence_is_cov_over_var(self, paper_gev):
        v = power(1.0, 1.5)
        for p in (PowerSpec.gev(1, paper_gev), PowerSpec.gev(4, paper_gev),
                  PowerSpec.simple(0.25)):
            for x2 in self.SITES:
                ratio = cov_gev(p, p, v, self.ORIGIN, x2) / var_gev(p)
                assert dep_measure_from_gamma(p, float(v(np.asarray(x2)))) == ratio
