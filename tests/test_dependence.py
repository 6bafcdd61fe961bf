"""Covariance and correlation of powers: kernel coefficients, pair
functions, GEV mixtures, and their independently coded oracles."""

import math
import warnings
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy import special
from scipy.special import exprel, gammaln, log_ndtr, ndtr, zeta

from windrisk import (
    ConvergenceError,
    DomainError,
    GevParams,
    PowerSpec,
    RiskQuery,
    asymptotic_cov_integral,
    clt_approx,
    cov_gev,
    cov_simple,
    dep_measure,
    dep_measure_from_gamma,
    disk,
    extremal_coefficient,
    mean_cost,
    norm_cdf,
    norm_pdf,
    power,
    QuadResult,
    QuadSpec,
    r2,
    var_gev,
    var_simple,
)
from windrisk import dependence

from conftest import (ETA, TAU, XI, cov_oracle, g_simple, g_simple_kernel,
                      half_line_breakpoints)


def g_gev(p: PowerSpec, h: float) -> float:
    """E[Z(x1)^beta Z(x2)^beta] at the variogram-root lag h, for equal
    margins at both sites: the covariance plus the squared mean."""
    return cov_gev(p, p, power(1.0, 2.0), [0.0, 0.0], [h, 0.0]) + mean_cost(p) ** 2


def gumbel(beta: int) -> PowerSpec:
    """Z^beta with the paper's location and scale and xi = 0."""
    return PowerSpec.gev(beta, GevParams(ETA, TAU, 0.0))


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


class BivariateCoeffs(NamedTuple):
    c1: float
    c2: float
    c3: float


def bivariate_coeffs(theta: float, h: float) -> BivariateCoeffs:
    """The kernel coefficients (C1, C2, C3) exactly as displayed."""
    if not theta > 0.0:
        raise DomainError(f"theta must be > 0, got {theta}")
    if not h > 0.0:
        raise DomainError(f"h must be > 0, got {h}")
    w = h / 2.0 + math.log(theta) / h
    v = h / 2.0 - math.log(theta) / h
    c1 = norm_cdf(w) + norm_cdf(v) / theta
    c2 = (norm_cdf(w) + norm_pdf(w) / h - norm_pdf(v) / (h * theta)) * (
        norm_cdf(v) / theta**2 + norm_pdf(v) / (h * theta**2) - norm_pdf(w) / (h * theta)
    )
    c3 = v * norm_pdf(w) / (h**2 * theta) + w * norm_pdf(v) / (h**2 * theta**2)
    return BivariateCoeffs(c1, c2, c3)


def b_coeff(k1: int, k2: int, p: PowerSpec) -> float:
    """Binomial-product coefficient of the GEV second-moment expansion."""
    if p.is_simple:
        raise DomainError("b_coeff is defined for GEV margins only")
    beta = int(p.beta)
    if not (0 <= k1 <= beta and 0 <= k2 <= beta):
        raise DomainError(f"indices must lie in [0, {beta}], got ({k1}, {k2})")
    m = p.margin
    if m.xi == 0.0:
        raise DomainError("b_coeff is undefined at xi = 0")
    return (
        math.comb(beta, k1)
        * math.comb(beta, k2)
        * (m.eta - m.tau / m.xi) ** (k1 + k2)
        * (m.tau / m.xi) ** (2 * beta - k1 - k2)
    )


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
        assert g_simple(0.2, 0.1, 0.0) == pytest.approx(math.gamma(0.7), rel=1e-14)
        for beta in (-1.0, -0.5, 0.1, 0.25, 0.4):
            assert g_simple(beta, beta, 0.0) == pytest.approx(
                math.gamma(1.0 - 2.0 * beta), rel=1e-14
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

    @staticmethod
    def display_kernel(b1, b2, s, h):
        """h theta^(b2+1) [C2 C1^(sig-2) Gamma(2-sig) + C3 C1^(sig-1)
        Gamma(1-sig)] at theta = exp(s h), the display form's integrand in
        s, from the collapsed C2 and C3 in plain (not log) arithmetic."""
        theta, w, v, sig = np.exp(s * h), h / 2.0 + s, h / 2.0 - s, b1 + b2
        c1 = ndtr(w) + ndtr(v) / theta
        c2 = ndtr(w) * ndtr(v) / theta**2
        c3 = np.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi) / (h * theta)
        return h * theta ** (b2 + 1.0) * (c2 * c1 ** (sig - 2.0) * math.gamma(2.0 - sig)
                                          + c3 * c1 ** (sig - 1.0) * math.gamma(1.0 - sig))

    def test_swapped_kernel_at_s_is_the_kernel_at_minus_s(self):
        # the two half-lines g_simple integrates over s > 0 are its
        # display-form kernel of (b1, b2) at s and at -s
        b1, b2 = 0.1, 0.3
        for h in (0.05, 1.0, 8.0):
            s = np.r_[0.0, np.geomspace(1e-3, min(20.0, 20.0 / h), 100)]
            np.testing.assert_allclose(g_simple_kernel(b1, b2, s, h),
                                       self.display_kernel(b1, b2, s, h), rtol=1e-13)
            np.testing.assert_allclose(g_simple_kernel(b2, b1, s, h),
                                       self.display_kernel(b1, b2, -s, h), rtol=1e-13)

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
        expected = math.gamma(0.5) - math.gamma(0.75) ** 2
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
                total += b_coeff(k1, k2, p) * math.gamma(1.0 - XI * (4 - k1 - k2))
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


class TestVarGev:
    def test_beta_one_closed_form(self, paper_gev):
        p = PowerSpec.gev(1, paper_gev)
        expected = 225.0 * (math.gamma(1.4) - math.gamma(1.2) ** 2)
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

    def test_weights_past_the_double_range_raise_without_a_warning(self, paper_gev):
        # at beta 100 the variance is past the double range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="the variance"):
                var_gev(PowerSpec.gev(100, paper_gev))

    @pytest.mark.parametrize("beta", [100, 200, 400])
    def test_moments_past_the_double_range_raise(self, paper_gev, beta):
        # at the paper margin the variance leaves the double range from
        # beta = 96 and the mean from 191: each is DomainError, not inf or
        # the OverflowError of a float power
        p = PowerSpec.gev(beta, paper_gev)
        with pytest.raises(DomainError):
            var_gev(p)
        if beta >= 200:
            with pytest.raises(DomainError):
                mean_cost(p)

    @pytest.mark.parametrize("beta", [1025, 10**300])
    def test_beta_past_the_binomial_range_raises_before_the_table(self, beta):
        # a weight beta C(beta-1, j) is at least 2^(beta-1): even where the
        # margin's powers are small the table is rejected before it is built,
        # and the moments, which need no table, are rejected by the same check
        p = PowerSpec.gev(beta, GevParams(0.01, 0.01, -0.2))
        with pytest.raises(DomainError):
            dependence._derivative_table(p)
        for moment in (var_gev, mean_cost):
            with pytest.raises(DomainError, match="beta > 1024"):
                moment(p)

    def test_beta_forty_matches_80_digits(self, paper_gev):
        # the closed forms of the variance and the mean evaluated at 80
        # digits (mpmath) from the same doubles eta, tau, xi
        p = PowerSpec.gev(40, paper_gev)
        assert var_gev(p) == pytest.approx(1.330908060231428782e127, rel=3e-7)
        assert mean_cost(p) == pytest.approx(2.6374525355954216579e62, rel=3e-7)


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
        expected = (g_simple(0.25, 0.25, 2.0) - math.gamma(0.75) ** 2) / var_simple(0.25)
        assert val == pytest.approx(expected, rel=1e-10)

    def test_degenerate_power_rejected(self):
        with pytest.raises(DomainError):
            dep_measure_from_gamma(PowerSpec.simple(0.0), 1.0)

    @pytest.mark.parametrize("p", [PowerSpec.gev(12, GevParams(ETA, TAU, XI)),
                                   PowerSpec.simple(0.25)], ids=["gev12", "simple0.25"])
    def test_infinite_lag_has_the_limit_zero(self, p):
        cov = dependence.CovModel(p, p, QuadSpec())
        assert cov(math.inf) == QuadResult(0.0, 0.0, 0)
        lags = np.array([0.0, 1.0, math.inf])
        batch = cov(lags)
        assert batch.value.tolist() == [cov(h).value for h in lags]
        assert batch.value[2] == 0.0 and batch.subdivisions[2] == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dep_measure_from_gamma(p, math.inf) == 0.0
            assert dep_measure_from_gamma(p, np.array([1.0, math.inf]))[1] == 0.0

    def test_nan_lag_rejected(self, paper_gev):
        # a site with a NaN coordinate has a NaN lag: an error, not a value
        p = PowerSpec.gev(2, paper_gev)
        with pytest.raises(DomainError, match="NaN"):
            cov_gev(p, p, power(1.0, 1.0), [math.nan, 0.0], [0.0, 0.0])
        with pytest.raises(DomainError, match="NaN"):
            dependence.CovModel(p, p, QuadSpec())(np.array([1.0, math.nan]))

    def test_distance_whose_variogram_overflows_has_dependence_zero(self, paper_gev):
        # gamma = (1e200)^2 is past the double range: inf, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dep_measure(PowerSpec.gev(1, paper_gev), power(1.0, 2.0),
                               [0.0, 0.0], [1e200, 0.0]) == 0.0

    @pytest.mark.parametrize("gamma_value", [math.nan, np.array([1.0, math.nan])],
                             ids=["scalar", "array"])
    def test_nan_variogram_value_rejected(self, paper_gev, gamma_value):
        with pytest.raises(DomainError, match="variogram value must be >= 0"):
            dep_measure_from_gamma(PowerSpec.gev(1, paper_gev), gamma_value)

    @pytest.mark.parametrize("beta, xi", [(10, -0.043), (12, -0.066)])
    def test_table_cancellation_computes_by_the_nested_kernel(self, beta, xi):
        # the binomial table's rounding noise at small |xi| could never meet
        # rel_tol; the nested kernel takes these pairs and meets it against
        # the oracle at the ladder's first accepting level, step 1/16
        p = PowerSpec.gev(beta, GevParams(ETA, TAU, xi))
        cov = dependence.CovModel(p, p, QuadSpec())(1.0)
        assert cov.subdivisions == 1
        assert cov.value == pytest.approx(cov_oracle(p, p, 1.0), rel=QuadSpec().rel_tol)
        assert dep_measure_from_gamma(p, 1.0) == cov.value / var_gev(p)


class TestXiZero:
    def test_gumbel_variance(self, paper_gev):
        v = power(1.0, 1.0)
        val = cov_gev(gumbel(1), gumbel(1), v, [0.0, 0.0], [0.0, 0.0])
        assert val == pytest.approx(TAU**2 * math.pi**2 / 6.0, rel=1e-6)

    def test_error_estimate_returned(self):
        # lag 1 of the psi = 1 variogram at unit distance
        res = dependence.CovModel(gumbel(1), gumbel(1), QuadSpec())(1.0)
        assert res.value > 0.0
        assert res.err_estimate < 1e-2 * res.value

    def test_gev_ops_accept_xi_zero(self):
        gumbel = GevParams(ETA, TAU, 0.0)
        p = PowerSpec.gev(1, gumbel)
        assert var_gev(p) == pytest.approx(TAU**2 * math.pi**2 / 6.0, rel=1e-6)
        v = power(1.0, 1.0)
        c = cov_gev(p, p, v, [0.0, 0.0], [1.0, 0.0])
        assert 0.0 < c < var_gev(p)

    def test_beta_validation(self):
        with pytest.raises(DomainError):
            gumbel(0)


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

    def test_bounds(self):
        v = power(1.0, 0.5)
        for d in np.geomspace(1e-4, 1e8, 25):
            val = extremal_coefficient(v, [0.0, 0.0], [float(d), 0.0])
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


class TestHoeffdingCovariance:
    """The covariance is a sum of positive line integrals, with no mixture
    minus squared mean: dependence cannot leave [0, 1] at far lags."""

    LAGS = np.linspace(0.0, 40.0, 60)

    @pytest.mark.parametrize("mode, beta", [
        ("gev", 1), ("gev", 2), ("gev", 6), ("gev", 12),
        ("simple", -1.0), ("simple", 0.25), ("simple", 0.45),
    ])
    def test_dependence_in_unit_interval_and_non_increasing(self, paper_gev, mode, beta):
        p = PowerSpec.gev(beta, paper_gev) if mode == "gev" else PowerSpec.simple(beta)
        dep = np.array([dep_measure_from_gamma(p, h * h) for h in self.LAGS])
        assert dep[0] == 1.0
        assert np.all((dep >= 0.0) & (dep <= 1.0))
        assert np.all(np.diff(dep) <= 0.0)

    def test_gumbel_beta_one_moments(self):
        p = PowerSpec.gev(1, GevParams(ETA, TAU, 0.0))
        assert mean_cost(p) == pytest.approx(ETA + np.euler_gamma * TAU, rel=1e-13)
        assert var_gev(p) == pytest.approx(TAU**2 * math.pi**2 / 6.0, rel=1e-13)

    def test_gumbel_beta_two_moments(self):
        # the cost is X^2 with X = eta - tau Y, where Y = log(1/Z) has
        # E Y = -gamma, Var Y = pi^2/6 and the cumulants (-1)^n (n-1)! zeta(n)
        # from n = 2 on, those of minus a standard Gumbel variable
        p = PowerSpec.gev(2, GevParams(ETA, TAU, 0.0))
        mu = ETA + TAU * np.euler_gamma
        k2, k3, k4 = (TAU**2 * math.pi**2 / 6.0, TAU**3 * 2.0 * zeta(3.0),
                      TAU**4 * math.pi**4 / 15.0)
        assert mean_cost(p) == pytest.approx(mu**2 + k2, rel=1e-14)
        assert var_gev(p) == pytest.approx(k4 + 4.0 * k3 * mu + 2.0 * k2**2 + 4.0 * k2 * mu**2,
                                           rel=1e-13)

    def test_gumbel_beta_two_lag_operations_compute(self):
        # Gumbel powers from beta 2 on have no binomial table and take the
        # nested kernel: the same five operations return finite values
        p = PowerSpec.gev(2, GevParams(ETA, TAU, 0.0))
        v = power(1.0, 1.0)
        q = RiskQuery(region=disk(1.0), power=p, variogram=v)
        variance = var_gev(p)
        cov = cov_gev(p, p, v, [0.0, 0.0], [1.0, 0.0])
        assert 0.0 < cov < variance
        assert dep_measure(p, v, [0.0, 0.0], [1.0, 0.0]) == cov / variance
        assert 0.0 < r2(q, 1.0) < variance
        k = asymptotic_cov_integral(p, v)
        assert math.isfinite(k) and k > 0.0
        assert clt_approx(q, 10.0).sd == pytest.approx(math.sqrt(k / (100.0 * math.pi)),
                                                       rel=1e-12)

    # exact variances from the binomial moment sums in 60-digit arithmetic,
    # which cancel in double precision near xi = 0 (the beta = 3 case most)
    @pytest.mark.parametrize("beta, xi, exact, rel", [
        (1, 1e-4, 14.808280426029092806, 1e-12),
        (1, -1e-4, 14.800534886540138766, 1e-12),
        (2, -1e-3, 68575.538031399617321, 1e-10),
        (3, 1e-3, 192395444.02000925015, 1e-7),
    ])
    def test_small_xi_variance(self, beta, xi, exact, rel):
        assert var_gev(PowerSpec.gev(beta, GevParams(ETA, TAU, xi))) == pytest.approx(
            exact, rel=rel)

    @pytest.mark.parametrize("p1, p2", [
        (PowerSpec.gev(1, GevParams(ETA, TAU, 0.0)), PowerSpec.gev(2, GevParams(ETA, TAU, XI))),
        (PowerSpec.simple(-1.0), PowerSpec.gev(1, GevParams(ETA, TAU, 0.0))),
        (PowerSpec.gev(12, GevParams(ETA, TAU, XI)), PowerSpec.gev(12, GevParams(ETA, TAU, XI))),
        (PowerSpec.simple(0.45), PowerSpec.simple(0.45)),
    ])
    def test_closed_form_variance_is_the_line_integral_limit(self, p1, p2):
        v = power(1.0, 1.0)
        at_zero = cov_gev(p1, p2, v, [0.0, 0.0], [0.0, 0.0])
        near_zero = cov_gev(p1, p2, v, [0.0, 0.0], [4e-12, 0.0])  # h = 2e-6
        assert near_zero == pytest.approx(at_zero, rel=1e-8)


def kernel_calls(monkeypatch):
    """A list that records, for each call of the covariance kernels of the
    models built from here on, (the number of its lags, of its nodes, its
    least s)."""
    calls = []
    original = dependence._pair_kernel

    def recorded(pairs):
        kernel = original(pairs)

        def watched(s, h):
            calls.append((np.unique(h).size, s.size, s.min()))
            return kernel(s, h)

        return watched

    monkeypatch.setattr(dependence, "_pair_kernel", recorded)
    return calls


class TestBatchedCovariance:
    """The covariance of many lags runs up the exp-sinh ladder a block of
    lags at a time, each level one kernel call over the block's lags not
    yet accepted; every lag's result is the one it gets alone, bit for
    bit."""

    # 0, a lag below SMALL_H, and the psi = 2 study grid (sqrt(gamma) is the
    # distance there)
    LAGS = np.r_[0.0, 0.5 * dependence.SMALL_H, np.geomspace(0.1, 10.0, 40)]

    CASES = {
        "gev1": (PowerSpec.gev(1, GevParams(ETA, TAU, XI)),) * 2,
        "gev6": (PowerSpec.gev(6, GevParams(ETA, TAU, XI)),) * 2,
        "gev12": (PowerSpec.gev(12, GevParams(ETA, TAU, XI)),) * 2,
        "simple-1": (PowerSpec.simple(-1.0),) * 2,
        "simple0.25": (PowerSpec.simple(0.25),) * 2,
        "simple0.45": (PowerSpec.simple(0.45),) * 2,
        "gumbel1": (PowerSpec.gev(1, GevParams(ETA, TAU, 0.0)),) * 2,
        # two margins whose exponents never sum alike: 3 x 2 distinct sums
        "mixed": (PowerSpec.gev(3, GevParams(ETA, TAU, XI)),
                  PowerSpec.gev(2, GevParams(ETA, TAU, 0.1))),
    }

    # the kernel's default chunk, and chunks of 15 nodes, whose edges fall
    # inside the lags of a level
    @pytest.mark.parametrize("name, chunk", [(name, 960) for name in CASES]
                             + [(name, 15) for name in CASES],
                             ids=list(CASES) + [f"{name}-chunk15" for name in CASES])
    def test_array_of_lags_equals_each_lag_alone(self, monkeypatch, name, chunk):
        monkeypatch.setattr(dependence, "_CHUNK_NODES", chunk)
        p1, p2 = self.CASES[name]
        cov = dependence.CovModel(p1, p2, QuadSpec())
        batch = cov(self.LAGS)
        alone = [cov(h) for h in self.LAGS]
        assert batch.value.shape == self.LAGS.shape
        for field in ("value", "err_estimate", "subdivisions", "absolute_mode"):
            assert getattr(batch, field).tolist() == [getattr(r, field) for r in alone], field
        assert isinstance(alone[5].value, float)

    @pytest.mark.parametrize("lags", [
        np.array([]),
        np.array([[0.0, 0.5 * dependence.SMALL_H], [0.0, 0.9 * dependence.SMALL_H]]),
    ], ids=["empty", "below-SMALL_H"])
    def test_lags_below_small_h_take_no_quadrature_row(self, monkeypatch, paper_gev, lags):
        calls = kernel_calls(monkeypatch)
        p = PowerSpec.gev(3, paper_gev)
        res = dependence.CovModel(p, p, QuadSpec())(lags)
        assert calls == []
        assert res.value.shape == lags.shape
        assert np.all(res.value == var_gev(p))
        assert np.all(res.subdivisions == 0)

    def test_a_tighter_tolerance_climbs_the_ladder(self, paper_gev):
        # the study grid stops at step 1/16 at the default tolerance and
        # climbs to 1/32 at the benchmark's gate tolerance 1e-9; the lags
        # below SMALL_H take no level
        p = PowerSpec.gev(6, paper_gev)
        quadrature = self.LAGS >= dependence.SMALL_H
        default = dependence.CovModel(p, p, QuadSpec())(self.LAGS).subdivisions
        tight = dependence.CovModel(p, p, QuadSpec(rel_tol=1e-9))(self.LAGS).subdivisions
        assert np.all(default[quadrature] == 1) and np.all(tight[quadrature] == 2)
        assert np.all(default[~quadrature] == 0) and np.all(tight[~quadrature] == 0)

    @pytest.mark.parametrize("name", ["gev6", "simple0.25", "mixed"])
    def test_a_value_is_the_sum_of_its_ordered_half_lines(self, name):
        # a same-power value is twice the s > 0 row of its one pair, and a
        # mixed pair's the sum of the s > 0 rows of (p1, p2) and (p2, p1)
        p1, p2 = self.CASES[name]
        d1, b1 = dependence._derivative_table(p1)
        d2, b2 = dependence._derivative_table(p2)
        ordered = [(d1, b1, d2, b2)] + ([(d2, b2, d1, b1)] if p1 != p2 else [])
        kernel = dependence._pair_kernel(ordered)
        lags = [0.1, 1.0, 4.0]
        cov = dependence.CovModel(p1, p2, QuadSpec())
        for lag in lags:
            row = next(dependence._line_integrals(kernel, [lag], QuadSpec(), len(ordered)))
            res = cov(lag)
            assert res.value == row.value[0] + row.value[-1]
            assert res.err_estimate == row.err_estimate[0] + row.err_estimate[-1]
            assert res.subdivisions == row.subdivisions

    def test_kernels_see_only_s_above_zero_and_a_level_is_one_call(self, monkeypatch,
                                                                    paper_gev):
        # every kernel call is on the half-line s > 0, and each level of a
        # block of lags is one kernel call, the first of 57 nodes a lag
        monkeypatch.setattr(dependence, "_CHUNK_NODES", 10**9)
        calls = kernel_calls(monkeypatch)
        powers = [PowerSpec.gev(beta, paper_gev) for beta in range(1, 13)]
        lags = self.LAGS[2:]
        dependence.CovModel(powers, powers, QuadSpec())(lags)
        # 120 lanes of 12 components a block, each accepted at step 1/16
        assert [(n_lags, n_nodes) for n_lags, n_nodes, _ in calls] == [(10, 570), (10, 560)] * 4
        assert min(lowest for _, _, lowest in calls) > 0.0
        calls.clear()
        p1, p2 = self.CASES["mixed"]
        dependence.CovModel(p1, p2, QuadSpec())(lags)
        assert calls[0][:2] == (len(lags), 57 * len(lags))  # two components a lag: one block
        assert min(lowest for _, _, lowest in calls) > 0.0

    def test_mixed_pair_has_a_distinct_exponent_sum_per_term(self):
        _, b1 = dependence._derivative_table(self.CASES["mixed"][0])
        _, b2 = dependence._derivative_table(self.CASES["mixed"][1])
        assert np.unique(np.add.outer(b1, b2)).size == b1.size * b2.size

    def test_first_failing_lag_raises_its_own_error(self):
        # a rel_tol below the sums' rounding: a lag converges only where two
        # levels agree to the last bit, and the others fail at step 1/128
        # with their best estimate, the covariance at the default rel_tol
        # within rounding: a same-power lag's one half-line counted twice,
        # and a mixed pair's two ordered half-lines summed
        for beta1, beta2 in ((6, 6), (10, 3)):
            p1, p2 = (PowerSpec.gev(beta, GevParams(ETA, TAU, XI)) for beta in (beta1, beta2))
            default = dependence.CovModel(p1, p2, QuadSpec())
            cov = dependence.CovModel(p1, p2, QuadSpec(rel_tol=1e-17))
            errors = {}
            for h in self.LAGS:
                try:
                    cov(h)
                except ConvergenceError as exc:
                    errors[float(h)] = exc
            failing = sorted(errors, reverse=True)[:2]
            converging = [h for h in self.LAGS if float(h) not in errors]
            assert len(failing) == 2 and len(converging) >= 5
            first, second = (errors[h] for h in failing)
            assert first.best_estimate != second.best_estimate
            assert "did not converge by step 1/128" in str(first)
            for h in failing:
                assert errors[h].best_estimate == pytest.approx(default(h).value, rel=1e-12)
                assert errors[h].err_estimate > 1e-17 * abs(errors[h].best_estimate)

            lags = np.r_[converging[-3:], failing[0], converging[:2], failing[1]]
            with pytest.raises(ConvergenceError) as batch:
                cov(lags)
            assert str(batch.value) == str(first)
            assert batch.value.best_estimate == first.best_estimate
            assert batch.value.err_estimate == first.err_estimate

    def test_dependence_of_an_array_of_variogram_values(self, paper_gev):
        p = PowerSpec.gev(4, paper_gev)
        gammas = np.square(self.LAGS)
        batch = dep_measure_from_gamma(p, gammas)
        assert batch.tolist() == [dep_measure_from_gamma(p, g) for g in gammas]
        assert isinstance(dep_measure_from_gamma(p, 1.0), float)
        with pytest.raises(DomainError):
            dep_measure_from_gamma(p, np.array([1.0, -1.0]))

    def test_default_depsurface_builds_one_covariance_per_psi(self, tmp_path, monkeypatch):
        # every power of a psi shares one covariance evaluation
        from windrisk.cli import main

        built = []
        original = dependence.CovModel.__call__

        def counted(cov, h):
            built.append((cov.p1, cov.p2))
            return original(cov, h)

        monkeypatch.setattr(dependence.CovModel, "__call__", counted)
        assert main(["depsurface", "--out", str(tmp_path / "dep.csv")]) == 0
        assert len(built) == 4
        assert all(p1 == p2 and [p.beta for p in p1] == list(range(1, 13)) for p1, p2 in built)

    def test_default_depsurface_sets_up_one_covariance_for_its_four_psi(self, tmp_path,
                                                                       monkeypatch):
        # the psi share the twelve powers and the tolerance, so the later
        # three find the first one's model in the cache
        from windrisk.cli import main

        built = []
        original = dependence.CovModel.__init__

        def counted(cov, p1, p2, spec):
            built.append((p1, p2))
            original(cov, p1, p2, spec)

        dependence.covariance_model.cache_clear()
        monkeypatch.setattr(dependence.CovModel, "__init__", counted)
        assert main(["depsurface", "--out", str(tmp_path / "dep.csv")]) == 0
        assert len(built) == 1
        p1, p2 = built[0]
        assert p1 == p2 and [p.beta for p in p1] == list(range(1, 13))


class TestPowersOnOneMesh:
    """A sequence of powers is one covariance evaluation that takes each
    lag up the ladder to the level its slowest power needs, and whose
    kernel forms every power's terms from the highest power's: each value
    is the power's own within rounding where the power alone stops at that
    level, and within the tolerance elsewhere."""

    POWERS = [PowerSpec.gev(beta, GevParams(ETA, TAU, XI)) for beta in range(1, 13)]

    # the study's distance grid of each psi
    STUDY_MAX = {0.5: 1500.0, 1.0: 100.0, 1.5: 25.0, 2.0: 10.0}

    @staticmethod
    def gammas(psi, d_max):
        v = power(1.0, psi)
        return np.array([v.radial(d) for d in np.r_[0.0, np.geomspace(0.1, d_max, 40)]])

    @pytest.mark.parametrize("psi", list(STUDY_MAX))
    def test_within_1e_10_of_the_per_power_calls_on_the_study_grids(self, psi):
        gammas = self.gammas(psi, self.STUDY_MAX[psi])
        batch = dep_measure_from_gamma(self.POWERS, gammas)
        assert batch.shape == (12, len(gammas))
        alone = np.array([dep_measure_from_gamma(p, gammas) for p in self.POWERS])
        np.testing.assert_allclose(batch, alone, rtol=1e-10, atol=0.0)

    def test_within_tolerance_where_a_power_alone_stops_lower(self):
        # at rel_tol 1e-9 some powers stop at step 1/16 where others climb
        # to 1/32
        spec = QuadSpec(rel_tol=1e-9)
        gammas = self.gammas(2.0, 10.0)
        batch = dep_measure_from_gamma(self.POWERS, gammas, spec)
        alone = np.array([dep_measure_from_gamma(p, gammas, spec) for p in self.POWERS])
        np.testing.assert_allclose(batch, alone, rtol=2.0 * spec.rel_tol, atol=0.0)
        # a lag climbs to the level its slowest power needs
        lags = np.sqrt(gammas)
        level = dependence.CovModel(self.POWERS, self.POWERS, spec)(lags).subdivisions[0]
        own = np.array([dependence.CovModel(p, p, spec)(lags).subdivisions for p in self.POWERS])
        assert level.tolist() == own.max(axis=0).tolist()
        lower = own < level
        assert lower.any() and not lower.all()
        np.testing.assert_allclose(batch[~lower], alone[~lower], rtol=1e-10, atol=0.0)

    def test_a_lag_of_the_batch_is_the_lag_alone(self):
        # the lattice sums each node's terms in one order at any node count
        gammas = self.gammas(2.0, 10.0)
        batch = dep_measure_from_gamma(self.POWERS, gammas)
        alone = np.array([dep_measure_from_gamma(self.POWERS, g) for g in gammas]).T
        assert batch.tolist() == alone.tolist()

    @staticmethod
    def lattice_and_alone(xi):
        """Nodes s, h out to h = 48 and s h = 4.8e6, the twelve GEV powers'
        pairs at shape xi, their kernel values together, on the lattice of
        power 12's tables, and each pair's own."""
        tables = [dependence._derivative_table(PowerSpec.gev(beta, GevParams(ETA, TAU, xi)))
                  for beta in range(1, 13)]
        pairs = [(d, b, d, b) for d, b in tables]
        s, h = np.meshgrid(TestPairKernel.S, TestPairKernel.LAGS + [48.0])
        s, h = s.ravel(), h.ravel()
        alone = np.array([dependence._pair_kernel([pair])(s, h)[0] for pair in pairs])
        return s, h, pairs, dependence._pair_kernel(pairs)(s, h), alone

    # the paper's shape, one with every power's moments and a top exponent
    # that differs by power, and one in the binomial table's cancellation band
    @pytest.mark.parametrize("xi", [XI, 0.0375, -0.05])
    def test_a_power_node_value_is_its_own_within_rounding(self, xi):
        # each node sums the n1 n2 = 144 terms of power 12's tables; the
        # bound is on the terms' magnitudes, which the alternating binomial
        # weights cancel, and where the per-term form underflows, its own
        # rounding bound, which counts subnormal spacings
        s, h, pairs, together, alone = self.lattice_and_alone(xi)
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        for k, (d, b, _, _) in enumerate(pairs):
            magnitude = per_term_kernel(np.abs(d), b, np.abs(d), b, s, h)[0]
            rounding = per_term_kernel(d, b, d, b, s, h)[1]
            bound = np.where(magnitude >= tiny, 16 * 12 * 12 * eps * magnitude, rounding)
            assert np.all(np.abs(together[k] - alone[k]) <= bound), f"beta {k + 1}"

    @pytest.mark.parametrize("xi", [XI, 0.0375, -0.05])
    def test_no_node_value_is_lost_at_extreme_lags(self, xi):
        # where xi > 0 the lattice's top exponents exceed a lower power's
        # own, so its terms are smaller: none may lose a value that the
        # power alone gets as a normal double
        _, _, _, together, alone = self.lattice_and_alone(xi)
        assert np.isfinite(together).all()
        assert not np.any((np.abs(alone) >= np.finfo(float).tiny) & (together == 0.0))
        assert (alone == 0.0).any()  # the nodes reach past the double range

    # the tables nest nowhere: simple margins of three powers, two GEV
    # margins, a mixed covariance's two ordered pairs, and power 12 with a
    # simple margin
    @pytest.mark.parametrize("specs", [
        [PowerSpec.simple(-1.0), PowerSpec.simple(0.25), PowerSpec.simple(0.45)],
        [PowerSpec.gev(6, GevParams(ETA, TAU, XI)), PowerSpec.gev(6, GevParams(ETA, TAU, 0.05))],
        [(PowerSpec.gev(3, GevParams(ETA, TAU, XI)), PowerSpec.gev(2, GevParams(ETA, TAU, 0.1))),
         (PowerSpec.gev(2, GevParams(ETA, TAU, 0.1)), PowerSpec.gev(3, GevParams(ETA, TAU, XI)))],
        [PowerSpec.gev(12, GevParams(ETA, TAU, XI)), PowerSpec.simple(0.25)],
    ], ids=["simple", "gev-margins", "mixed", "gev12-and-simple"])
    def test_pairs_that_do_not_nest_are_each_pair_alone(self, specs):
        # each pair's form on its own, bit for bit as a lone pair's
        pairs = []
        for spec in specs:
            p1, p2 = spec if isinstance(spec, tuple) else (spec, spec)
            pairs.append(dependence._derivative_table(p1) + dependence._derivative_table(p2))
        s = np.r_[TestPairKernel.S, TestPairKernel.S]
        h = np.repeat([0.3, 3.0], len(TestPairKernel.S))
        together = dependence._pair_kernel(pairs)(s, h)
        for k, pair in enumerate(pairs):
            assert together[k].tolist() == dependence._pair_kernel([pair])(s, h)[0].tolist()

    def test_a_failing_batch_raises_the_first_failing_power_error(self):
        # below the sums' rounding, at rel_tol 1e-17, beta 1 converges on
        # the absolute floor (its variance is 15) and beta 10 fails at step
        # 1/128: beta 10 decides, as when the powers are evaluated one at a time
        spec = QuadSpec(rel_tol=1e-17)
        powers = [PowerSpec.gev(beta, GevParams(ETA, TAU, XI)) for beta in (1, 10, 12)]
        gammas = self.gammas(1.0, 100.0)
        dep_measure_from_gamma(powers[0], gammas, spec)
        with pytest.raises(ConvergenceError, match="did not converge by step 1/128") as alone:
            dep_measure_from_gamma(powers[1], gammas, spec)
        with pytest.raises(ConvergenceError) as batch:
            dep_measure_from_gamma(powers, gammas, spec)
        assert str(batch.value) == str(alone.value)
        assert batch.value.best_estimate == alone.value.best_estimate
        assert batch.value.err_estimate == alone.value.err_estimate

    def test_cancelling_powers_compute_in_the_batch(self):
        # near xi = 0 the binomial table cancels from beta 9 on: those powers
        # take the nested kernel inside the batch's one kernel call, and every
        # power meets rel_tol against the oracle, at its own call's value
        # within the tolerance
        margin = GevParams(ETA, TAU, -0.043)
        powers = [PowerSpec.gev(beta, margin) for beta in (1, 10, 12)]
        lags = np.array([0.3, 1.0, 4.0])
        batch = dep_measure_from_gamma(powers, lags ** 2)
        for p, row in zip(powers, batch):
            alone = dep_measure_from_gamma(p, lags ** 2)
            assert row == pytest.approx(alone, rel=1e-6)
            reference = [cov_oracle(p, p, h) / var_gev(p) for h in lags]
            assert row == pytest.approx(reference, rel=QuadSpec().rel_tol)

    def test_peak_memory_stays_at_one_block(self):
        import tracemalloc

        def peak(n):
            gammas = np.geomspace(0.1, 100.0, n)
            tracemalloc.start()
            try:
                dep_measure_from_gamma(self.POWERS, gammas)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # one block is ten lags of the twelve powers; past it, the peak
        # grows by the result's own arrays alone (four fields and the
        # dependences, a double each per lag and power, and the lag lists)
        block, many = peak(10), peak(400)
        assert many - block <= 400 * 12 * 8 * 5


class TestExpSinhLadder:
    """The fixed exp-sinh rule of the covariance's half-lines: its range in
    t holds every node that counts, each level adds the odd nodes of its
    step, and a lag's outcome is its own."""

    # the study powers and the hard cases: far peaks, negative Z_gev, xi > 0
    SPECS = {
        **{f"gev{beta}": PowerSpec.gev(beta, GevParams(ETA, TAU, XI)) for beta in range(1, 13)},
        "simple0.45": PowerSpec.simple(0.45),
        "simple-1": PowerSpec.simple(-1.0),
        "gumbel6": gumbel(6),
        "gumbel1024": PowerSpec.gev(1024, GevParams(1.0, 0.001, 0.0)),
        "xi0.1-beta4": PowerSpec.gev(4, GevParams(ETA, TAU, 0.1)),
        "z-negative": PowerSpec.gev(4, GevParams(0.5, 3.0, -0.3)),
        "gev40": PowerSpec.gev(40, GevParams(ETA, TAU, XI)),
    }
    LAGS = (1e-6, 1e-3, 0.1, 1.0, 10.0, 50.0, 200.0, 1e3)

    @staticmethod
    def trapezoid(kernel, h, t_lo, t_hi, step=1.0 / 32.0):
        """The exp-sinh trapezoid sum of kernel at lag h over [t_lo, t_hi]."""
        t = t_lo + step * np.arange(round((t_hi - t_lo) / step) + 1)
        sh = np.exp(0.5 * math.pi * np.sinh(t))
        with np.errstate(over="ignore"):
            weights = step * 0.5 * math.pi * np.cosh(t) * sh / h
        return (kernel(sh / h, np.full_like(sh, h)) * weights).sum(axis=-1)

    @pytest.mark.parametrize("name", list(SPECS))
    def test_the_range_in_t_holds_every_node_that_counts(self, name):
        p = self.SPECS[name]
        kernel = dependence.CovModel(p, p, QuadSpec())._kernel
        for h in self.LAGS:
            narrow = self.trapezoid(kernel, h, -4.0, 3.0)
            wide = self.trapezoid(kernel, h, -6.0, 6.0)
            np.testing.assert_allclose(narrow, wide, rtol=1e-14, atol=0.0, err_msg=f"h = {h}")

    def test_each_level_adds_the_odd_nodes_of_its_step(self):
        assert [len(sh) for sh, _ in dependence._LADDER] == [57, 56, 112, 224, 448]
        sh = np.concatenate([sh for sh, _ in dependence._LADDER])
        t = np.sort(np.arcsinh(np.log(sh) / (0.5 * math.pi)))
        np.testing.assert_allclose(t, np.linspace(-4.0, 3.0, 897), rtol=0.0, atol=1e-13)

    @staticmethod
    def kernel(s, h):
        """h e^(-s h), whose half-line integral is 1; from h = 10 a step at
        s h = 1 in its place, of the same integral, which the ladder cannot
        resolve to rel_tol 1e-6, and from h = 100 infinite past the step."""
        out = np.where(h >= 10.0, h * (s * h < 1.0), h * np.exp(-s * h))
        return np.where((h >= 100.0) & (s * h > 1.0), np.inf, out)[None]

    def test_a_lag_fails_alone_and_the_first_failing_lag_decides(self):
        spec = QuadSpec(rel_tol=1e-6)
        for r in dependence._line_integrals(self.kernel, [0.5, 2.0], spec, 1):
            assert r.value[0] == pytest.approx(1.0, rel=1e-6)
            assert r.err_estimate[0] <= 1e-6 * r.value[0] and r.subdivisions >= 1
        with pytest.raises(ConvergenceError, match="did not converge by step 1/128") as step:
            list(dependence._line_integrals(self.kernel, [10.0], spec, 1))
        # the estimates of every component, as a QuadResult's fields
        assert step.value.best_estimate.shape == step.value.err_estimate.shape == (1,)
        assert step.value.best_estimate[0] == pytest.approx(1.0, rel=0.05)
        assert step.value.err_estimate[0] > 1e-6
        with pytest.raises(DomainError, match="non-finite") as infinite:
            list(dependence._line_integrals(self.kernel, [100.0], spec, 1))
        for lags, alone in (([0.5, 10.0, 100.0], step.value), ([2.0, 100.0, 10.0], infinite.value)):
            with pytest.raises(type(alone)) as batch:
                list(dependence._line_integrals(self.kernel, lags, spec, 1))
            assert str(batch.value) == str(alone)
            if isinstance(alone, ConvergenceError):
                assert batch.value.best_estimate.tolist() == alone.best_estimate.tolist()
                assert batch.value.err_estimate.tolist() == alone.err_estimate.tolist()


def per_term_kernel(d1, b1, d2, b2, s, h):
    """The Hoeffding integrand times h in its per-term log-space form:
    sum_jk d1_j d2_k exp(log Gamma(1-sig) + b2_k s h + sig log D + log(-L))
    exprel(sig L), one exponential per pair of table entries.

    Returns the value, a bound on its own rounding, and where log(-L) needs
    its underflow guard (q < 1e-300).  The bound sums, over the terms,
    eps |term| (n_terms + 4 + 4 S), where S is the sum of the magnitudes of
    the exponent's four parts (each part and each partial sum is rounded,
    each time by at most eps S), and the subnormal spacing 2^-1074 times
    h |d1_j d2_k exprel|, for an exponential that underflows before its
    weight multiplies it; it adds n_terms + 2 spacings for the products and
    the sum."""
    sig = np.add.outer(b1, b2).reshape(-1, 1)
    parts = [gammaln(1.0 - sig), np.tile(b2, len(b1)).reshape(-1, 1) * (s * h)]
    log_d = np.logaddexp(0.0, -s * h)
    log_q = np.logaddexp(log_ndtr(-h / 2.0 - s), log_ndtr(s - h / 2.0) - s * h) - log_d
    q = np.exp(log_q)
    qs = np.maximum(q, 1e-300)
    parts += [sig * log_d, log_q + np.log(-np.log1p(-qs) / qs)]
    factor = np.outer(d1, d2).reshape(-1, 1) * exprel(sig * np.log1p(-q))
    terms = factor * np.exp(sum(parts))
    eps, spacing = np.finfo(float).eps, np.nextafter(0.0, 1.0)
    size = h * (eps * np.abs(terms) * (len(sig) + 4.0 + 4.0 * sum(np.abs(part) for part in parts))
                + spacing * np.abs(factor)).sum(axis=0) + (len(sig) + 2.0) * spacing
    return h * terms.sum(axis=0), size, q < 1e-300


class TestPairKernel:
    """The covariance kernel, a bilinear form of the two derivative tables at
    each node of the half-line s >= 0, against the per-term form it
    replaces, which holds at either sign of s."""

    CASES = {
        **{f"gev{beta}": (PowerSpec.gev(beta, GevParams(ETA, TAU, XI)),) * 2
           for beta in range(1, 13)},
        "simple-1": (PowerSpec.simple(-1.0),) * 2,
        "simple0.25": (PowerSpec.simple(0.25),) * 2,
        "simple0.45": (PowerSpec.simple(0.45),) * 2,
        "gumbel1": (PowerSpec.gev(1, GevParams(ETA, TAU, 0.0)),) * 2,
        "mixed": (PowerSpec.gev(3, GevParams(ETA, TAU, XI)),
                  PowerSpec.gev(2, GevParams(ETA, TAU, 0.05))),
        "mixed-simple-gumbel": (PowerSpec.simple(0.25), PowerSpec.gev(1, GevParams(ETA, TAU, 0.0))),
    }

    # q falls like exp(-s h): out past s h = 690, where it underflows and
    # log(-L) takes its guard, at every lag
    S = np.r_[0.0, np.geomspace(1e-4, 1e5, 200)]
    LAGS = [0.05, 0.3, 1.0, 3.0, 10.0]

    @pytest.mark.parametrize("name", list(CASES))
    def test_matches_the_per_term_form(self, name):
        d1, b1 = dependence._derivative_table(self.CASES[name][0])
        d2, b2 = dependence._derivative_table(self.CASES[name][1])
        kernel = dependence._pair_kernel([(d1, b1, d2, b2)])
        s, h = np.meshgrid(self.S, self.LAGS)
        s, h = s.ravel(), h.ravel()
        value = kernel(s, h)[0]
        ref, rounding, guarded = per_term_kernel(d1, b1, d2, b2, s, h)
        assert all(guarded[h == lag].any() for lag in self.LAGS) and not guarded.all()
        assert np.isfinite(ref).all()
        assert np.isfinite(value).all()
        assert np.all(np.abs(value - ref) <= np.maximum(1e-13 * np.abs(ref), rounding))

    @pytest.mark.parametrize("name", list(CASES))
    def test_swapped_pair_at_s_is_the_pair_at_minus_s(self, name):
        # exchanging the sites maps s to -s: k[p2,p1](s, h) = k[p1,p2](-s, h)
        d1, b1 = dependence._derivative_table(self.CASES[name][0])
        d2, b2 = dependence._derivative_table(self.CASES[name][1])
        swapped = dependence._pair_kernel([(d2, b2, d1, b1)])
        s, h = np.meshgrid(self.S, [0.05, 1.0, 8.0])
        s, h = s.ravel(), h.ravel()
        ref, rounding, _ = per_term_kernel(d1, b1, d2, b2, -s, h)
        value = swapped(s, h)[0]
        assert np.isfinite(value).all()
        assert np.all(np.abs(value - ref) <= np.maximum(1e-13 * np.abs(ref), rounding))

    @pytest.mark.parametrize("name", ["gev4", "simple0.25", "mixed", "mixed-simple-gumbel"])
    def test_cov_gev_is_the_reference_over_the_real_line(self, name):
        # one independent check of the half-line form: scipy's quad of the
        # per-term form over the whole line, split at +-each breakpoint of
        # the oracles' half-lines
        p1, p2 = self.CASES[name]
        d1, b1 = dependence._derivative_table(p1)
        d2, b2 = dependence._derivative_table(p2)
        spec = QuadSpec()
        for distance in (0.09, 1.0, 16.0):
            h = math.sqrt(distance)

            def f(s):
                return per_term_kernel(d1, b1, d2, b2, np.array([s]), np.array([h]))[0][0]

            bps = half_line_breakpoints(h)
            edges = [-math.inf] + sorted({0.0, *bps, *(-bp for bp in bps)}) + [math.inf]
            ref = math.fsum(quad(f, lo, hi, epsrel=1e-12, limit=500)[0]
                            for lo, hi in zip(edges, edges[1:]))
            value = cov_gev(p1, p2, power(1.0, 1.0), [0.0, 0.0], [distance, 0.0], spec)
            assert value == pytest.approx(ref, rel=10.0 * spec.rel_tol)

    def test_each_node_is_independent_of_the_others(self):
        # power 12 alone, and all twelve powers on power 12's lattice, in
        # halves, in chunks of one panel's 15 nodes and in pairs of nodes
        tables = [dependence._derivative_table(self.CASES[f"gev{beta}"][0])
                  for beta in range(1, 13)]
        pairs = [(d, b, d, b) for d, b in tables]
        s = np.r_[self.S, self.S]
        h = np.repeat([0.3, 3.0], len(self.S))
        for kernel in (dependence._pair_kernel(pairs[-1:]), dependence._pair_kernel(pairs)):
            together = kernel(s, h)
            for size in (len(self.S), 15, 2):
                apart = np.concatenate([kernel(s[i:i + size], h[i:i + size])
                                        for i in range(0, len(s), size)], axis=1)
                assert together.tolist() == apart.tolist()


def nested_rows(cov):
    """The ordered pairs of a CovModel that take the nested kernel."""
    return [row for row in cov._tables if isinstance(row[0], PowerSpec)]


def mp_nested_cov(p: PowerSpec, h: float) -> float:
    """Cov(f(Z1), f(Z2)) of a GEV power at lag h by mpmath's double
    integral of Hoeffding's nested form, Gauss-Legendre in s > 0 (both
    half-lines, one power) and in y = log(C1/r), at 15 digits."""
    import mpmath as mp

    eta, tau, xi, h = (mp.mpf(x) for x in (p.margin.eta, p.margin.tau, p.margin.xi, h))

    def g(log_z):  # z f'(z)
        return (p.beta * tau * (eta + tau * mp.expm1(xi * log_z) / xi) ** (p.beta - 1)
                * mp.exp(xi * log_z))

    def outer(s):
        w, v = h / 2 + s, h / 2 - s
        c1 = mp.ncdf(w) + mp.ncdf(v) * mp.exp(-s * h)
        q = (mp.ncdf(-w) + mp.ncdf(-v) * mp.exp(-s * h)) / c1
        log_c1 = mp.log(c1)
        return h * mp.quad(lambda y: g(log_c1 - y) * g(log_c1 + s * h - y) * mp.exp(-mp.exp(y))
                           * -mp.expm1(-q * mp.exp(y)), [-120, -40, -20, -8, 0, 3, 7],
                           method="gauss-legendre", maxdegree=3)

    with mp.workdps(15):
        edges = sorted({mp.mpf(0), h / 2, 1, 2, 4} | {mp.mpf(2) ** k / h for k in range(-3, 7)})
        return float(2 * mp.quad(outer, edges, method="gauss-legendre", maxdegree=3))


class TestNestedKernel:
    """Pairs whose derivative table cancels take the nested kernel; it
    meets the oracle of tests/conftest.py, which meets mpmath."""

    LAGS = (1e-3, 0.1, 1.0, 4.0)

    @pytest.mark.parametrize("h", [0.1, 1.0])
    def test_oracle_matches_an_mpmath_double_integral(self, h):
        p = PowerSpec.gev(10, GevParams(ETA, TAU, -0.043))
        assert cov_oracle(p, p, h) == pytest.approx(mp_nested_cov(p, h), rel=1e-10)

    @pytest.mark.parametrize("beta, xi", [(10, -0.043), (11, -1.06e-4), (12, -0.066),
                                          (40, -0.2), (46, -0.2)])
    def test_cancelling_tables_meet_the_oracle(self, beta, xi):
        p = PowerSpec.gev(beta, GevParams(ETA, TAU, xi))
        spec = QuadSpec()
        cov = dependence.CovModel(p, p, spec)
        assert len(nested_rows(cov)) == 1
        values = cov(np.array(self.LAGS)).value
        reference = [cov_oracle(p, p, h) for h in self.LAGS]
        assert values == pytest.approx(reference, rel=spec.rel_tol)
        dep = dep_measure_from_gamma(p, np.square(self.LAGS))
        assert np.all((dep >= 0.0) & (dep <= 1.0))
        assert np.all(np.diff(dep) <= 0.0)

    def test_a_table_path_case_meets_the_oracle_to_1e_10(self, paper_gev):
        p = PowerSpec.gev(6, paper_gev)
        cov = dependence.CovModel(p, p, QuadSpec(rel_tol=1e-10))
        assert not nested_rows(cov)
        values = cov(np.array(self.LAGS)).value
        assert values == pytest.approx([cov_oracle(p, p, h) for h in self.LAGS], rel=1e-10)

    @pytest.mark.parametrize("beta", range(1, 13))
    def test_study_margins_keep_the_table(self, paper_gev, beta):
        p = PowerSpec.gev(beta, paper_gev)
        assert not nested_rows(dependence.CovModel(p, p, QuadSpec()))

    def test_a_gumbel_power_keeps_its_one_term_table(self):
        p = PowerSpec.gev(1, GevParams(ETA, TAU, 0.0))
        assert not nested_rows(dependence.CovModel(p, p, QuadSpec(rel_tol=1e-14)))

    @pytest.mark.parametrize("beta", [2, 3, 6, 12])
    def test_gumbel_powers_take_the_nested_kernel_and_meet_the_oracle(self, beta):
        p = gumbel(beta)
        assert dependence._derivative_table(p) is None
        spec = QuadSpec()
        cov = dependence.CovModel(p, p, spec)
        assert len(nested_rows(cov)) == 1
        values = cov(np.array(self.LAGS)).value
        assert values == pytest.approx([cov_oracle(p, p, h) for h in self.LAGS],
                                       rel=spec.rel_tol)

    # xi through 0 at |xi| <= 1e-12: the table cancels, its entries or their
    # pairwise products leave the double range (the entries from about
    # |xi| = 1e-30 at beta 12) or it does not exist (xi = 0), and the nested
    # kernel takes every case
    SMALL_XI = (-1e-12, -1e-100, 0.0, 1e-300, 1e-100, 1e-30, 1e-12)

    @pytest.mark.parametrize("beta", [2, 4, 12, 40])
    def test_dependence_is_continuous_in_xi_through_zero(self, beta):
        powers = [PowerSpec.gev(beta, GevParams(ETA, TAU, xi)) for xi in self.SMALL_XI]
        assert all(len(nested_rows(dependence.CovModel(p, p, QuadSpec()))) == 1 for p in powers)
        deps = [dep_measure_from_gamma(p, 1.0) for p in powers]
        gumbel_dep = deps[self.SMALL_XI.index(0.0)]
        assert deps == pytest.approx([gumbel_dep] * len(deps), rel=3e-13)
        p = gumbel(beta)
        assert gumbel_dep == pytest.approx(cov_oracle(p, p, 1.0) / var_gev(p),
                                           rel=QuadSpec().rel_tol)

    @pytest.mark.parametrize("beta", range(88, 96))
    def test_paper_powers_past_the_weights_range_meet_the_oracle(self, paper_gev, beta):
        # the table exists, but its pairwise weights d_j d_k leave the double
        # range while the variance stays finite
        p = PowerSpec.gev(beta, paper_gev)
        d, _ = dependence._derivative_table(p)
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.outer(d, d)).all()
        spec = QuadSpec()
        cov = dependence.CovModel(p, p, spec)
        assert len(nested_rows(cov)) == 1
        values = cov(np.array(self.LAGS)).value
        assert values == pytest.approx([cov_oracle(p, p, h) for h in self.LAGS],
                                       rel=spec.rel_tol)

    @pytest.mark.parametrize("p1, p2", [
        (PowerSpec.gev(2, GevParams(1.0, 3.0, 0.1)), PowerSpec.gev(2, GevParams(1.0, 3.0, 0.1))),
        (PowerSpec.gev(3, GevParams(ETA, TAU, XI)), PowerSpec.gev(3, GevParams(ETA, TAU, XI))),
        (PowerSpec.gev(4, GevParams(-5.0, 2.0, -0.1)),
         PowerSpec.gev(4, GevParams(-5.0, 2.0, -0.1))),
        (PowerSpec.gev(3, GevParams(ETA, TAU, XI)), PowerSpec.gev(2, GevParams(25.0, 2.0, 0.1))),
        (PowerSpec.simple(-0.5), PowerSpec.simple(0.3)),
        (PowerSpec.gev(1, GevParams(ETA, TAU, 0.2)), PowerSpec.simple(0.25)),
    ], ids=["z-negative-even", "paper-odd", "z-negative-odd", "mixed-gev", "mixed-simple",
            "gev-and-simple"])
    def test_the_nested_kernel_is_the_table_where_neither_cancels(self, monkeypatch, p1, p2):
        # every pair routed: the sign of f' (negative where Z_gev < 0 and
        # beta - 1 is odd, or a simple power is negative) and both ordered
        # half-lines of a mixed pair give the table's value
        spec = QuadSpec(rel_tol=1e-11)
        lags = np.array([0.05, 0.7, 2.5])
        table = dependence.CovModel(p1, p2, spec)(lags).value
        monkeypatch.setattr(dependence, "_NESTED_SHARE", 0.0)
        cov = dependence.CovModel(p1, p2, spec)
        assert len(nested_rows(cov)) == (1 if p1 == p2 else 2)
        assert cov(lags).value == pytest.approx(table, rel=1e-9)

    def test_a_sign_change_in_the_bulk_takes_the_full_rule(self, monkeypatch):
        # Z_gev < 0 with probability 0.31 at beta 4 (an odd beta - 1): the
        # inner sum cancels, and the rule's every node keeps it at the table's
        # value (every other node missed it by 1.1e-9)
        p = PowerSpec.gev(4, GevParams(0.5, 3.0, -0.3))
        spec = QuadSpec(rel_tol=1e-12)
        lags = np.array([0.01, 0.3, 2.0])
        monkeypatch.setattr(dependence, "_NESTED_SHARE", math.inf)
        table = dependence.CovModel(p, p, spec)(lags).value
        monkeypatch.setattr(dependence, "_NESTED_SHARE", 0.0)
        assert dependence.CovModel(p, p, spec)(lags).value == pytest.approx(table, rel=1e-11)

    def test_the_routing_bound_decides_as_its_double_sum(self):
        # the single-sum bounds that spare the double sum decide as it does
        eps = np.finfo(float).eps
        for beta, xi in [(1, -0.2), (6, -0.2), (12, -0.2), (10, -0.043), (11, -1.06e-4),
                         (6, 0.05), (2, 0.2), (9, -0.09)]:
            p = PowerSpec.gev(beta, GevParams(ETA, TAU, xi))
            d, b = dependence._derivative_table(p)
            e = np.abs(d / b)
            total = (e @ np.abs(special.gamma(1.0 - np.add.outer(b, b))) @ e
                     + (e @ np.abs(special.gamma(1.0 - b))) ** 2)
            bound = eps * total / var_gev(p)
            for limit in (bound / 1.001, bound * 1.001, 1e-8, 1e-12):
                assert dependence._cancels(d, b, d, b, var_gev(p), limit) == (bound > limit)

    def test_cancelling_pairs_in_a_sequence_model(self):
        # a batch routes pair by pair: the cancelling power takes the nested
        # kernel, the others keep their tables and their bits
        margin = GevParams(ETA, TAU, -0.043)
        powers = (PowerSpec.gev(1, margin), PowerSpec.gev(10, margin))
        cov = dependence.CovModel(powers, powers, QuadSpec())
        assert nested_rows(cov) == [(powers[1], powers[1])]
        lags = np.array([0.5, 2.0])
        together = cov(lags).value
        alone = dependence.CovModel(powers[0], powers[0], QuadSpec())(lags).value
        assert together[0].tolist() == alone.tolist()
        assert together[1] == pytest.approx([cov_oracle(powers[1], powers[1], h) for h in lags],
                                            rel=QuadSpec().rel_tol)


class TestDependenceProperties:
    """Random GEV margins, powers and variograms: the batched dependence is
    a correlation that decays with distance and equals the lag-by-lag one."""

    @settings(max_examples=12, deadline=None)
    @given(
        beta=st.integers(min_value=1, max_value=12),
        xi_size=st.floats(min_value=0.05, max_value=0.6),
        xi_sign=st.sampled_from([-1.0, 1.0]),
        eta=st.floats(min_value=10.0, max_value=50.0),
        tau=st.floats(min_value=0.5, max_value=5.0),
        psi=st.floats(min_value=0.05, max_value=2.0),
        gaps=st.lists(st.floats(min_value=0.05, max_value=5.0), min_size=1, max_size=8),
    )
    def test_unit_interval_non_increasing_and_batch_equals_scalar(
            self, beta, xi_size, xi_sign, eta, tau, psi, gaps):
        xi = xi_sign * xi_size
        assume(beta * xi < 0.5)
        p = PowerSpec.gev(beta, GevParams(eta, tau, xi))
        v = power(1.0, psi)
        distances = np.r_[0.0, np.cumsum(gaps)]
        gammas = np.array([v.radial(d) for d in distances])
        dep = dep_measure_from_gamma(p, gammas)
        assert dep[0] == 1.0
        assert np.all((dep >= 0.0) & (dep <= 1.0))
        assert np.all(np.diff(dep) <= 0.0)
        assert dep.tolist() == [dep_measure_from_gamma(p, g) for g in gammas]
