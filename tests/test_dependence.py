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
    g_simple,
    gamma,
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
from windrisk import dependence, risk

from conftest import ETA, TAU, XI


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

    @staticmethod
    def display_kernel(b1, b2, s, h):
        """h theta^(b2+1) [C2 C1^(sig-2) Gamma(2-sig) + C3 C1^(sig-1)
        Gamma(1-sig)] at theta = exp(s h), the display form's integrand in
        s, from the collapsed C2 and C3 in plain (not log) arithmetic."""
        theta, w, v, sig = np.exp(s * h), h / 2.0 + s, h / 2.0 - s, b1 + b2
        c1 = ndtr(w) + ndtr(v) / theta
        c2 = ndtr(w) * ndtr(v) / theta**2
        c3 = np.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi) / (h * theta)
        return h * theta ** (b2 + 1.0) * (c2 * c1 ** (sig - 2.0) * gamma(2.0 - sig)
                                          + c3 * c1 ** (sig - 1.0) * gamma(1.0 - sig))

    def test_swapped_kernel_at_s_is_the_kernel_at_minus_s(self, monkeypatch):
        # the two components g_simple integrates over s > 0 are its
        # display-form kernel of (b1, b2) at s and at -s
        kernels = []
        original = dependence._line_integrals

        def captured(kernel, lags, spec, width):
            kernels.append(kernel)
            return original(kernel, lags, spec, width)

        monkeypatch.setattr(dependence, "_line_integrals", captured)
        b1, b2 = 0.1, 0.3
        for h in (0.05, 1.0, 8.0):
            g_simple(b1, b2, h)
            s = np.r_[0.0, np.geomspace(1e-3, min(20.0, 20.0 / h), 100)]
            pair, swapped = kernels[-1](s, np.full_like(s, h))
            np.testing.assert_allclose(pair, self.display_kernel(b1, b2, s, h), rtol=1e-13)
            np.testing.assert_allclose(swapped, self.display_kernel(b1, b2, -s, h), rtol=1e-13)

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


class TestLogGammaSeries:
    def test_zeta_quotients_are_scipys(self):
        n = np.arange(2.0, 40.0)
        np.testing.assert_array_equal(np.array(dependence._LGAMMA_SERIES), zeta(n) / n)


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

    def test_weights_past_the_double_range_raise_without_a_warning(self, paper_gev):
        # at beta 100 the pairwise weights d_j d_k overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="pairwise weight"):
                var_gev(PowerSpec.gev(100, paper_gev))

    @pytest.mark.parametrize("beta", [100, 200, 400])
    def test_moments_past_the_double_range_raise(self, paper_gev, beta):
        # at the paper margin the variance terms leave the double range from
        # beta = 86, the mean terms from 171, the derivative table from 186
        # and f(1) = eta^beta from 209: each is DomainError, not inf - inf in
        # fsum or the OverflowError of a float power
        p = PowerSpec.gev(beta, paper_gev)
        with pytest.raises(DomainError):
            var_gev(p)
        if beta >= 200:
            with pytest.raises(DomainError):
                mean_cost(p)

    @pytest.mark.parametrize("beta", [1025, 10**300])
    def test_beta_past_the_binomial_range_raises_before_the_table(self, beta):
        # a weight beta C(beta-1, j) is at least 2^(beta-1): even where the
        # margin's powers are small the table is rejected before it is built
        p = PowerSpec.gev(beta, GevParams(0.01, 0.01, -0.2))
        with pytest.raises(DomainError):
            dependence._derivative_table(p)
        with pytest.raises(DomainError):
            var_gev(p)

    def test_beta_forty_keeps_its_value(self, paper_gev):
        # beta 40 is computed, not refused by the overflow guards.  The
        # binomial table cancels here, so the variance pinned is the
        # rounding noise of the Gamma values (math.gamma's), not the true
        # variance: the test below holds the 80-digit value
        p = PowerSpec.gev(40, paper_gev)
        assert var_gev(p) == pytest.approx(6.873362306010234e127, rel=1e-14)
        assert mean_cost(p) == pytest.approx(2.6374528111882373e62, rel=1e-14)

    @pytest.mark.xfail(strict=True, reason="the binomial table cancels at beta 40 (ROADMAP item 4)")
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
        expected = (g_simple(0.25, 0.25, 2.0) - gamma(0.75) ** 2) / var_simple(0.25)
        assert val == pytest.approx(expected, rel=1e-10)

    def test_degenerate_power_rejected(self):
        with pytest.raises(DomainError):
            dep_measure_from_gamma(PowerSpec.simple(0.0), 1.0)

    @pytest.mark.parametrize("p", [PowerSpec.gev(12, GevParams(ETA, TAU, XI)),
                                   PowerSpec.simple(0.25)], ids=["gev12", "simple0.25"])
    def test_infinite_lag_has_the_limit_zero(self, p):
        cov = dependence._cov_at(p, p, QuadSpec())
        assert cov(math.inf) == QuadResult(0.0, 0.0, 0)
        lags = np.array([0.0, 1.0, math.inf])
        batch = cov(lags)
        assert batch.value.tolist() == [cov(h).value for h in lags]
        assert batch.value[2] == 0.0 and batch.subdivisions[2] == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dep_measure_from_gamma(p, math.inf) == 0.0
            assert dep_measure_from_gamma(p, np.array([1.0, math.inf]))[1] == 0.0

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
    def test_table_cancellation_stops_on_roundoff(self, beta, xi):
        # the binomial table's rounding noise at small |xi| can never meet
        # rel_tol; QUADPACK's roundoff test ends the row well before the
        # 400-subdivision budget (59 and 56 subdivisions at lag 1)
        p = PowerSpec.gev(beta, GevParams(ETA, TAU, xi))
        with pytest.raises(ConvergenceError, match="stopped by roundoff") as err:
            dep_measure_from_gamma(p, 1.0)
        subdivisions = int(str(err.value).split(" after ")[1].split()[0])
        assert subdivisions < 100
        assert err.value.best_estimate > 0.0 and err.value.err_estimate > 0.0


class TestXiZero:
    def test_gumbel_variance(self, paper_gev):
        v = power(1.0, 1.0)
        val = cov_gev(gumbel(1), gumbel(1), v, [0.0, 0.0], [0.0, 0.0])
        assert val == pytest.approx(TAU**2 * math.pi**2 / 6.0, rel=1e-6)

    def test_error_estimate_returned(self):
        # lag 1 of the psi = 1 variogram at unit distance
        res = dependence._cov_at(gumbel(1), gumbel(1), QuadSpec())(1.0)
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

    def test_gumbel_beta_two_rejected_before_computing(self, monkeypatch):
        def computed(*args, **kwargs):
            pytest.fail("computed for an unsupported margin")

        monkeypatch.setattr(dependence, "integrate_rows", computed)
        for name in ("integrate", "integrate_rows"):
            monkeypatch.setattr(risk, name, computed)
        for module in (dependence, risk):
            monkeypatch.setattr(module, "_cov_at", computed)
        p = PowerSpec.gev(2, GevParams(ETA, TAU, 0.0))  # the spec itself is valid
        v = power(1.0, 1.0)
        q = RiskQuery(region=disk(1.0), power=p, variogram=v)
        for op in (
            lambda: var_gev(p),
            lambda: mean_cost(p),
            lambda: cov_gev(p, p, v, [0.0, 0.0], [1.0, 0.0]),
            lambda: dep_measure(p, v, [0.0, 0.0], [1.0, 0.0]),
            lambda: r2(q, 1.0),
            lambda: asymptotic_cov_integral(p, v),
            lambda: clt_approx(q, 10.0),
        ):
            with pytest.raises(DomainError):
                op()

    # exact variances from the binomial moment sums in 60-digit arithmetic;
    # near xi = 0 the closed-form bracket of each table pair cancels, so
    # these pin its series form (the beta = 3 case cancels most)
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


def initial_subdivisions(lags):
    """The subdivisions of each lag's initial half-line panels, one fewer
    than the panels; 0 below SMALL_H, which takes no quadrature row."""
    return np.array([len(dependence._breakpoints(h)) if h >= dependence.SMALL_H else 0
                     for h in lags])


class TestBatchedCovariance:
    """The covariance of many lags is one quadrature call a block of lags,
    each lag one s > 0 row; every lag's result is the one it gets alone,
    bit for bit."""

    # 0, a lag below SMALL_H, and the psi = 2 study grid (sqrt(gamma) is the
    # distance there), whose shortest lags need refinement waves
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

    # the kernel's default chunk, and chunks of one panel, whose edges fall
    # inside the rows of a wave
    @pytest.mark.parametrize("name, chunk", [(name, 960) for name in CASES]
                             + [(name, 15) for name in CASES],
                             ids=list(CASES) + [f"{name}-chunk15" for name in CASES])
    def test_array_of_lags_equals_each_lag_alone(self, monkeypatch, name, chunk):
        monkeypatch.setattr(dependence, "_CHUNK_NODES", chunk)
        p1, p2 = self.CASES[name]
        cov = dependence._cov_at(p1, p2, QuadSpec())
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
        rows = []
        original = dependence.integrate_rows

        def counted(f, a, b, breakpoints, spec):
            rows.append(len(breakpoints))
            return original(f, a, b, breakpoints, spec)

        monkeypatch.setattr(dependence, "integrate_rows", counted)
        p = PowerSpec.gev(3, paper_gev)
        res = dependence._cov_at(p, p, QuadSpec())(lags)
        assert sum(rows) == 0
        assert res.value.shape == lags.shape
        assert np.all(res.value == var_gev(p))
        assert np.all(res.subdivisions == 0)

    def test_study_grid_needs_refinement_waves(self, paper_gev):
        # some lag is refined past its initial panels
        p = PowerSpec.gev(6, paper_gev)
        res = dependence._cov_at(p, p, QuadSpec())(self.LAGS)
        assert (res.subdivisions > initial_subdivisions(self.LAGS)).any()

    @pytest.mark.parametrize("name", ["gev6", "simple0.25", "mixed"])
    def test_a_value_is_the_sum_of_its_ordered_half_lines(self, name):
        # a same-power value is twice the s > 0 row of its one pair, and a
        # mixed pair's the sum of the s > 0 rows of (p1, p2) and (p2, p1)
        p1, p2 = self.CASES[name]
        _, d1, b1 = dependence._derivative_table(p1)
        _, d2, b2 = dependence._derivative_table(p2)
        ordered = [(d1, b1, d2, b2)] + ([(d2, b2, d1, b1)] if p1 != p2 else [])
        kernel = dependence._pair_kernel(ordered)
        lags = [0.1, 1.0, 4.0]
        cov = dependence._cov_at(p1, p2, QuadSpec())
        for lag in lags:
            row = dependence.integrate_rows(
                lambda x, r: kernel(x, np.full_like(x, lag)), 0.0, math.inf,
                [dependence._breakpoints(lag)], QuadSpec())[0]
            res = cov(lag)
            assert res.value == row.value[0] + row.value[-1]
            assert res.err_estimate == row.err_estimate[0] + row.err_estimate[-1]
            assert res.subdivisions == row.subdivisions

    def test_kernels_see_only_s_above_zero_and_a_block_is_one_call(self, monkeypatch,
                                                                    paper_gev):
        # every kernel call is on the half-line s >= 0, and each block of
        # lags is one integrate_rows call
        calls, lowest = [], []
        original = dependence.integrate_rows

        def watched(f, a, b, breakpoints, spec):
            def g(x, row):
                lowest.append(x.min())
                return f(x, row)

            calls.append(len(breakpoints))
            return original(g, a, b, breakpoints, spec)

        monkeypatch.setattr(dependence, "integrate_rows", watched)
        powers = [PowerSpec.gev(beta, paper_gev) for beta in range(1, 13)]
        lags = self.LAGS[2:]
        dependence._cov_at(powers, powers, QuadSpec())(lags)
        assert calls == [10, 10, 10, 10]  # 120 lanes of 12 components a block
        calls.clear()
        p1, p2 = self.CASES["mixed"]
        dependence._cov_at(p1, p2, QuadSpec())(lags)
        assert calls == [len(lags)]  # two components a lag: one block
        calls.clear()
        g_simple(0.1, 0.3, 2.0)
        assert calls == [1]
        assert lowest and min(lowest) >= 0.0

    def test_mixed_pair_has_a_distinct_exponent_sum_per_term(self):
        _, _, b1 = dependence._derivative_table(self.CASES["mixed"][0])
        _, _, b2 = dependence._derivative_table(self.CASES["mixed"][1])
        assert np.unique(np.add.outer(b1, b2)).size == b1.size * b2.size

    def test_first_failing_lag_raises_its_own_error(self):
        # a budget of one split per half-line at a tight tolerance: short
        # lags fail, long ones converge
        p = PowerSpec.gev(6, GevParams(ETA, TAU, XI))
        cov = dependence._cov_at(p, p, QuadSpec(rel_tol=1e-11, max_subdivisions=9))
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
        original = dependence._cov_at

        def counted(p1, p2, spec):
            built.append((p1, p2))
            return original(p1, p2, spec)

        monkeypatch.setattr(dependence, "_cov_at", counted)
        assert main(["depsurface", "--out", str(tmp_path / "dep.csv")]) == 0
        assert len(built) == 4
        assert all(p1 == p2 and [p.beta for p in p1] == list(range(1, 13)) for p1, p2 in built)


class TestPowersOnOneMesh:
    """A sequence of powers is one covariance evaluation whose quadrature
    rows carry every power: each value is the power's own where the rows
    converge in their first wave, and within the tolerance elsewhere."""

    POWERS = [PowerSpec.gev(beta, GevParams(ETA, TAU, XI)) for beta in range(1, 13)]

    @staticmethod
    def gammas(psi, d_max):
        v = power(1.0, psi)
        return np.array([v.radial(d) for d in np.r_[0.0, np.geomspace(0.1, d_max, 40)]])

    def test_equals_the_per_power_calls_where_no_row_refines(self):
        # at psi 1 every row of the study grid converges in its first wave
        gammas = self.gammas(1.0, 100.0)
        batch = dep_measure_from_gamma(self.POWERS, gammas)
        assert batch.shape == (12, len(gammas))
        for p, row in zip(self.POWERS, batch):
            assert row.tolist() == dep_measure_from_gamma(p, gammas).tolist()

    def test_within_tolerance_where_rows_refine(self):
        spec = QuadSpec()
        gammas = self.gammas(2.0, 10.0)
        batch = dep_measure_from_gamma(self.POWERS, gammas, spec)
        alone = np.array([dep_measure_from_gamma(p, gammas, spec) for p in self.POWERS])
        np.testing.assert_allclose(batch, alone, rtol=2.0 * spec.rel_tol, atol=0.0)
        # the shared mesh of a lag is the one its worst power asks for
        cov = dependence._cov_at(self.POWERS, self.POWERS, spec)(np.sqrt(gammas))
        refined = cov.subdivisions.max(axis=0) > initial_subdivisions(np.sqrt(gammas))
        assert refined.any() and (batch[:, ~refined] == alone[:, ~refined]).all()

    def test_a_power_node_value_ignores_the_other_powers(self):
        tables = [dependence._derivative_table(p)[1:] for p in self.POWERS]
        pairs = [(d, b, d, b) for d, b in tables]
        s = np.r_[TestPairKernel.S, TestPairKernel.S]
        h = np.repeat([0.3, 3.0], len(TestPairKernel.S))
        together = dependence._pair_kernel(pairs)(s, h)
        for k, pair in enumerate(pairs):
            assert together[k].tolist() == dependence._pair_kernel([pair])(s, h)[0].tolist()

    def test_a_failing_batch_raises_the_first_failing_power_error(self):
        # near xi = 0 the binomial table's integrands are rounding noise from
        # beta 9 on: beta 1 converges, and beta 10 decides, as when the
        # powers are evaluated one at a time
        margin = GevParams(ETA, TAU, -0.043)
        powers = [PowerSpec.gev(beta, margin) for beta in (1, 10, 12)]
        gammas = self.gammas(1.0, 100.0)
        dep_measure_from_gamma(powers[0], gammas)
        with pytest.raises(ConvergenceError) as alone:
            dep_measure_from_gamma(powers[1], gammas)
        with pytest.raises(ConvergenceError) as batch:
            dep_measure_from_gamma(powers, gammas)
        assert str(batch.value) == str(alone.value)
        assert batch.value.best_estimate == alone.value.best_estimate
        assert batch.value.err_estimate == alone.value.err_estimate

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
        _, d1, b1 = dependence._derivative_table(self.CASES[name][0])
        _, d2, b2 = dependence._derivative_table(self.CASES[name][1])
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
        _, d1, b1 = dependence._derivative_table(self.CASES[name][0])
        _, d2, b2 = dependence._derivative_table(self.CASES[name][1])
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
        # per-term form over the whole line, split at +-each breakpoint
        p1, p2 = self.CASES[name]
        _, d1, b1 = dependence._derivative_table(p1)
        _, d2, b2 = dependence._derivative_table(p2)
        spec = QuadSpec()
        for distance in (0.09, 1.0, 16.0):
            h = math.sqrt(distance)

            def f(s):
                return per_term_kernel(d1, b1, d2, b2, np.array([s]), np.array([h]))[0][0]

            bps = dependence._breakpoints(h)
            edges = [-math.inf] + sorted({0.0, *bps, *(-bp for bp in bps)}) + [math.inf]
            ref = math.fsum(quad(f, lo, hi, epsrel=1e-12, limit=500)[0]
                            for lo, hi in zip(edges, edges[1:]))
            value = cov_gev(p1, p2, power(1.0, 1.0), [0.0, 0.0], [distance, 0.0], spec)
            assert value == pytest.approx(ref, rel=10.0 * spec.rel_tol)

    def test_each_node_is_independent_of_the_others(self):
        p = self.CASES["gev12"][0]
        _, d, b = dependence._derivative_table(p)
        kernel = dependence._pair_kernel([(d, b, d, b)])
        s = np.r_[self.S, self.S]
        h = np.repeat([0.3, 3.0], len(self.S))
        together = kernel(s, h)
        half = len(self.S)
        apart = np.c_[kernel(s[:half], h[:half]), kernel(s[half:], h[half:])]
        assert together.tolist() == apart.tolist()


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
        try:
            dep = dep_measure_from_gamma(p, gammas)
        except ConvergenceError as batch:
            # the documented failure (the binomial table cancels at high
            # powers): it is the error of the first lag that fails alone
            for g in gammas:
                try:
                    dep_measure_from_gamma(p, g)
                except ConvergenceError as alone:
                    assert str(batch) == str(alone)
                    return
            pytest.fail("the batch failed where every lag converges alone")
        assert dep[0] == 1.0
        assert np.all((dep >= 0.0) & (dep <= 1.0))
        assert np.all(np.diff(dep) <= 0.0)
        assert dep.tolist() == [dep_measure_from_gamma(p, g) for g in gammas]
