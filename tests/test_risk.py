"""Spatial risk measures: mean cost, variance reduction, asymptotics."""

import ast
import bisect
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import chebyshev
from scipy.integrate import IntegrationWarning, quad

from windrisk import (
    CltApprox,
    ConvergenceError,
    DomainError,
    GevParams,
    PowerSpec,
    QuadSpec,
    RiskQuery,
    UnsupportedVariogramError,
    anisotropic_power,
    asymptotic_cov_integral,
    clt_approx,
    disk,
    es_asymptotic,
    mean_cost,
    norm_pdf,
    power,
    power_m,
    quadratic_form,
    r2,
    r2_curves,
    square,
    var_asymptotic,
    var_gev,
    var_simple,
)
from windrisk import dependence, risk
from windrisk.dependence import covariance_model
from windrisk.geometry import disk_distance_density
from windrisk.numerics import QuadResult, integrate

from conftest import ETA, TAU, XI, RoughPast


class TestMeanCost:
    def test_simple_mode(self):
        assert mean_cost(PowerSpec.simple(0.5)) == pytest.approx(math.gamma(0.5), rel=1e-14)

    def test_gev_beta_one(self, paper_gev):
        expected = 45.0 - 15.0 * math.gamma(1.2)
        assert mean_cost(PowerSpec.gev(1, paper_gev)) == pytest.approx(expected, rel=1e-13)

    def test_xi_minus_one_collapses(self):
        # eta + tau - tau Gamma(2) = eta
        p = PowerSpec.gev(1, GevParams(30.0, 3.0, -1.0))
        assert mean_cost(p) == pytest.approx(30.0, rel=1e-13)

    def test_mc_oracle(self, paper_gev):
        rng = np.random.default_rng(17)
        z = 1.0 / -np.log(rng.uniform(size=2_000_000))
        zg = (ETA - TAU / XI) + TAU * z**XI / XI
        se = zg.std(ddof=1) / math.sqrt(len(zg))
        assert abs(mean_cost(PowerSpec.gev(1, paper_gev)) - zg.mean()) <= 3.0 * se

    def test_moment_violations(self):
        with pytest.raises(DomainError):
            mean_cost(PowerSpec(beta=1.5, margin=None))
        with pytest.raises(DomainError):
            mean_cost(PowerSpec.gev(2, GevParams(0.0, 1.0, 0.6)))


class TestR2:
    def test_collapses_to_variance_at_zero(self, paper_gev):
        p = PowerSpec.gev(1, paper_gev)
        q = RiskQuery(region=disk(1.0), power=p, variogram=power(1.0, 2.0))
        assert r2(q, 1e-8) == pytest.approx(var_gev(p), rel=1e-3)

    def test_strictly_decreasing_and_vanishing(self, paper_gev):
        p = PowerSpec.gev(1, paper_gev)
        q = RiskQuery(region=disk(1.0), power=p, variogram=power(1.0, 2.0))
        lams = [0.25, 0.7, 2.0, 6.0, 18.0, 50.0]
        vals = [r2(q, lam) for lam in lams]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        # total diversification: the 1e-3 relative level is crossed between
        # lam = 50 (2.0e-3, cross-checked by Monte Carlo) and lam = 100
        assert r2(q, 100.0) < 1e-3 * var_gev(p)

    def test_square_dominates_disk(self, paper_gev):
        p = PowerSpec.gev(1, paper_gev)
        vgram = power(1.0, 2.0)
        for lam in (2.0, 10.0):
            r_disk = r2(RiskQuery(region=disk(1.0), power=p, variogram=vgram), lam)
            r_square = r2(RiskQuery(region=square(1.0), power=p, variogram=vgram), lam)
            assert r_square >= r_disk

    def test_simple_margin_mode(self):
        p = PowerSpec.simple(0.25)
        q = RiskQuery(region=disk(1.0), power=p, variogram=power(1.0, 1.0))
        assert r2(q, 1e-8) == pytest.approx(var_simple(0.25), rel=1e-3)
        assert 0.0 < r2(q, 5.0) < var_simple(0.25)

    def test_anisotropic_rejected(self, paper_gev):
        p = PowerSpec.gev(1, paper_gev)
        v = quadratic_form([[2.0, 0.5], [0.5, 1.0]])
        with pytest.raises(UnsupportedVariogramError):
            r2(RiskQuery(region=disk(1.0), power=p, variogram=v), 1.0)

    def test_xi_zero_continuity(self):
        # |r2(xi=+eps) - r2(xi=-eps)| <= 1e-2 r2 at the Gumbel limit
        v = power(1.0, 1.0)
        lam = 2.0
        vals = {}
        for xi in (1e-4, -1e-4, 0.0):
            p = PowerSpec.gev(1, GevParams(ETA, TAU, xi))
            vals[xi] = r2(RiskQuery(region=disk(1.0), power=p, variogram=v), lam)
        assert abs(vals[1e-4] - vals[-1e-4]) <= 1e-2 * vals[0.0]

    def test_lam_validation(self, paper_gev):
        q = RiskQuery(region=disk(1.0), power=PowerSpec.gev(1, paper_gev),
                      variogram=power(1.0, 1.0))
        with pytest.raises(DomainError):
            r2(q, 0.0)


    def test_tiny_psi_breakpoints_overflow_quietly(self, paper_gev):
        # the distance where gamma reaches 64 overflows a float at psi 1e-3
        p = PowerSpec.gev(1, paper_gev)
        q = RiskQuery(region=disk(1.0), power=p, variogram=power(1.0, 1e-3))
        assert 0.0 < r2(q, 1.0) < var_gev(p)


    @pytest.mark.parametrize("region", [disk(1e200), square(1e300)])
    def test_region_past_the_square_of_a_double(self, paper_gev, region):
        # the distance densities no longer square R: the loss over a region
        # this large has the variance K/(lam^2 area), which underflows to 0
        q = RiskQuery(region=region, power=PowerSpec.gev(1, paper_gev), variogram=power(1.0, 1.0))
        assert r2(q, 1.0) == 0.0

class TestR2Curves:
    # psi 1e-3 with lam = 1 is the breakpoint overflow of
    # TestR2::test_tiny_psi_breakpoints_overflow_quietly
    LAMS = [0.1, 0.5, 1.0, 3.7, 10.0, 25.0]
    VARIOGRAMS = [power(1.0, psi) for psi in (0.5, 1.0, 1.5, 2.0, 1e-3)]

    @staticmethod
    def never(*args, **kwargs):
        pytest.fail("computed")

    @pytest.mark.parametrize("region", [disk(1.0), square(1.0)], ids=["disk", "square"])
    @pytest.mark.parametrize("p", [
        PowerSpec.gev(1, GevParams(ETA, TAU, XI)),
        PowerSpec.gev(6, GevParams(ETA, TAU, XI)),
        PowerSpec.simple(0.25),
    ], ids=["gev1", "gev6", "simple"])
    def test_equals_per_call_r2_bit_for_bit(self, region, p):
        # each (variogram, lam) row keeps its own mesh, so batching moves no bit
        curves = r2_curves(region, p, self.VARIOGRAMS, self.LAMS)
        alone = [[r2(RiskQuery(region, p, v), lam) for lam in self.LAMS]
                 for v in self.VARIOGRAMS]
        assert curves.shape == (len(self.VARIOGRAMS), len(self.LAMS))
        assert curves.tolist() == alone

    @pytest.mark.parametrize("region", [disk(1.0), square(1.0)], ids=["disk", "square"])
    def test_rows_split_where_the_table_and_the_density_change(self, region, paper_power,
                                                               monkeypatch):
        # a row's pieces meet at the table's edges at distance s edge^(2/psi)
        # / lam inside (0, h_max), and at R on the square
        seen = []
        original = risk.integrate_rows

        def recorded(f, a, b, breakpoints, spec):
            seen.extend(breakpoints)
            return original(f, a, b, breakpoints, spec)

        monkeypatch.setattr(risk, "integrate_rows", recorded)
        r2_curves(region, paper_power, [power(2.0, 1.0), power(1.0, 0.5)], [0.5, 3.7])
        edges = covariance_model(paper_power, paper_power, QuadSpec()).table.edges
        h_max = region.max_distance()
        for breakpoints, (s, psi, lam) in zip(seen, [(2.0, 1.0, 0.5), (2.0, 1.0, 3.7),
                                                     (1.0, 0.5, 0.5), (1.0, 0.5, 3.7)]):
            u = [x for x in (s * edges ** (2.0 / psi) / lam).tolist() if 0.0 < x < h_max]
            assert u and breakpoints == u + ([1.0] if region.shape == "square" else [])

    def test_one_quadrature_call(self, paper_power, monkeypatch):
        calls = []
        original = risk.integrate_rows

        def counted(f, a, b, breakpoints, spec):
            calls.append(len(breakpoints))
            return original(f, a, b, breakpoints, spec)

        monkeypatch.setattr(risk, "integrate_rows", counted)
        r2_curves(disk(1.0), paper_power, self.VARIOGRAMS, self.LAMS)
        assert calls == [len(self.VARIOGRAMS) * len(self.LAMS)]

    def test_empty_grid_computes_nothing(self, paper_power, monkeypatch):
        monkeypatch.setattr(dependence.CovModel, "table", property(self.never))
        assert r2_curves(disk(1.0), paper_power, [], self.LAMS).shape == (0, len(self.LAMS))
        assert r2_curves(disk(1.0), paper_power, self.VARIOGRAMS, []).shape == (5, 0)

    def test_inputs_checked_before_computing(self, paper_power, monkeypatch):
        monkeypatch.setattr(dependence.CovModel, "table", property(self.never))
        with pytest.raises(DomainError):
            r2_curves(disk(1.0), paper_power, self.VARIOGRAMS, [1.0, 0.0])
        aniso = anisotropic_power(1.0, [[1.0, 0.2], [0.2, 1.0]], 1.0)
        with pytest.raises(UnsupportedVariogramError):
            r2_curves(disk(1.0), paper_power, [power(1.0, 1.0), aniso], [1.0])

    def test_middle_row_failure_raises_its_own_error(self, paper_power):
        # rows (rough, 10) and (rough, 20) fail, each with its own estimate;
        # the first in variogram-major, lam-minor order decides
        rough = RoughPast(kind="power")
        with pytest.raises(ConvergenceError) as alone:
            r2(RiskQuery(disk(1.0), paper_power, rough), 10.0)
        with pytest.raises(ConvergenceError) as later:
            r2(RiskQuery(disk(1.0), paper_power, rough), 20.0)
        assert later.value.best_estimate != alone.value.best_estimate
        with pytest.raises(ConvergenceError) as batch:
            r2_curves(disk(1.0), paper_power, [power(1.0, 1.0), rough, power(1.0, 1.5)],
                      [1.0, 10.0, 20.0])
        assert str(batch.value) == str(alone.value)
        assert batch.value.best_estimate == alone.value.best_estimate
        assert batch.value.err_estimate == alone.value.err_estimate


class TestAsymptoticCovIntegral:
    def test_positive(self, paper_gev):
        for psi in (1.0, 2.0):
            val = asymptotic_cov_integral(PowerSpec.gev(1, paper_gev), power(1.0, psi))
            assert val > 0.0

    def test_beta_zero_field_is_constant(self):
        assert asymptotic_cov_integral(PowerSpec.simple(0.0), power(1.0, 1.0)) == 0.0

    def test_slow_decay_diagnosed(self, paper_gev):
        with pytest.raises(ConvergenceError):
            asymptotic_cov_integral(PowerSpec.gev(1, paper_gev), power(1.0, 0.05))

    def test_one_integrate_call_split_at_the_table_edges(self, paper_power, monkeypatch):
        # through risk's own binding of integrate, which a tracer can wrap
        calls = []
        original = risk.integrate

        def counted(f, a, b, spec, breakpoints):
            calls.append((a, b, list(breakpoints)))
            return original(f, a, b, spec, breakpoints)

        monkeypatch.setattr(risk, "integrate", counted)
        asymptotic_cov_integral(paper_power, power(1.0, 1.0))
        edges = covariance_model(paper_power, paper_power, QuadSpec()).table.edges.tolist()
        assert calls == [(0.0, edges[-1], edges[1:-1])]

    def test_anisotropic_rejected(self, paper_gev):
        v = anisotropic_power(1.0, [[2.0, 0.5], [0.5, 1.0]], 1.0)
        with pytest.raises(UnsupportedVariogramError):
            asymptotic_cov_integral(PowerSpec.gev(1, paper_gev), v)


class TestCltApprox:
    def test_variance_scaling(self, paper_gev):
        q = RiskQuery(region=disk(1.0), power=PowerSpec.gev(1, paper_gev),
                      variogram=power(1.0, 1.0))
        a = clt_approx(q, 10.0)
        b = clt_approx(q, 20.0)
        assert b.variance == pytest.approx(a.variance / 4.0, rel=1e-10)

    def test_mean_independent_of_scale_and_region(self, paper_gev):
        p = PowerSpec.gev(1, paper_gev)
        v = power(1.0, 1.0)
        a = clt_approx(RiskQuery(region=disk(1.0), power=p, variogram=v), 10.0)
        b = clt_approx(RiskQuery(region=square(3.0), power=p, variogram=v), 50.0)
        assert a.mean == b.mean == pytest.approx(mean_cost(p), rel=1e-14)

    @pytest.mark.parametrize("region", [disk(1e-300), square(1e200)])
    def test_area_outside_the_double_range_raises(self, region):
        # lam^2 area underflows to 0 or overflows: no variance to divide by
        with pytest.raises(DomainError):
            CltApprox.from_integral(1.0, 1.0, region, 1.0)

    def test_sd(self, paper_gev):
        q = RiskQuery(region=disk(1.0), power=PowerSpec.gev(1, paper_gev),
                      variogram=power(1.0, 1.0))
        c = clt_approx(q, 10.0)
        assert c.sd == pytest.approx(math.sqrt(c.variance), rel=1e-15)


class TestVarEsAsymptotic:
    def test_alpha_half_returns_mean_with_warning(self, paper_gev):
        q = RiskQuery(region=disk(1.0), power=PowerSpec.gev(1, paper_gev),
                      variogram=power(1.0, 1.0), alpha=0.5)
        with pytest.warns(RuntimeWarning):
            assert var_asymptotic(q, 10.0) == mean_cost(q.power)

    def test_increasing_in_alpha(self, paper_gev):
        p = PowerSpec.gev(1, paper_gev)
        v = power(1.0, 1.0)
        vals = [
            var_asymptotic(RiskQuery(region=disk(1.0), power=p, variogram=v, alpha=a), 25.0)
            for a in (0.9, 0.95, 0.99)
        ]
        assert vals[0] < vals[1] < vals[2]

    def test_es_dominates_var(self, paper_gev):
        p = PowerSpec.gev(1, paper_gev)
        v = power(1.0, 1.0)
        for a in (0.9, 0.95, 0.99):
            q = RiskQuery(region=disk(1.0), power=p, variogram=v, alpha=a)
            assert es_asymptotic(q, 25.0) > var_asymptotic(q, 25.0)

    def test_es_alpha_half_closed_form(self, paper_gev):
        p = PowerSpec.gev(1, paper_gev)
        v = power(1.0, 1.0)
        q = RiskQuery(region=disk(1.0), power=p, variogram=v, alpha=0.5)
        k_num = asymptotic_cov_integral(p, v)
        lam = 10.0
        expected = mean_cost(p) + norm_pdf(0.0) / 0.5 * math.sqrt(k_num) / (
            math.sqrt(math.pi) * lam
        )
        assert es_asymptotic(q, lam) == pytest.approx(expected, rel=1e-12)

    def test_alpha_validation(self, paper_gev):
        with pytest.raises(DomainError):
            RiskQuery(region=disk(1.0), power=PowerSpec.gev(1, paper_gev),
                      variogram=power(1.0, 1.0), alpha=1.0)


class TestPlaneIntegralConvergence:
    """K is integrated from the covariance itself, so it converges where the
    difference of second moment and squared mean could not."""

    def test_slow_variogram_converges(self, paper_gev):
        val = asymptotic_cov_integral(PowerSpec.gev(1, paper_gev), power(1.0, 0.5))
        assert val == pytest.approx(1186496.76, rel=1e-6)

    def test_tight_tolerance_converges(self, paper_gev):
        p = PowerSpec.gev(1, paper_gev)
        tight = asymptotic_cov_integral(p, power(1.0, 1.0), QuadSpec(rel_tol=1e-8))
        assert tight == pytest.approx(asymptotic_cov_integral(p, power(1.0, 1.0)), rel=3e-7)


    def test_overflowing_radius_diagnosed(self, paper_gev):
        with pytest.raises(ConvergenceError):
            asymptotic_cov_integral(PowerSpec.gev(1, paper_gev), power(1.0, 1e-3))

    @pytest.mark.parametrize("psi", [0.5, 1.0, 2.0])
    def test_range_enters_as_its_square(self, paper_power, psi):
        # the lag integral does not depend on kappa, so neither does its
        # acceptance: K(kappa) = kappa^2 K(1) at every scale
        unit = asymptotic_cov_integral(paper_power, power(1.0, psi))
        for kappa in (1e-8, 1e-3, 1e3, 1e8):
            scaled = asymptotic_cov_integral(paper_power, power(kappa, psi))
            assert scaled == pytest.approx(kappa * kappa * unit, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("kappa", [1e-50, 1.0, 1e50])
    def test_slow_decay_diagnosed_at_every_range(self, paper_power, kappa):
        with pytest.raises(ConvergenceError):
            asymptotic_cov_integral(paper_power, power(kappa, 0.05))

    def test_plane_integral_past_the_double_range_diagnosed(self, paper_power):
        with pytest.raises(DomainError):
            asymptotic_cov_integral(paper_power, power(1e200, 1.0))


class TestIsotropicKinds:
    """Every isotropic variogram is power(s, psi) for its radial scale, and
    gets that variogram's K and r2."""

    M, C = 0.6, 2.5

    @pytest.mark.parametrize("psi", [0.5, 1.0, 1.7])
    def test_power_m(self, paper_power, psi):
        self.check(paper_power, power_m(self.M, psi), power(self.M ** (-1.0 / psi), psi))

    def test_quadratic_form(self, paper_power):
        # its psi field keeps the unused default; the exponent is 2
        v = quadratic_form(self.C * np.eye(2))
        self.check(paper_power, v, power(math.sqrt(self.C), 2.0))

    @pytest.mark.parametrize("psi", [0.5, 1.0, 1.7])
    def test_anisotropic_power(self, paper_power, psi):
        v = anisotropic_power(self.M, self.C * np.eye(2), psi)
        self.check(paper_power, v,
                   power(math.sqrt(self.C) * self.M ** (-1.0 / psi), psi))

    @staticmethod
    def check(p, v, equivalent):
        assert asymptotic_cov_integral(p, v) == pytest.approx(
            asymptotic_cov_integral(p, equivalent), rel=1e-12, abs=0.0)
        lams = [0.5, 3.0, 20.0]
        for region in (disk(1.0), square(1.0)):
            np.testing.assert_allclose(r2_curves(region, p, [v], lams),
                                       r2_curves(region, p, [equivalent], lams), rtol=1e-12)


class FakeCovModel(dependence.CovModel):
    """The model of simple 0.25 with the covariance ``cov(h)`` in place of
    its line integrals, and ``cov(0)`` as its variance, as a synthetic
    covariance for the table builder."""

    def __init__(self, cov, spec=QuadSpec()):
        super().__init__(PowerSpec.simple(0.25), PowerSpec.simple(0.25), spec)
        self.cov = cov
        self.variance = float(cov(0.0))

    def __call__(self, h):
        return QuadResult(self.cov(h), 0.0, 0)


class TestCovTable:
    """r2 and K read one certified table of cov(h) per (PowerSpec, QuadSpec)."""

    CASES = {
        "gev1": PowerSpec.gev(1, GevParams(ETA, TAU, XI)),
        "gev6": PowerSpec.gev(6, GevParams(ETA, TAU, XI)),
        "gev12": PowerSpec.gev(12, GevParams(ETA, TAU, XI)),
        "simple-1": PowerSpec.simple(-1.0),
        "simple0.25": PowerSpec.simple(0.25),
        "simple0.45": PowerSpec.simple(0.45),
        "gumbel1": PowerSpec.gev(1, GevParams(ETA, TAU, 0.0)),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_matches_direct_evaluation(self, name):
        p, spec = self.CASES[name], QuadSpec()
        cov = covariance_model(p, p, spec)
        table = cov.table
        # lags off the nodes, from below SMALL_H to past the table's range
        lags = np.concatenate([[0.0, 1e-7, 1e-5], np.geomspace(1e-3, 30.0, 47)])
        direct = np.array([cov(h).value for h in lags])
        floor = 1e-6 * spec.rel_tol * table.variance
        assert table.variance == direct[0]
        np.testing.assert_array_less(
            np.abs(table(lags) - direct), spec.rel_tol * np.maximum(np.abs(direct), floor))
        assert table.worst_miss <= 0.1 * spec.rel_tol
        assert np.all(table(lags[lags >= table.edges[-1]]) == 0.0)

    def test_one_table_per_power_and_spec(self):
        p = PowerSpec.gev(1, GevParams(ETA, TAU, XI))
        assert covariance_model(p, p, QuadSpec()) is covariance_model(p, p, QuadSpec())
        assert covariance_model(p, p, QuadSpec()).table is covariance_model(p, p, QuadSpec()).table
        assert (covariance_model(p, p, QuadSpec()).table
                is not covariance_model(p, p, QuadSpec(rel_tol=1e-8)).table)

    def test_a_model_of_several_pairs_has_no_table(self):
        powers = tuple(PowerSpec.gev(b, GevParams(ETA, TAU, XI)) for b in (1, 2))
        with pytest.raises(DomainError, match="single pair"):
            dependence.CovModel(powers, powers, QuadSpec()).table

    def test_default_r2curves_builds_one_table(self, tmp_path, monkeypatch):
        from windrisk.cli import main

        evaluations = []
        original = dependence.CovModel.__call__

        def counted(cov, h):
            evaluations.extend(np.ravel(h))
            return original(cov, h)

        covariance_model.cache_clear()
        monkeypatch.setattr(dependence.CovModel, "__call__", counted)
        assert main(["r2curves", "--out", str(tmp_path / "r2.csv")]) == 0
        assert covariance_model.cache_info().misses == 1
        assert len(evaluations) <= 500

    def test_sign_change_fits_the_covariance_itself(self):
        # a covariance that turns negative at h = 3 (as a non-monotone cost
        # can): the pieces with a non-positive node fit cov, not log cov
        def synthetic(h):
            return 10.0 * np.exp(-np.square(h) / 8.0) * (1.0 - np.asarray(h) / 3.0)

        spec = QuadSpec()
        table = FakeCovModel(synthetic, spec).table
        assert table.log_fit.any() and not table.log_fit.all()
        lags = np.linspace(0.01, 23.99, 301)
        floor = 1e-6 * spec.rel_tol * 10.0
        np.testing.assert_array_less(
            np.abs(table(lags) - synthetic(lags)),
            spec.rel_tol * np.maximum(np.abs(synthetic(lags)), floor))

    def test_unfittable_covariance_diagnosed(self):
        # a jump no polynomial piece resolves: bisection gives up with the
        # direct value at the worst check point
        def jump(h):
            return np.exp(-np.square(h) / 8.0) * np.where(np.asarray(h) < 0.3, 2.0, 1.0)

        with pytest.raises(ConvergenceError) as err:
            FakeCovModel(jump).table
        assert err.value.best_estimate is not None and err.value.err_estimate > 0.0

    def test_range_doubles_until_the_covariance_has_decayed(self):
        spec = QuadSpec()
        table = FakeCovModel(lambda h: np.exp(-np.asarray(h) / 20.0), spec).table
        # exp(-h/20) <= 1e-6 rel_tol first at h = 24 * 2^5
        assert table.edges[-1] == 768.0
        lags = np.geomspace(1e-3, 767.0, 101)
        np.testing.assert_allclose(table(lags), np.exp(-lags / 20.0), rtol=spec.rel_tol)

    def test_plane_integral_ends_where_the_table_does(self, monkeypatch):
        # with psi = 2 and kappa = 1 the lag is the distance, and the table
        # of exp(-h/20) reaches 768: K = 2 pi int u exp(-u/20) du = 800 pi
        monkeypatch.setattr(risk, "covariance_model", lambda p1, p2, spec:
                            FakeCovModel(lambda h: np.exp(-np.asarray(h) / 20.0), spec))
        k_num = asymptotic_cov_integral(PowerSpec.simple(0.25), power(1.0, 2.0))
        assert k_num == pytest.approx(800.0 * math.pi, rel=3e-7)

    def test_undecayed_covariance_diagnosed(self):
        with pytest.raises(ConvergenceError) as err:
            FakeCovModel(lambda h: 1.0).table
        assert err.value.best_estimate == 1.0

    def test_r2_matches_an_integral_of_direct_values(self, paper_gev):
        p = PowerSpec.gev(1, paper_gev)
        v = power(1.0, 1.0)
        cov = dependence.CovModel(p, p, QuadSpec())

        def direct(h):
            return np.array([cov(x).value for x in np.ravel(h)]).reshape(np.shape(h))

        for lam in (0.5, 10.0):
            q = RiskQuery(region=disk(1.0), power=p, variogram=v)
            expected = integrate(
                lambda h: disk_distance_density(h, 1.0) * direct(np.sqrt(v.radial(lam * h))),
                0.0, 2.0, QuadSpec(rel_tol=1e-10)).value
            assert r2(q, lam) == pytest.approx(expected, rel=3e-7)


def _disk_density(u: float, R: float) -> float:
    t = u / R
    return 2.0 * t / R * (2.0 / math.pi * math.acos(t / 2.0)
                          - t / math.pi * math.sqrt(max(1.0 - t * t / 4.0, 0.0)))


def _square_density(u: float, R: float) -> float:
    t = u / R
    if t <= 1.0:
        return (2.0 * math.pi * t - 8.0 * t * t + 2.0 * t**3) / R
    b = t * t
    return 2.0 * t / R * (-2.0 - b + 4.0 * math.sqrt(b - 1.0) + 2.0 * math.asin((2.0 - b) / b))


def _table_at(table, h: float) -> float:
    """The covariance table at one lag, read from its pieces' coefficients."""
    if h < dependence.SMALL_H:
        return table.variance
    edges = table.edges.tolist()
    if h >= edges[-1]:
        return 0.0
    i = bisect.bisect_right(edges, h) - 1
    y = chebyshev.chebval((2.0 * h - edges[i] - edges[i + 1]) / (edges[i + 1] - edges[i]),
                          table.coefs[i])
    return math.exp(y) if table.log_fit[i] else float(y)


def _quad_pieces(f, edges) -> float:
    # QUADPACK's roundoff notice on a few pieces next to the square's R is
    # an aside at epsrel 1e-13: those values agree with the ladder to 1e-14
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return math.fsum(quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                         for lo, hi in zip(edges, edges[1:]))


class TestAgainstScipyQuad:
    """r2 and K within rel_tol of scipy's quad at epsrel 1e-13 over the same
    covariance table, split where the table's pieces meet (at distance
    s edge^(2/psi) / lam for r2) and at the square's R, with the distance
    densities written out in closed form."""

    LAMS = np.geomspace(0.1, 50.0, 25).tolist() + [100.0, 200.0]  # the CLI default and two more
    PSIS = (0.5, 1.0, 1.5, 2.0)

    @pytest.mark.parametrize("rel_tol", [3e-7, 1e-9])
    @pytest.mark.parametrize("shape", ["disk", "square"])
    def test_r2_curves(self, shape, rel_tol):
        spec = QuadSpec(rel_tol=rel_tol)
        region = disk(1.0) if shape == "disk" else square(1.0)
        density, h_max = ((_disk_density, 2.0) if shape == "disk" else
                          (_square_density, math.sqrt(2.0)))
        for beta in (1, 12):
            p = PowerSpec.gev(beta, GevParams(ETA, TAU, XI))
            table = covariance_model(p, p, spec).table
            got = r2_curves(region, p, [power(1.0, psi) for psi in self.PSIS], self.LAMS, spec)
            for i, psi in enumerate(self.PSIS):
                for j, lam in enumerate(self.LAMS):
                    u = table.edges ** (2.0 / psi) / lam
                    edges = sorted({0.0, h_max, *u[(u > 0.0) & (u < h_max)].tolist(),
                                    *([1.0] if shape == "square" else [])})
                    ref = _quad_pieces(
                        lambda x: density(x, 1.0) * _table_at(table, (lam * x) ** (psi / 2.0)),
                        edges)
                    assert got[i, j] == pytest.approx(ref, rel=rel_tol), (beta, psi, lam)

    @pytest.mark.parametrize("rel_tol", [3e-7, 1e-9])
    def test_asymptotic_cov_integral(self, rel_tol):
        spec = QuadSpec(rel_tol=rel_tol)
        for beta in (1, 12):
            p = PowerSpec.gev(beta, GevParams(ETA, TAU, XI))
            table = covariance_model(p, p, spec).table
            for psi in self.PSIS:
                ref = 2.0 * math.pi * (2.0 / psi) * _quad_pieces(
                    lambda h: h ** (4.0 / psi - 1.0) * _table_at(table, h), table.edges.tolist())
                assert asymptotic_cov_integral(p, power(1.0, psi), spec) == pytest.approx(
                    ref, rel=rel_tol), (beta, psi)


def test_risk_imports_no_private_name_of_dependence():
    # the covariance, its table and the rule below SMALL_H have one owner,
    # the dependence module's CovModel; risk reads them through it
    tree = ast.parse(Path(risk.__file__).read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "dependence"
                for alias in node.names]
    assert imported
    assert [name for name in imported if name.startswith("_") or name == "SMALL_H"] == []
    assert not any(isinstance(node, ast.Attribute) and node.attr.startswith("_")
                   and isinstance(node.value, ast.Name) and node.value.id == "dependence"
                   for node in ast.walk(tree))
