"""Special functions and the adaptive quadrature engine."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import exprel as scipy_exprel

from windrisk import (
    CancelledError,
    ConvergenceError,
    DomainError,
    QuadSpec,
    gamma,
    integrate,
    integrate_rows,
    norm_cdf,
    norm_pdf,
    norm_quantile,
    std_normal,
)
from windrisk.numerics import _panel_estimates, exprel

# Frozen from the composite-Simpson oracle on the Gamma(2.2) integrand
# (int_0^80 x^1.2 exp(-x) dx, 200k panels), divided by 1.2 via the
# recurrence Gamma(2.2) = 1.2 Gamma(1.2).  Oracle self-convergence 2.4e-10.
GAMMA_1_2_SIMPSON = 0.9181687427027401

# Frozen from 80-step bisection of the erfc-based cdf at level 0.95.
QUANTILE_95_BISECT = 1.6448536269514715


def simpson_gamma_2_2(L=80.0, n=200_000):
    """The oracle itself, kept runnable: Simpson on the Gamma(2.2) integrand."""
    x = np.linspace(0.0, L, n + 1)
    f = np.where(x > 0, x**1.2 * np.exp(-x), 0.0)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (L / n) / 3.0 * float(w @ f)


class TestGamma:
    def test_at_one(self):
        assert gamma(1.0) == 1.0

    def test_half_is_sqrt_pi(self):
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_against_simpson_oracle(self):
        assert gamma(1.2) == pytest.approx(GAMMA_1_2_SIMPSON, rel=1e-8)

    def test_oracle_reproduces_frozen_value(self):
        assert simpson_gamma_2_2(n=20_000) / 1.2 == pytest.approx(
            GAMMA_1_2_SIMPSON, rel=1e-7
        )

    def test_negative_noninteger(self):
        # reflection: Gamma(-0.5) = -2 sqrt(pi)
        assert gamma(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-13)

    @pytest.mark.parametrize("x", [0.0, -1.0, -7.0])
    def test_poles_raise(self, x):
        with pytest.raises(DomainError):
            gamma(x)

    def test_recurrence_on_grid(self):
        xs = np.linspace(0.05, 20.0, 100)
        for x in xs:
            lhs = gamma(x + 1.0)
            assert abs(lhs - x * gamma(x)) / lhs <= 1e-11


class TestStdNormal:
    def test_cdf_center(self):
        assert norm_cdf(0.0) == 0.5

    def test_pdf_center(self):
        assert norm_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-14)

    def test_quantile_against_bisection_oracle(self):
        assert norm_quantile(0.95) == pytest.approx(QUANTILE_95_BISECT, abs=1e-10)

    def test_quantile_domain(self):
        for bad in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(DomainError):
                norm_quantile(bad)

    def test_cdf_monotone(self):
        xs = np.linspace(-9.0, 9.0, 400)
        vals = [norm_cdf(x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_roundtrip(self):
        for alpha in np.arange(0.01, 1.0, 0.01):
            assert norm_cdf(norm_quantile(alpha)) == pytest.approx(alpha, abs=1e-9)

    def test_dispatcher(self):
        assert std_normal("cdf", 0.0) == 0.5
        assert std_normal("pdf", 0.0) == norm_pdf(0.0)
        assert std_normal("quantile", 0.5) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(DomainError):
            std_normal("density", 0.0)


# ten analytically known integrals: (f, a, b, exact)
KNOWN_INTEGRALS = [
    (lambda x: np.exp(-x), 0.0, math.inf, 1.0),
    (lambda x: np.exp(-0.5 * x * x), 0.0, math.inf, math.sqrt(math.pi / 2.0)),
    (lambda x: x ** (-0.5) * np.exp(-x), 0.0, math.inf, math.gamma(0.5)),
    (lambda x: x * x * np.exp(-x), 0.0, math.inf, 2.0),
    (lambda x: np.exp(-3.0 * x), 0.0, math.inf, 1.0 / 3.0),
    (lambda x: x**5, -1.0, 2.0, (2.0**6 - 1.0) / 6.0),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
    (lambda x: np.sqrt(x), 0.0, 1.0, 2.0 / 3.0),
    (lambda x: np.exp(x), 0.0, 2.0, math.e**2 - 1.0),
    (lambda x: x * np.exp(-0.5 * x * x), 0.0, math.inf, 1.0),
]


class TestIntegrate:
    @pytest.mark.parametrize("case", range(len(KNOWN_INTEGRALS)))
    def test_known_integrals(self, case):
        f, a, b, exact = KNOWN_INTEGRALS[case]
        spec = QuadSpec()
        res = integrate(f, a, b, spec)
        assert res.value == pytest.approx(exact, rel=spec.rel_tol * 3.0)
        assert res.err_estimate <= spec.rel_tol * abs(res.value) + spec.abs_floor

    def test_gamma_cross_check(self):
        res = integrate(lambda x: x ** (-0.5) * np.exp(-x), 0.0, math.inf)
        assert res.value == pytest.approx(gamma(0.5), rel=1e-6)

    def test_log_map(self):
        spec = QuadSpec(infinite_map="log")
        res = integrate(lambda x: np.exp(-x), 0.0, math.inf, spec)
        assert res.value == pytest.approx(1.0, rel=1e-6)

    def test_breakpoints_catch_narrow_peak(self):
        # a spike at x = 7 of width 1e-3 is invisible to the initial panels;
        # a ladder of breakpoints bracketing its scales pins it down
        spike = lambda x: np.exp(-0.5 * ((x - 7.0) / 1e-3) ** 2)
        exact = math.sqrt(2.0 * math.pi) * 1e-3
        ladder = [7.0 + s * w for w in (1e-3, 4e-3, 1.6e-2, 6.4e-2) for s in (-1, 1)]
        res = integrate(spike, 0.0, math.inf, breakpoints=sorted(ladder + [7.0]))
        assert res.value == pytest.approx(exact, rel=1e-5)

    def test_subdivision_budget_error(self):
        spec = QuadSpec(max_subdivisions=2, rel_tol=1e-12)
        with pytest.raises(ConvergenceError) as err:
            integrate(lambda x: x ** (-0.5) * np.exp(-x), 0.0, math.inf, spec)
        assert err.value.best_estimate == pytest.approx(gamma(0.5), rel=0.1)

    def test_zero_integral_absolute_mode(self):
        # int_0^inf (1 - x) e^-x dx = 0: relative tolerance can never be met
        res = integrate(lambda x: (1.0 - x) * np.exp(-x), 0.0, math.inf)
        assert abs(res.value) < 1e-12
        assert res.absolute_mode

    def test_cancellation_token(self):
        spec = QuadSpec(rel_tol=1e-13, should_cancel=lambda: True)
        with pytest.raises(CancelledError):
            integrate(lambda x: x ** (-0.5) * np.exp(-x), 0.0, math.inf, spec)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, 1.0, 1.0)
        with pytest.raises(DomainError):
            integrate(lambda x: x, -math.inf, 1.0)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            QuadSpec(rel_tol=0.0)
        with pytest.raises(DomainError):
            QuadSpec(max_subdivisions=0)
        with pytest.raises(DomainError):
            QuadSpec(infinite_map="sinh")

    def test_nonfinite_integrand_rejected(self):
        with pytest.raises(DomainError):
            integrate(lambda x: np.where(x > 0.5, np.inf, 1.0), 0.0, 1.0)

    def test_divergent_integral_exhausts_budget(self):
        # 1/x is finite at every interior node but not integrable
        with pytest.raises(ConvergenceError):
            integrate(lambda x: 1.0 / x, 0.0, 1.0)


class TestIntegrateRows:
    """Many integrands in one adaptive loop: each row's result is the one
    :func:`integrate` gives it alone."""

    # rows of one domain with different shapes: smooth, peaked, singular
    ROWS = [
        (lambda x: np.exp(-x), ()),
        (lambda x: x ** (-0.5) * np.exp(-x), (0.5, 2.0)),
        (lambda x: np.exp(-0.5 * ((x - 7.0) / 0.05) ** 2), (6.9, 7.0, 7.1)),
        (lambda x: (1.0 - x) * np.exp(-x), (1.0,)),
    ]

    def _rows(self, spec=QuadSpec()):
        def f(x, row):
            out = np.empty_like(x)
            for r, (g, _) in enumerate(self.ROWS):
                out[row == r] = g(x[row == r])
            return out

        return integrate_rows(f, 0.0, math.inf, [bps for _, bps in self.ROWS], spec)

    def test_each_row_equals_its_own_integral(self):
        alone = [integrate(g, 0.0, math.inf, breakpoints=bps) for g, bps in self.ROWS]
        assert self._rows() == alone
        assert alone[3].absolute_mode and not alone[0].absolute_mode

    def test_one_call_per_wave_with_the_row_of_each_abscissa(self):
        seen = []

        def f(x, row):
            seen.append(np.unique(row).tolist())
            return np.exp(-(row + 1.0) * x)

        res = integrate_rows(f, 0.0, math.inf, [(), (1.0,), (0.5, 3.0)])
        assert seen[0] == [0, 1, 2]
        assert [r.value for r in res] == pytest.approx([1.0, 0.5, 1.0 / 3.0], rel=1e-6)

    def test_rows_after_the_first_failure_are_dropped(self):
        # rows 1 and 3 diverge: row 1 reports the error it raises alone, the
        # rows before it converge, and the rows after it are dropped
        def f(x, row):
            return np.where(row % 2 == 1, 1.0 / x, np.exp(-x))

        with pytest.raises(ConvergenceError) as alone:
            integrate(lambda x: 1.0 / x, 0.0, 1.0, breakpoints=(0.5,))
        res = integrate_rows(f, 0.0, 1.0, [(), (0.5,), (), (0.25,)])
        assert res[0] == integrate(lambda x: np.exp(-x), 0.0, 1.0)
        assert isinstance(res[1], ConvergenceError)
        assert str(res[1]) == str(alone.value)
        assert res[1].best_estimate == alone.value.best_estimate
        assert res[2:] == [None, None]

    def test_non_finite_row_is_a_domain_error(self):
        def f(x, row):
            return np.where((row == 1) & (x > 0.5), np.inf, 1.0)

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # its panels' inf - inf stays out of the estimates
            res = integrate_rows(f, 0.0, 1.0, [(), ()])
        assert res[0].value == pytest.approx(1.0) and isinstance(res[1], DomainError)

    def test_no_rows(self):
        assert integrate_rows(lambda x, row: x, 0.0, 1.0, []) == []


class TestPanelEstimates:
    """Each panel's Kronrod value and error come from its own 15 values
    alone, whatever the batch around it."""

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    @pytest.mark.parametrize("n_panels", [1, 2, 7, 8, 9, 1000])
    def test_batch_equals_each_panel_alone(self, n_panels, scale):
        rng = np.random.default_rng(n_panels)
        fvals = scale * rng.normal(size=(n_panels, 15)) * rng.uniform(0.5, 2.0, size=(n_panels, 1))
        half_widths = rng.uniform(0.1, 1.0, size=n_panels)
        values, errors = _panel_estimates(fvals, half_widths)
        alone = [_panel_estimates(fvals[i:i + 1], half_widths[i:i + 1]) for i in range(n_panels)]
        assert values.tolist() == [v[0] for v, _ in alone]
        assert errors.tolist() == [e[0] for _, e in alone]


class TestExprel:
    def test_values_where_the_quotient_is_not_a_number_match_scipy(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 709.8, 717.0, 718.0, 1e300,
                      -1e300, 1e-17, -1e-17, 5e-324])
        np.testing.assert_array_equal(exprel(x), scipy_exprel(x))

    def test_matches_scipy_to_rounding(self):
        x = np.random.default_rng(5).normal(scale=3.0, size=10_000)
        np.testing.assert_allclose(exprel(x), scipy_exprel(x), rtol=4e-16, atol=0.0)

    def test_scalar_and_empty_inputs(self):
        assert exprel(0.0) == 1.0 and exprel(1.0) == pytest.approx(math.e - 1.0, rel=1e-15)
        assert exprel(np.array([])).shape == (0,)
