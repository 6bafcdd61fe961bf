"""Special functions and the tanh-sinh quadrature."""

import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import exprel as scipy_exprel
from scipy.special import ndtri

from windrisk import (
    ConvergenceError,
    DomainError,
    QuadSpec,
    integrate,
    integrate_rows,
    norm_cdf,
    norm_pdf,
    norm_quantile,
)
from windrisk.numerics import (
    _LADDER,
    exprel,
    gamma_values,
    scaled_normal_tail,
)

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


def gamma(x: float) -> float:
    """Gamma at one argument by the library's gamma_values."""
    return float(gamma_values(x))


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

    def test_quantile_matches_scipy_ndtri(self):
        p = np.concatenate([np.logspace(-300.0, -1.0, 3001), np.linspace(0.01, 0.99, 9801),
                            1.0 - np.logspace(-16.0, -1.0, 1501)])
        q = np.array([norm_quantile(v) for v in p.tolist()])
        np.testing.assert_allclose(q, ndtri(p), rtol=1e-15, atol=0.0)


# ten analytically known integrals over finite domains, four with an
# integrable singularity or a square-root end: (f, a, b, exact)
KNOWN_INTEGRALS = [
    (lambda x: x**5, -1.0, 2.0, (2.0**6 - 1.0) / 6.0),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
    (lambda x: np.sqrt(x), 0.0, 1.0, 2.0 / 3.0),
    (lambda x: np.exp(x), 0.0, 2.0, math.e**2 - 1.0),
    (lambda x: x ** (-0.5), 0.0, 1.0, 2.0),
    (lambda x: np.log(x), 0.0, 1.0, -1.0),
    (lambda x: (1.0 - x) ** (-0.5), 0.0, 1.0, 2.0),
    (lambda x: x ** (-0.5) * np.exp(-x), 0.0, 1.0, math.sqrt(math.pi) * math.erf(1.0)),
    (lambda x: np.sqrt(1.0 - x * x), -1.0, 1.0, math.pi / 2.0),
    (lambda x: np.exp(-0.5 * x * x), 0.0, 10.0,
     math.sqrt(math.pi / 2.0) * math.erf(10.0 / math.sqrt(2.0))),
]


def noisy(x):
    """e^-x with a relative wobble of 1e-9 that no level resolves: rounding
    noise, as far as a tolerance of 1e-12 can tell."""
    return np.exp(-x) * (1.0 + 1e-9 * np.sin(1e9 * x))


class TestIntegrate:
    @pytest.mark.parametrize("case", range(len(KNOWN_INTEGRALS)))
    def test_known_integrals(self, case):
        f, a, b, exact = KNOWN_INTEGRALS[case]
        spec = QuadSpec()
        res = integrate(f, a, b, spec)
        assert res.value == pytest.approx(exact, rel=spec.rel_tol * 3.0)
        assert res.err_estimate <= spec.rel_tol * abs(res.value) + spec.abs_floor

    def test_breakpoints_catch_narrow_peak(self):
        # a spike at x = 7 of width 1e-3 is invisible to the nodes of [0, 20];
        # a ladder of breakpoints bracketing its scales pins it down
        spike = lambda x: np.exp(-0.5 * ((x - 7.0) / 1e-3) ** 2)
        exact = math.sqrt(2.0 * math.pi) * 1e-3
        ladder = [7.0 + s * w for w in (1e-3, 4e-3, 1.6e-2, 6.4e-2) for s in (-1, 1)]
        res = integrate(spike, 0.0, 20.0, breakpoints=sorted(ladder + [7.0]))
        assert res.value == pytest.approx(exact, rel=1e-5)

    def test_a_miss_at_the_last_step_carries_its_estimates(self):
        # a relative wobble of 1e-9 can never meet rel_tol 1e-12: the row
        # still misses at step 1/128 and reports its last value and change
        with pytest.raises(ConvergenceError, match="did not converge by step 1/128") as err:
            integrate(noisy, 0.0, 20.0, QuadSpec(rel_tol=1e-12))
        best, err_estimate = err.value.best_estimate, err.value.err_estimate
        assert str(err.value).endswith(f"(best {best!r}, err {err_estimate!r})")
        assert best == pytest.approx(1.0 - math.exp(-20.0), rel=1e-8)
        assert err_estimate > 1e-12 * best

    def test_zero_integral_absolute_mode(self):
        # int_0^50 (1 - x) e^-x dx = 50 e^-50: relative tolerance can never be met
        res = integrate(lambda x: (1.0 - x) * np.exp(-x), 0.0, 50.0)
        assert abs(res.value) < 1e-12
        assert res.absolute_mode

    def test_domain_errors(self):
        for a, b in ((1.0, 1.0), (1.0, 0.0), (-math.inf, 1.0), (0.0, math.inf),
                     (0.0, math.nan)):
            with pytest.raises(DomainError):
                integrate(lambda x: x, a, b)

    def test_spec_validation(self):
        assert [field.name for field in dataclasses.fields(QuadSpec)] == ["rel_tol", "abs_floor"]
        with pytest.raises(DomainError):
            QuadSpec(rel_tol=0.0)
        for rel_tol in (math.inf, math.nan):
            with pytest.raises(DomainError, match="rel_tol"):
                QuadSpec(rel_tol=rel_tol)
        for abs_floor in (-1e-12, math.nan):
            with pytest.raises(DomainError, match="abs_floor"):
                QuadSpec(abs_floor=abs_floor)
        assert QuadSpec(abs_floor=0.0).abs_floor == 0.0

    def test_nonfinite_integrand_rejected(self):
        with pytest.raises(DomainError):
            integrate(lambda x: np.where(x > 0.5, np.inf, 1.0), 0.0, 1.0)

    def test_divergent_integral_misses_at_the_last_step(self):
        # 1/x is finite at every node, which never sits on an end, but not integrable
        with pytest.raises(ConvergenceError):
            integrate(lambda x: 1.0 / x, 0.0, 1.0)

    def test_each_level_adds_the_odd_nodes_of_its_step(self):
        assert [len(offset) for _, offset, _ in _LADDER] == [13, 12, 24, 48, 96, 192, 384]
        # |offset| = 2 / (1 + e^(-+2u)) from the near end, u = (pi/2) sinh t
        left, offset = (np.concatenate(part) for part in zip(*[lv[:2] for lv in _LADDER]))
        u = np.where(left, -0.5, 0.5) * np.log(2.0 / np.abs(offset) - 1.0)
        t = np.sort(np.arcsinh(u / (0.5 * math.pi)))
        np.testing.assert_allclose(t, np.linspace(-3.0, 3.0, 769), rtol=0.0, atol=1e-12)
        x = np.where(left, 0.0, 2.0) + offset
        assert 0.0 < x.min() and x.max() < 2.0  # no node on an end


class TestIntegrateRows:
    """Many integrands in one ladder: each row's result is the one
    :func:`integrate` gives it alone."""

    # rows of one domain with different shapes: smooth, singular, peaked, zero
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

        return integrate_rows(f, 0.0, 50.0, [bps for _, bps in self.ROWS], spec)

    def test_each_row_equals_its_own_integral(self):
        alone = [integrate(g, 0.0, 50.0, breakpoints=bps) for g, bps in self.ROWS]
        assert self._rows() == alone
        assert alone[3].absolute_mode and not alone[0].absolute_mode

    def test_one_call_per_level_with_the_row_of_each_abscissa(self):
        seen = []

        def f(x, row):
            seen.append((len(x), np.unique(row).tolist()))
            return np.exp(-(row + 1.0) * x)

        res = integrate_rows(f, 0.0, 40.0, [(), (1.0,), (0.5, 3.0)])
        # 1 + 2 + 3 pieces of 13 nodes, then of the 12 odd nodes of step 1/4
        assert seen[:2] == [(6 * 13, [0, 1, 2]), (6 * 12, [0, 1, 2])]
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

    def test_a_row_that_misses_fails_as_alone(self):
        # smooth rows beside a noisy one keep the results they get alone, the
        # noisy row raises its own error at step 1/128, and the row after it
        # is dropped
        smooth = [(lambda x: np.exp(-x), ()), (lambda x: np.exp(-0.5 * x * x), (1.0,)),
                  (lambda x: x * x * np.exp(-x), (2.0, 5.0))]
        rows = smooth + [(noisy, (0.5,)), smooth[0]]
        spec = QuadSpec(rel_tol=1e-12)

        def f(x, row):
            out = np.empty_like(x)
            for r, (g, _) in enumerate(rows):
                out[row == r] = g(x[row == r])
            return out

        with pytest.raises(ConvergenceError, match="did not converge by step 1/128") as alone:
            integrate(noisy, 0.0, 20.0, spec, breakpoints=(0.5,))
        res = integrate_rows(f, 0.0, 20.0, [bps for _, bps in rows], spec)
        assert res[:3] == [integrate(g, 0.0, 20.0, spec, bps) for g, bps in smooth]
        assert isinstance(res[3], ConvergenceError)
        assert str(res[3]) == str(alone.value)
        assert res[3].best_estimate == alone.value.best_estimate
        assert res[3].err_estimate == alone.value.err_estimate
        assert res[4] is None

    def test_non_finite_row_is_a_domain_error(self):
        def f(x, row):
            return np.where((row == 1) & (x > 0.5), np.inf, 1.0)

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # its pieces' inf - inf raises no warning
            res = integrate_rows(f, 0.0, 1.0, [(), ()])
        assert res[0].value == pytest.approx(1.0) and isinstance(res[1], DomainError)

    def test_no_rows(self):
        assert integrate_rows(lambda x, row: x, 0.0, 1.0, []) == []

    def test_breakpoints_outside_the_open_domain_are_dropped(self):
        # the ends, points outside [a, b], repeats, inf and NaN split nothing
        f = lambda x, row: np.exp(-x) * np.sqrt(x)
        res = integrate_rows(f, 0.0, 2.0, [(0.5,), (-1.0, 0.0, 0.5, 0.5, 2.0, 3.0, math.inf,
                                                   math.nan)])
        assert res[0] == res[1]


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


def _scaled_normal_tail_120_bits(a: float) -> float:
    with mpmath.workprec(120):
        a = mpmath.mpf(a)
        if a > 1e6:  # the asymptotic series, to 15/a^6
            return float((1 - 1 / a**2 + 3 / a**4) / (a * mpmath.sqrt(2 * mpmath.pi)))
        return float(mpmath.erfc(a / mpmath.sqrt(2)) / 2 * mpmath.exp(a**2 / 2))


class TestScaledNormalTail:
    def test_matches_120_bit_values(self):
        a = np.concatenate([np.linspace(0.0, 40.0, 4001), np.logspace(-20.0, 300.0, 321)])
        ref = np.array([_scaled_normal_tail_120_bits(v) for v in a.tolist()])
        np.testing.assert_allclose(scaled_normal_tail(a), ref, rtol=3 * np.finfo(float).eps,
                                   atol=0.0)

    def test_limits(self):
        got = scaled_normal_tail(np.array([0.0, np.inf, np.nan]))
        assert got[0] == pytest.approx(0.5, rel=1e-16) and got[1] == 0.0 and np.isnan(got[2])

    def test_scalars_and_shapes(self):
        a = np.array([[0.0, 2.0], [30.0, np.inf]])
        got = scaled_normal_tail(a)
        assert got.shape == (2, 2)
        for x, value in zip(a.ravel().tolist(), got.ravel().tolist()):
            assert scaled_normal_tail(x).shape == ()
            assert scaled_normal_tail(x) == value
            assert scaled_normal_tail(np.float64(x)) == value
        assert scaled_normal_tail(np.array([])).shape == (0,)


def _table_arguments():
    """The arguments 1 - b and 1 - b - c that the covariance kernel's Gamma
    sees: GEV tables b = (beta - k) xi and simple margins b = beta."""
    exponents = []
    for beta in range(1, 13):
        for xi in np.linspace(-0.45, 0.45 / beta, 61).tolist():
            exponents.append(np.array([(beta - k) * xi for k in range(beta)]))
    exponents += [np.array([b]) for b in np.linspace(-1.0, 0.45, 146).tolist()]
    singles = np.unique(np.concatenate([1.0 - b for b in exponents]))
    pairs = np.unique(np.concatenate([(1.0 - np.add.outer(b, b)).ravel() for b in exponents]))
    return singles, pairs


class TestGammaAndDigamma:
    def test_gamma_values_is_math_gamma_of_each_argument(self):
        singles, pairs = _table_arguments()
        x = np.concatenate([singles, pairs])
        np.testing.assert_array_equal(gamma_values(x), [math.gamma(v) for v in x.tolist()])
        # math.gamma is off by up to 1.03e-15 (5 ulps) on these arguments,
        # scipy's gamma by up to 5.9e-16
        with mpmath.workdps(50):
            ref = np.array([float(mpmath.gamma(mpmath.mpf(v))) for v in x.tolist()])
        np.testing.assert_allclose(gamma_values(x), ref, rtol=1.5e-15, atol=0.0)

    def test_gamma_values_shape_and_overflow(self):
        x = np.array([[0.5, 2.0], [0.5, 200.0]])
        got = gamma_values(x)
        assert got.shape == (2, 2)
        np.testing.assert_array_equal(got, [[math.sqrt(math.pi), 1.0], [math.sqrt(math.pi), np.inf]])


class TestNumpyOnlyRuntime:
    @pytest.mark.parametrize("code", [
        "import windrisk",
        "import runpy\nsys.argv = ['windrisk', '--help']\ntry:\n"
        "    runpy.run_module('windrisk.cli', run_name='__main__')\nexcept SystemExit:\n    pass",
    ], ids=["import", "cli-help"])
    def test_scipy_is_not_loaded(self, code):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        script = ("import sys\n" + code + "\n"
                  "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
                  "assert not loaded, loaded\n")
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
