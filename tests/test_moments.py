"""The mean and variance of a cost at one site, by the one positive
quadrature rule of windrisk.dependence, against mpmath."""

import functools
import importlib.util
import math
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windrisk import (
    GevParams,
    PowerSpec,
    WindriskError,
    dep_measure,
    dep_measure_from_gamma,
    dependence,
    mean_cost,
    power,
    var_gev,
)

from conftest import ETA, TAU, XI

ROOT = Path(__file__).resolve().parent.parent


def exact_moments(p: PowerSpec):
    """(mean, variance) of the cost of ``p`` at one site, as mpmath numbers.

    Simple margins: Gamma(1 - beta) and Gamma(1 - 2 beta) - Gamma(1 - beta)^2.
    GEV margins, xi != 0: E (a + c Z^xi)^n = sum_j C(n, j) a^(n-j) c^j
    Gamma(1 - j xi), a = eta - c, c = tau/xi, in 250 digits, past its
    cancellation near xi = 0.  Gumbel margins: the cost is (eta + tau G)^beta
    with G = log Z standard Gumbel, whose raw moments follow from its
    cumulants gamma, then (n-1)! zeta(n)."""
    with mpmath.workdps(250):
        if p.is_simple:
            b = mpmath.mpf(p.beta)
            m1, m2 = mpmath.gamma(1 - b), mpmath.gamma(1 - 2 * b)
            return m1, m2 - m1**2
        n = int(p.beta)
        eta, tau, xi = (mpmath.mpf(x) for x in (p.margin.eta, p.margin.tau, p.margin.xi))
        if xi == 0:
            kappa = [None, +mpmath.euler] + [mpmath.factorial(k - 1) * mpmath.zeta(k)
                                            for k in range(2, 2 * n + 1)]
            g = [mpmath.mpf(1)]
            for k in range(1, 2 * n + 1):
                g.append(mpmath.fsum(mpmath.binomial(k - 1, i - 1) * kappa[i] * g[k - i]
                                     for i in range(1, k + 1)))

            def raw(m):
                return mpmath.fsum(mpmath.binomial(m, j) * eta ** (m - j) * tau**j * g[j]
                                   for j in range(m + 1))
        else:
            c = tau / xi
            a = eta - c

            def raw(m):
                return mpmath.fsum(mpmath.binomial(m, j) * a ** (m - j) * c**j
                                   * mpmath.gamma(1 - j * xi) for j in range(m + 1))
        m1 = raw(n)
        return m1, raw(2 * n) - m1**2


def assert_moments_match(p: PowerSpec, rel: float):
    mean, variance = exact_moments(p)
    assert abs(mean_cost(p) - mean) <= rel * abs(mean), p
    assert abs(var_gev(p) - variance) <= rel * abs(variance), p


# the cases the rule was first checked on: the paper margin, the
# cancelling cases (10, -0.043) and (11, -1.06e-4) of the binomial sums,
# heavy tails up to 2 beta xi = 0.9, Gumbel margins and simple margins
PROTOTYPE_CASES = (
    [PowerSpec.gev(b, GevParams(ETA, TAU, XI)) for b in (1, 6, 12, 40, 46)]
    + [PowerSpec.gev(b, GevParams(ETA, TAU, xi))
       for b, xi in ((10, -0.043), (11, -1.06e-4), (4, 0.1), (12, 0.0375), (1, 0.45))]
    + [PowerSpec.gev(b, GevParams(ETA, TAU, 0.0)) for b in (1, 6, 12)]
    + [PowerSpec.simple(b) for b in (-1.0, -0.5, -0.25, 0.05, 0.1, 0.2, 0.25, 0.3, 0.35,
                                     0.4, 0.45, 0.49, 0.499)]
)


@pytest.mark.parametrize("p", PROTOTYPE_CASES, ids=str)
def test_prototype_cases_match_mpmath(p):
    assert_moments_match(p, 1e-12)


@functools.cache
def query_specs():
    """Every PowerSpec of the benchmark's one-off queries (perfbench's
    draw_queries), seeds 1, 4711, 90210 and 7, passes 0-3."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    specs = set()
    for seed in (1, 4711, 90210, 7):
        for k in range(4):
            for name, args in workloads.draw_queries(seed, k, workloads.QUERIES_PER_PASS["full"]):
                specs.add(args[0] if isinstance(args[0], PowerSpec) else PowerSpec.simple(args[0]))
    return sorted(specs, key=lambda q: (q.is_simple, q.beta, q.margin and q.margin.xi))


def _stratum(p: PowerSpec):
    if p.is_simple:
        return "simple", p.beta > 0.3
    xi = p.margin.xi
    if xi == 0.0:
        return "gumbel", p.beta > 6
    if abs(xi) <= 0.05:
        return "small xi", p.beta > 6
    if xi < 0.0:
        return "negative xi", p.beta > 6
    return "heavy tail", min(int(2.0 * p.beta * xi / 0.3), 2)


def sampled_query_specs(per_stratum: int = 3):
    """``per_stratum`` specs, evenly spread, of each stratum of
    :func:`query_specs`: xi = 0, |xi| <= 0.05 and xi < -0.05 at beta <= 6
    and above, 2 beta xi in thirds of [0, 0.9] and simple margins below
    and above beta 0.3; with the smallest |xi| > 0, the largest 2 beta xi,
    the largest simple beta and the simple beta 0.49 beside them."""
    strata = {}
    for p in query_specs():
        strata.setdefault(_stratum(p), []).append(p)
    sample = []
    for members in strata.values():
        step = max(1, len(members) // per_stratum)
        sample += members[::step][:per_stratum]
    gev = [p for p in query_specs() if not p.is_simple]
    sample.append(min((p for p in gev if p.margin.xi != 0.0), key=lambda p: abs(p.margin.xi)))
    sample.append(max(gev, key=lambda p: p.beta * p.margin.xi))
    sample.append(max((p for p in query_specs() if p.is_simple), key=lambda p: p.beta))
    sample.append(PowerSpec.simple(0.49))
    return sample


def test_the_sample_covers_every_stratum():
    sample = sampled_query_specs()
    gev = [p for p in sample if not p.is_simple]
    assert len({_stratum(p) for p in sample}) == 11
    assert any(p.margin.xi == 0.0 for p in gev)
    assert any(0.0 < abs(p.margin.xi) < 0.0011 for p in gev)
    assert max(2.0 * p.beta * p.margin.xi for p in gev) > 0.89
    assert max(p.beta for p in sample if p.is_simple) == 0.49
    assert any(0.44 < p.beta < 0.46 for p in sample if p.is_simple)


@pytest.mark.parametrize("p", sampled_query_specs(), ids=str)
def test_query_specs_match_mpmath(p):
    assert_moments_match(p, 1e-12)


@settings(max_examples=200, deadline=None)
@given(beta=st.integers(1, 12), eta=st.floats(10.0, 50.0), tau=st.floats(0.5, 5.0),
       u=st.floats(0.0, 1.0, exclude_max=True), gumbel=st.booleans())
def test_gev_variance_is_finite_and_not_negative(beta, eta, tau, u, gumbel):
    # xi over [-0.45, 1/(2 beta)), the documented domain of the variance
    xi = 0.0 if gumbel else -0.45 + u * (0.5 / beta + 0.45)
    p = PowerSpec.gev(beta, GevParams(eta, tau, xi))
    variance = var_gev(p)
    assert math.isfinite(variance) and variance >= 0.0
    assert math.isfinite(mean_cost(p))


@settings(max_examples=200, deadline=None)
@given(beta=st.floats(-1.0, 0.5, exclude_max=True))
def test_simple_variance_is_finite_and_not_negative(beta):
    variance = var_gev(PowerSpec.simple(beta))
    assert math.isfinite(variance) and variance >= 0.0


def _outcome(op):
    try:
        return op()
    except WindriskError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("beta", [14, 20])
def test_an_integer_eta_computes_as_the_float_one(beta):
    # eta ** beta was a Python int past int64 from beta 14 on (eta 30)
    as_int, as_float = (PowerSpec.gev(beta, GevParams(eta, tau, XI))
                        for eta, tau in ((30, 3), (30.0, 3.0)))
    assert as_int == as_float
    assert isinstance(mean_cost(as_int), float) and isinstance(var_gev(as_int), float)
    v = power(1.0, 1.0)
    for op in (mean_cost, var_gev, lambda p: dep_measure(p, v, [0.0, 0.0], [0.7, 0.0])):
        outcomes = []
        for p in (as_int, as_float):
            dependence.covariance_model.cache_clear()  # each computes its own model
            outcomes.append(_outcome(lambda: op(p)))
        assert outcomes[0] == outcomes[1]


def _far_peak_moments(eta: float, tau: float, beta: int):
    """(mean, variance) of the cost (eta - tau y)^beta on Gumbel margins,
    y = -log Z, from mpmath quad of int (eta - tau y)^(k beta) e^(y - e^y) dy,
    each integrand scaled by its value at its peak near y = eta/tau - k beta
    and split at the peak and 100 and 300 on either side of it."""
    with mpmath.workdps(20):
        eta, tau = mpmath.mpf(eta), mpmath.mpf(tau)

        def raw(k):
            def log_term(y):
                return y - mpmath.exp(y) + k * beta * mpmath.log(eta - tau * y)

            peak = eta / tau - k * beta
            top = log_term(min(peak, 0))
            cuts = sorted(c for c in (peak + d for d in (-4000, -300, -100, 0, 100, 300)) if c < 0)
            return mpmath.quad(lambda y: mpmath.exp(log_term(y) - top), cuts + [0, 6]) \
                * mpmath.exp(top)

        mean = raw(1)
        return mean, raw(2) - mean**2


def test_moments_and_dependence_with_the_peak_past_the_rule_end():
    # Gumbel beta 1024 with tau/eta = 1e-3: the variance's terms peak near
    # y = eta/tau - 2 beta = -1048, left of the rule's usual end y = -800.
    # There the step 0.05 in t is about one width of the peak (0.043), so
    # the variance comes within 3.4e-7, not 1e-12
    p = PowerSpec.gev(1024, GevParams(1.0, 0.001, 0.0))
    mean, variance = _far_peak_moments(1.0, 0.001, 1024)
    assert abs(mean_cost(p) - mean) <= 1e-12 * mean
    assert abs(var_gev(p) - variance) <= 5e-7 * variance
    deps = [dep_measure_from_gamma(p, g) for g in (1e-5, 1e-3, 0.1, 1.0, 4.0, 25.0)]
    assert all(0.0 <= d <= 1.0 for d in deps)
    assert deps == sorted(deps, reverse=True)
