"""Shared fixtures and helpers for the windrisk test suite."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import exprel, log_ndtr

from windrisk import (DEFAULT_QUAD, DomainError, GevParams, PowerSpec, QuadSpec, Variogram,
                      dependence)

# parameters of the reference wind study
ETA, TAU, XI = 30.0, 3.0, -0.2


@pytest.fixture(scope="session")
def paper_gev() -> GevParams:
    return GevParams(ETA, TAU, XI)


@pytest.fixture(scope="session")
def paper_power(paper_gev) -> PowerSpec:
    return PowerSpec.gev(1, paper_gev)


def half_line_breakpoints(h: float) -> list:
    """Seeds of the adaptive subdivision of a half-line s > 0 at lag h > 0:
    the integrands live on scales ~1/h around s=0 plus the Phi transitions
    near s = h/2."""
    return sorted({bp for bp in (
        0.25 / h, 1.0 / h, 4.0 / h, 16.0 / h, 1.0, 2.0, h / 2.0, h / 2.0 + 8.0
    ) if bp > 0.0})


def half_line_integral(f, h: float, spec) -> float:
    """int_0^inf f(s) ds of a scalar integrand by scipy's quad, on the
    pieces between the half_line_breakpoints(h) and from the last one to
    inf, each to the rel_tol and abs_floor of spec: a rule apart from the
    library's ladders."""
    edges = [0.0] + half_line_breakpoints(h) + [math.inf]
    return math.fsum(quad(f, lo, hi, epsabs=spec.abs_floor, epsrel=spec.rel_tol, limit=200)[0]
                     for lo, hi in zip(edges, edges[1:]))


def g_simple_kernel(beta1: float, beta2: float, s, h: float):
    """The integrand of :func:`g_simple` over s of the ordered pair
    (beta1, beta2) at nodes s and lag h > 0; its values at s < 0 are those
    of (beta2, beta1) at -s."""
    sig = float(beta1) + float(beta2)
    w = h / 2.0 + s
    lphi_w, lphi_v = log_ndtr(w), log_ndtr(h / 2.0 - s)
    sh = s * h
    log_c1 = np.logaddexp(lphi_w, -sh + lphi_v)
    L1 = (math.lgamma(2.0 - sig) + math.log(h) + lphi_w + lphi_v + (beta2 - 1.0) * sh
          + (sig - 2.0) * log_c1)
    L2 = (math.lgamma(1.0 - sig) - 0.5 * w * w - 0.5 * math.log(2.0 * math.pi) + beta2 * sh
          + (sig - 1.0) * log_c1)
    return np.exp(L1) + np.exp(L2)


def g_simple(beta1: float, beta2: float, h: float, spec=DEFAULT_QUAD) -> float:
    """Pair function g = E[Z1^beta1 Z2^beta2] of a simple Brown-Resnick
    field at variogram-root lag h, from the display form

        g = int_0^inf theta^b2 [ C2 C1^(b1+b2-2) Gamma(2-b1-b2)
                               + C3 C1^(b1+b2-1) Gamma(1-b1-b2) ] dtheta,   h > 0:

    an oracle independent of the library's Hoeffding kernel and of its
    line-integral rule.  Since phi(V) = theta phi(W), its coefficients
    collapse to C2 = Phi(W) Phi(V) / theta^2 and C3 = phi(W) / (h theta),
    and theta = exp(s h) turns it into a line integral of a positive
    integrand whose logarithm is cheap and stable: the s > 0 half-lines of
    the ordered pairs (beta1, beta2) and (beta2, beta1), or of one counted
    twice when they are equal, each by :func:`half_line_integral`."""
    if not (beta1 < 0.5 and beta2 < 0.5):
        raise DomainError(f"second-moment condition requires beta < 1/2, got {beta1}, {beta2}")
    if h < 0.0:
        raise DomainError(f"h must be >= 0, got {h}")
    if h < dependence.SMALL_H:
        return math.gamma(1.0 - beta1 - beta2)
    halves = [half_line_integral(lambda s: g_simple_kernel(b1, b2, s, h), h, spec)
              for b1, b2 in ([(beta1, beta2)] if beta1 == beta2
                             else [(beta1, beta2), (beta2, beta1)])]
    return float(halves[0] + halves[-1])


# the oracle's inner rule: the trapezoid rule in t, y = sinh(t), at step
# 0.025 from y = -800 to 7, a quarter of the library's inner step
_ORACLE_T = 0.025 * np.arange(math.floor(-math.asinh(800.0) / 0.025),
                              math.ceil(math.asinh(7.0) / 0.025) + 1)
_ORACLE_Y = np.sinh(_ORACLE_T)
_ORACLE_LOG_W = np.log(0.025 * np.cosh(_ORACLE_T)) - np.exp(_ORACLE_Y)


def _log_z_derivative(p: PowerSpec, log_z):
    """(log |z f'(z)|, sign) of the cost f of p at z = exp(log_z)."""
    if p.is_simple:
        return math.log(abs(p.beta)) + p.beta * log_z, math.copysign(1.0, p.beta)
    m = p.margin
    with np.errstate(over="ignore"):
        z_gev = m.eta + m.tau * (log_z if m.xi == 0.0 else np.expm1(m.xi * log_z) / m.xi)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_abs_z = np.log(np.abs(z_gev))
        # past the double range z_gev = z^xi (tau/xi + (eta - tau/xi) z^-xi), xi > 0
        far = np.isinf(z_gev)
        if far.any():
            log_abs_z[far] = (m.xi * log_z + np.log(m.tau / m.xi + (m.eta - m.tau / m.xi)
                                                    * np.exp(-m.xi * log_z)))[far]
    log_abs = math.log(p.beta * m.tau) + (p.beta - 1) * log_abs_z + m.xi * log_z
    return log_abs, np.sign(z_gev) ** (p.beta - 1)


def cov_oracle(p1: PowerSpec, p2: PowerSpec, h: float, spec=QuadSpec(rel_tol=1e-11)) -> float:
    """Cov(f1(Z(x1)), f2(Z(x2))) of the costs of p1 and p2 at
    variogram-root lag h > 0 from Hoeffding's nested form

        cov = int ds h theta int dr r f1'(r) f2'(r theta) e^(-C1/r) (-expm1(-gap/r)),

    theta = e^(s h), with C1 and gap from scipy's log_ndtr, the inner
    integral in y = log(C1/r) by the trapezoid rule above (each node in log
    space below the node's largest term) and the outer over the s > 0
    half-lines of the ordered pairs (p1, p2) and (p2, p1), or of one
    counted twice when they are equal, each by
    :func:`half_line_integral`: positive integrands throughout, no
    derivative table and not the library's line-integral rule, so it is a
    reference where the table's sums cancel.  The integrand is divided by
    sqrt(Var1 Var2) and the result multiplied by it, so that the mapped
    integrand stays finite where the variance nears the double range."""
    if h < dependence.SMALL_H:
        raise DomainError(f"the oracle takes lags h >= {dependence.SMALL_H}, got {h}")
    scale = math.sqrt(dependence.var_gev(p1)) * math.sqrt(dependence.var_gev(p2)) or 1.0

    def kernel(q1, q2, s):
        sh = (s * h)[:, None]
        w, v = h / 2.0 + s[:, None], h / 2.0 - s[:, None]
        log_c1 = np.logaddexp(log_ndtr(w), log_ndtr(v) - sh)
        log_gap = np.logaddexp(log_ndtr(-w), log_ndtr(-v) - sh)
        log_z1 = log_c1 - _ORACLE_Y
        # -expm1(-x) = x exprel(-x), x = e^y gap/C1, with log x in the terms
        log_x = log_gap - log_c1 + _ORACLE_Y
        # r^2 theta f1'(r) f2'(r theta) = (z1 f1'(z1)) (z2 f2'(z2)), z1 = r, z2 = r theta
        log1, sign1 = _log_z_derivative(q1, log_z1)
        log2, sign2 = _log_z_derivative(q2, log_z1 + sh)
        terms = _ORACLE_LOG_W + log_x + log1 + log2
        top = terms.max(axis=1, keepdims=True)
        inner = (sign1 * sign2 * np.exp(terms - top) * exprel(-np.exp(log_x))).sum(axis=1)
        return h * np.exp(top[:, 0] - math.log(scale)) * inner

    halves = [half_line_integral(lambda s: kernel(q1, q2, np.array([s]))[0], h, spec)
              for q1, q2 in ([(p1, p2)] if p1 == p2 else [(p1, p2), (p2, p1)])]
    return float(halves[0] + halves[-1]) * scale


class RoughPast(Variogram):
    """power(1, 1) plus sin(1e5 d)^2 from distance 5 on: an r2 row whose
    lam A reaches that distance cannot converge, and the others can.
    Build it as ``RoughPast(kind="power")``."""

    def radial(self, h):
        h = np.asarray(h, dtype=float)
        return h + np.where(h > 5.0, np.sin(1e5 * h) ** 2, 0.0)


def covariance_with_se(x: np.ndarray, y: np.ndarray):
    """Sample covariance and the standard error of the estimate."""
    prod = (x - x.mean()) * (y - y.mean())
    n = len(x)
    cov = prod.mean() * n / (n - 1)
    return cov, prod.std(ddof=1) / np.sqrt(n)


def mean_with_se(x: np.ndarray):
    return float(np.mean(x)), float(np.std(x, ddof=1) / np.sqrt(len(x)))


def frechet_draws(rng, size):
    """Standard Frechet variates: inverse-cdf of exp(-1/z)."""
    return 1.0 / -np.log(rng.uniform(size=size))
