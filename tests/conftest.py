"""Shared fixtures and helpers for the windrisk test suite."""

import math

import numpy as np
import pytest
from scipy.special import log_ndtr

from windrisk import DEFAULT_QUAD, DomainError, GevParams, PowerSpec, Variogram, dependence, gamma

# parameters of the reference wind study
ETA, TAU, XI = 30.0, 3.0, -0.2


@pytest.fixture(scope="session")
def paper_gev() -> GevParams:
    return GevParams(ETA, TAU, XI)


@pytest.fixture(scope="session")
def paper_power(paper_gev) -> PowerSpec:
    return PowerSpec.gev(1, paper_gev)


def g_simple(beta1: float, beta2: float, h: float, spec=DEFAULT_QUAD) -> float:
    """Pair function g = E[Z1^beta1 Z2^beta2] of a simple Brown-Resnick
    field at variogram-root lag h, from the display form

        g = int_0^inf theta^b2 [ C2 C1^(b1+b2-2) Gamma(2-b1-b2)
                               + C3 C1^(b1+b2-1) Gamma(1-b1-b2) ] dtheta,   h > 0:

    an oracle independent of the library's Hoeffding kernel.  Since
    phi(V) = theta phi(W), its coefficients collapse to C2 = Phi(W) Phi(V) /
    theta^2 and C3 = phi(W) / (h theta), and theta = exp(s h) turns it into
    a line integral of a positive integrand whose logarithm is cheap and
    stable.  Its two ordered pairs, (beta1, beta2) and (beta2, beta1), or
    one counted twice when they are equal, are the components of one
    s > 0 row of the library's line-integral routine."""
    if not (beta1 < 0.5 and beta2 < 0.5):
        raise DomainError(f"second-moment condition requires beta < 1/2, got {beta1}, {beta2}")
    if h < 0.0:
        raise DomainError(f"h must be >= 0, got {h}")
    if h < dependence.SMALL_H:
        return gamma(1.0 - beta1 - beta2)
    sig = float(beta1) + float(beta2)
    lg2 = math.lgamma(2.0 - sig)
    lg1 = math.lgamma(1.0 - sig)
    b2 = np.array([beta2] if beta1 == beta2 else [beta2, beta1], dtype=float).reshape(-1, 1)

    def kernel(s, h):
        w = h / 2.0 + s
        lphi_w, lphi_v = log_ndtr(w), log_ndtr(h / 2.0 - s)
        sh = s * h
        log_c1 = np.logaddexp(lphi_w, -sh + lphi_v)
        L1 = lg2 + np.log(h) + lphi_w + lphi_v + (b2 - 1.0) * sh + (sig - 2.0) * log_c1
        L2 = lg1 - 0.5 * w * w - 0.5 * math.log(2.0 * math.pi) + b2 * sh + (sig - 1.0) * log_c1
        return np.exp(L1) + np.exp(L2)

    r = next(dependence._line_integrals(kernel, [h], spec, len(b2)))
    return float(r.value[0] + r.value[-1])


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
