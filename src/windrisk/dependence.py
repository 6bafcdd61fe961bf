"""Closed-form covariance and correlation of powers of Brown-Resnick fields.

The central object is the pair function

    g[b1,b2](h) = Gamma(1-b1-b2)                                   h = 0
                = int_0^inf  theta^b2 [ C2 C1^(b1+b2-2) Gamma(2-b1-b2)
                                      + C3 C1^(b1+b2-1) Gamma(1-b1-b2) ] dtheta,   h > 0

with, for theta, h > 0 and W = h/2 + log(theta)/h, V = h/2 - log(theta)/h,

    C1 = Phi(W) + Phi(V)/theta
    C2 = [Phi(W) + phi(W)/h - phi(V)/(h theta)]
         x [Phi(V)/theta^2 + phi(V)/(h theta^2) - phi(W)/(h theta)]
    C3 = V phi(W)/(h^2 theta) + W phi(V)/(h^2 theta^2).

Two exact identities make the integrand computable at any h without loss
of precision.  Since phi(V) = theta * phi(W), the C2 brackets collapse and
C3 telescopes:

    C2 = Phi(W) Phi(V) / theta^2,        C3 = phi(W) / (h theta).

Substituting theta = exp(s h) then turns the improper integral into two
half-line integrals of a strictly positive integrand whose logarithm is
cheap and stable:

    g = int_R  exp(L1(s)) + exp(L2(s)) ds
    L1 = log Gamma(2-b1-b2) + log h + log Phi(W) + log Phi(V)
         + (b2 - 1) s h + (b1 + b2 - 2) log C1
    L2 = log Gamma(1-b1-b2) + log phi(W) + b2 s h + (b1 + b2 - 1) log C1

with W = h/2 + s, V = h/2 - s and log C1 = logaddexp(log Phi(W),
-s h + log Phi(V)).  Covariances of powers with general GEV margins are
binomial mixtures of such pair functions; the mixture is integrated as a
single fused integrand so each distance costs one adaptive quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np
from scipy.special import gammaln, log_ndtr

from .errors import ConvergenceError, DomainError
from .numerics import (
    DEFAULT_QUAD,
    QuadSpec,
    gamma,
    integrate,
    norm_cdf,
    norm_pdf,
)
from .variogram import Variogram

__all__ = [
    "GevParams",
    "PowerSpec",
    "BivariateCoeffs",
    "bivariate_coeffs",
    "g_simple",
    "cov_simple",
    "var_simple",
    "b_coeff",
    "g_gev",
    "cov_gev",
    "var_gev",
    "first_moment",
    "dep_measure",
    "dep_measure_from_gamma",
    "cov_gev_xi_zero",
    "extremal_coefficient",
    "extremal_coefficient_radial",
]

# below this squared-variogram distance the h=0 branch is returned; the
# pair function is continuous at 0 and differs from its limit by O(h) there
SMALL_H = 1e-6

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_XI_EPS = 1e-4


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GevParams:
    """GEV margin triple: location eta, scale tau, shape xi.

    xi = 0 (Gumbel margins) is accepted; every closed-form operation then
    routes through a symmetric-epsilon limit in xi.
    """

    eta: float
    tau: float
    xi: float

    def __post_init__(self):
        if not self.tau > 0.0:
            raise DomainError(f"tau must be > 0, got {self.tau}")


@dataclass(frozen=True)
class PowerSpec:
    """Damage power together with the margin mode of the underlying field.

    GEV mode requires a positive integer power; simple (standard Frechet)
    margins accept any real power < 1, including negative values.
    """

    beta: float
    margin: Optional[GevParams] = None

    @classmethod
    def gev(cls, beta: int, params: GevParams) -> "PowerSpec":
        if beta != int(beta) or beta < 1:
            raise DomainError(f"GEV mode requires integer beta >= 1, got {beta}")
        return cls(beta=int(beta), margin=params)

    @classmethod
    def simple(cls, beta: float) -> "PowerSpec":
        if not beta < 1.0:
            raise DomainError(f"simple mode requires beta < 1, got {beta}")
        return cls(beta=float(beta), margin=None)

    @property
    def is_simple(self) -> bool:
        return self.margin is None


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


# ---------------------------------------------------------------------------
# fused pair-function quadrature
# ---------------------------------------------------------------------------

def _fused_pair_integral(weights, b1, b2, h, spec: QuadSpec) -> float:
    """Integral of sum_w weights[w] * pair_integrand(b1[w], b2[w]; h).

    weights may be signed; each elementary integrand is positive and is
    assembled in log space, so the quadrature is stable for any h > 0.
    """
    weights = np.asarray(weights, dtype=float)
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    sig = b1 + b2
    lg2 = gammaln(2.0 - sig)
    lg1 = gammaln(1.0 - sig)
    logh = math.log(h)

    def kernel(s):
        s = np.asarray(s, dtype=float)[None, :]
        w = h / 2.0 + s
        v = h / 2.0 - s
        lphi_w = log_ndtr(w)
        lphi_v = log_ndtr(v)
        log_c1 = np.logaddexp(lphi_w, -s * h + lphi_v)
        sh = s * h
        L1 = (lg2[:, None] + logh + lphi_w + lphi_v
              + (b2[:, None] - 1.0) * sh + (sig[:, None] - 2.0) * log_c1)
        L2 = (lg1[:, None] - 0.5 * w * w - _LOG_SQRT_2PI
              + b2[:, None] * sh + (sig[:, None] - 1.0) * log_c1)
        return weights @ (np.exp(L1) + np.exp(L2))

    # the integrand lives on scales ~1/h around s=0 plus the Phi
    # transitions near |s| = h/2
    bps = sorted({bp for bp in (
        0.25 / h, 1.0 / h, 4.0 / h, 16.0 / h, 1.0, 2.0, h / 2.0, h / 2.0 + 8.0
    ) if bp > 0.0})
    pos = integrate(kernel, 0.0, math.inf, spec, breakpoints=bps)
    neg = integrate(lambda s: kernel(-np.asarray(s)), 0.0, math.inf, spec, breakpoints=bps)
    return pos.value + neg.value


def g_simple(beta1: float, beta2: float, h: float, spec: QuadSpec = DEFAULT_QUAD) -> float:
    """Pair function of a simple Brown-Resnick field at variogram-root lag h."""
    if not (beta1 < 0.5 and beta2 < 0.5):
        raise DomainError(f"second-moment condition requires beta < 1/2, got {beta1}, {beta2}")
    if h < 0.0:
        raise DomainError(f"h must be >= 0, got {h}")
    if h < SMALL_H:
        return gamma(1.0 - beta1 - beta2)
    return _fused_pair_integral([1.0], [beta1], [beta2], h, spec)


def var_simple(beta: float) -> float:
    """Var((Z^(s))^beta) for standard Frechet margins, beta < 1/2."""
    if not beta < 0.5:
        raise DomainError(f"second-moment condition requires beta < 1/2, got {beta}")
    return gamma(1.0 - 2.0 * beta) - gamma(1.0 - beta) ** 2


def cov_simple(
    beta1: float,
    beta2: float,
    v: Variogram,
    x1,
    x2,
    spec: QuadSpec = DEFAULT_QUAD,
) -> float:
    """Cov(Z(x1)^beta1, Z(x2)^beta2) for a simple Brown-Resnick field."""
    return cov_gev(PowerSpec.simple(beta1), PowerSpec.simple(beta2), v, x1, x2, spec)


# ---------------------------------------------------------------------------
# GEV-margin machinery
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _margin_table(beta: float, eta: float, tau: float, xi: float):
    """One-dimensional mixture table (c_k, b_k) of a margin transform.

    Z^beta = sum_k c_k (Z^(s))^(b_k): the binomial expansion of the GEV
    transform for integer beta, or the single term (1, beta) for simple
    margins (encoded as xi = nan).
    """
    if math.isnan(xi):
        return np.array([1.0]), np.array([beta])
    ks = np.arange(int(beta) + 1)
    c = np.array([math.comb(int(beta), int(k)) for k in ks], dtype=float)
    c *= (eta - tau / xi) ** ks * (tau / xi) ** (int(beta) - ks)
    b = (int(beta) - ks) * xi
    return c, b


def _table(p: PowerSpec):
    if p.is_simple:
        return _margin_table(float(p.beta), 0.0, 1.0, float("nan"))
    m = p.margin
    return _margin_table(float(p.beta), m.eta, m.tau, m.xi)


def _require_second_moment(p: PowerSpec):
    if p.is_simple:
        if not p.beta < 0.5:
            raise DomainError(f"simple margins require beta < 1/2, got {p.beta}")
    else:
        if not p.beta * p.margin.xi < 0.5:
            raise DomainError(
                f"second-moment condition beta*xi < 1/2 violated: "
                f"beta={p.beta}, xi={p.margin.xi}"
            )


def _require_first_moment(p: PowerSpec):
    if p.is_simple:
        if not p.beta < 1.0:
            raise DomainError(f"simple margins require beta < 1, got {p.beta}")
    else:
        if not p.beta * p.margin.xi < 1.0:
            raise DomainError(
                f"first-moment condition beta*xi < 1 violated: "
                f"beta={p.beta}, xi={p.margin.xi}"
            )


def _has_zero_xi(p: PowerSpec) -> bool:
    return (not p.is_simple) and p.margin.xi == 0.0


def _with_xi(p: PowerSpec, xi: float) -> PowerSpec:
    return PowerSpec(beta=p.beta, margin=GevParams(p.margin.eta, p.margin.tau, xi))


def _xi_limit(fn, eps: float = _XI_EPS, rel_tol: float = 1e-2):
    """Richardson limit of fn(xi) as xi -> 0 from symmetric evaluations.

    Averaging fn(+e) and fn(-e) cancels the odd error term; a second level
    at 2e extrapolates the even term and yields an error estimate.
    """
    f1 = 0.5 * (fn(eps) + fn(-eps))
    f2 = 0.5 * (fn(2.0 * eps) + fn(-2.0 * eps))
    value = (4.0 * f1 - f2) / 3.0
    err = abs(f1 - f2) / 3.0
    if err > rel_tol * abs(value) + 1e-12:
        raise ConvergenceError(
            f"xi->0 extrapolation levels disagree: {f1!r} vs {f2!r}",
            best_estimate=value,
            err_estimate=err,
        )
    return value, err


def b_coeff(k1: int, k2: int, p: PowerSpec) -> float:
    """Binomial-product coefficient of the GEV covariance expansion."""
    if p.is_simple:
        raise DomainError("b_coeff is defined for GEV margins only")
    beta = int(p.beta)
    if not (0 <= k1 <= beta and 0 <= k2 <= beta):
        raise DomainError(f"indices must lie in [0, {beta}], got ({k1}, {k2})")
    m = p.margin
    if m.xi == 0.0:
        raise DomainError("b_coeff is undefined at xi = 0; use the xi->0 limit ops")
    return (
        math.comb(beta, k1)
        * math.comb(beta, k2)
        * (m.eta - m.tau / m.xi) ** (k1 + k2)
        * (m.tau / m.xi) ** (2 * beta - k1 - k2)
    )


def _pair_arrays(p1: PowerSpec, p2: PowerSpec):
    c1, b1 = _table(p1)
    c2, b2 = _table(p2)
    W = np.outer(c1, c2).ravel()
    B1 = np.repeat(b1, len(b2))
    B2 = np.tile(b2, len(b1))
    return W, B1, B2


def _cov_at(p1: PowerSpec, p2: PowerSpec, spec: QuadSpec):
    """Cov(Z(x1)^beta1, Z(x2)^beta2) as a function of the variogram-root lag
    h = sqrt(gamma(x2 - x1)).

    The binomial pair arrays and the moments are built once, so the returned
    function is the single place the covariance is evaluated: the closed-form
    variance below SMALL_H, the fused mixture minus the product of the means
    above it.  Gumbel margins route each value through the xi -> 0 limit.
    """
    if _has_zero_xi(p1) or _has_zero_xi(p2):
        def limit(h: float) -> float:
            def at(xi):
                q1 = _with_xi(p1, xi) if _has_zero_xi(p1) else p1
                q2 = _with_xi(p2, xi) if _has_zero_xi(p2) else p2
                return _cov_at(q1, q2, spec)(h)
            value, _ = _xi_limit(at)
            return value
        return limit

    W, B1, B2 = _pair_arrays(p1, p2)
    at_zero = float(np.sum(W * (np.exp(gammaln(1.0 - B1 - B2))
                                - np.exp(gammaln(1.0 - B1) + gammaln(1.0 - B2)))))
    mu2 = first_moment(p1) * first_moment(p2)

    def cov(h: float) -> float:
        if h < SMALL_H:
            return at_zero
        return _fused_pair_integral(W, B1, B2, h, spec) - mu2

    return cov


def g_gev(p: PowerSpec, h: float, spec: QuadSpec = DEFAULT_QUAD) -> float:
    """Binomial mixture of pair functions for equal GEV margins at both sites."""
    if p.is_simple:
        raise DomainError("g_gev requires GEV margins; use g_simple instead")
    _require_second_moment(p)
    if h < 0.0:
        raise DomainError(f"h must be >= 0, got {h}")
    if _has_zero_xi(p):
        value, _ = _xi_limit(lambda xi: g_gev(_with_xi(p, xi), h, spec))
        return value
    W, B1, B2 = _pair_arrays(p, p)
    if h < SMALL_H:
        return float(np.sum(W * np.exp(gammaln(1.0 - B1 - B2))))
    return _fused_pair_integral(W, B1, B2, h, spec)


def first_moment(p: PowerSpec) -> float:
    """E[Z(0)^beta] for either margin mode."""
    _require_first_moment(p)
    if p.is_simple:
        return gamma(1.0 - p.beta)
    if _has_zero_xi(p):
        value, _ = _xi_limit(lambda xi: first_moment(_with_xi(p, xi)))
        return value
    c, b = _table(p)
    return float(np.sum(c * np.exp(gammaln(1.0 - b))))


def var_gev(p: PowerSpec) -> float:
    """Var(Z(0)^beta): the covariance at lag 0, for either margin mode."""
    _require_second_moment(p)
    return _cov_at(p, p, DEFAULT_QUAD)(0.0)


def cov_gev(
    p1: PowerSpec,
    p2: PowerSpec,
    v: Variogram,
    x1,
    x2,
    spec: QuadSpec = DEFAULT_QUAD,
) -> float:
    """Cov(Z(x1)^beta1, Z(x2)^beta2) with per-site power and margin specs."""
    _require_second_moment(p1)
    _require_second_moment(p2)
    h = math.sqrt(v(np.asarray(x2, dtype=float) - np.asarray(x1, dtype=float)))
    return _cov_at(p1, p2, spec)(h)


def dep_measure(
    p: PowerSpec,
    v: Variogram,
    x1,
    x2,
    spec: QuadSpec = DEFAULT_QUAD,
) -> float:
    """Correlation of Z(x1)^beta and Z(x2)^beta; depends on the sites only
    through gamma_W(x2 - x1)."""
    return dep_measure_from_gamma(
        p, float(v(np.asarray(x2, dtype=float) - np.asarray(x1, dtype=float))), spec
    )


def dep_measure_from_gamma(
    p: PowerSpec, gamma_value: float, spec: QuadSpec = DEFAULT_QUAD
) -> float:
    """Radial convenience form of :func:`dep_measure` keyed by the variogram value."""
    if gamma_value < 0.0:
        raise DomainError(f"variogram value must be >= 0, got {gamma_value}")
    _require_second_moment(p)
    cov = _cov_at(p, p, spec)
    variance = cov(0.0)
    if not variance > 0.0:
        raise DomainError(f"degenerate power field (variance {variance}); beta=0?")
    return cov(math.sqrt(gamma_value)) / variance


def cov_gev_xi_zero(
    beta: int,
    eta: float,
    tau: float,
    v: Variogram,
    x1,
    x2,
    spec: QuadSpec = DEFAULT_QUAD,
    eps: float = _XI_EPS,
    return_err: bool = False,
):
    """Gumbel-margin (xi = 0) covariance via symmetric-epsilon extrapolation.

    Evaluates the closed-form covariance at xi = +-eps and +-2 eps and
    Richardson-extrapolates; raises ConvergenceError when the two levels
    disagree by more than 1% of the value.
    """
    if beta != int(beta) or beta < 1:
        raise DomainError(f"beta must be a positive integer, got {beta}")

    def at(xi):
        p = PowerSpec.gev(int(beta), GevParams(eta, tau, xi))
        return cov_gev(p, p, v, x1, x2, spec)

    value, err = _xi_limit(at, eps=eps)
    return (value, err) if return_err else value


def extremal_coefficient(v: Variogram, x1, x2) -> float:
    """Pairwise extremal coefficient 2 Phi(sqrt(gamma_W(x2 - x1)) / 2) in [1, 2]."""
    g = float(v(np.asarray(x2, dtype=float) - np.asarray(x1, dtype=float)))
    return 2.0 * norm_cdf(math.sqrt(g) / 2.0)


def extremal_coefficient_radial(v: Variogram, h: float) -> float:
    """Radial extremal coefficient for isotropic variograms."""
    return 2.0 * norm_cdf(math.sqrt(v.radial(h)) / 2.0)
