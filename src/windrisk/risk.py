"""Spatial risk measures of the normalized aggregated loss.

For a region A (disk or square) dilated by lambda and a cost field
C = Z^beta, the variance of the normalized loss reduces to a single
one-dimensional integral of the pair function against the distance
density of A:

    R2(lambda A) = int f(h, R) g(sqrt(gamma_u(lambda h))) dh  -  mu^2,

where mu is the stationary mean of C.  As lambda grows, R2 decays like
K2 / lambda^2 with K2 = (integral of the stationary covariance over the
plane) / area(A); VaR and ES of the loss decay towards mu like 1/lambda
with Gaussian coefficients, which is what the asymptotic closed forms
below implement.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .dependence import (
    PowerSpec,
    _cov_at,
    _has_zero_xi,
    _require_second_moment,
    _with_xi,
    _xi_limit,
    first_moment,
    var_gev,
)
from .errors import ConvergenceError, DomainError, UnsupportedVariogramError
from .geometry import Region, disk_distance_density, square_distance_density
from .numerics import DEFAULT_QUAD, QuadSpec, integrate, norm_pdf, norm_quantile
from .variogram import Variogram

__all__ = [
    "RiskQuery",
    "CltApprox",
    "mean_cost",
    "r2",
    "asymptotic_cov_integral",
    "clt_approx",
    "var_asymptotic",
    "es_asymptotic",
]


@dataclass(frozen=True)
class RiskQuery:
    """Bundle of the ingredients shared by the risk operations."""

    region: Region
    power: PowerSpec
    variogram: Variogram
    quad: QuadSpec = DEFAULT_QUAD
    alpha: float = 0.95

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha}")


def _require_positive_lam(lam: float):
    if not lam > 0.0:
        raise DomainError(f"lam must be > 0, got {lam}")


@dataclass(frozen=True)
class CltApprox:
    """Normal approximation N(mean, variance) of the normalized loss.

    VaR and ES are the Gaussian quantile and shortfall of this law; these
    two methods are the only place their formulas live.
    """

    mean: float
    variance: float

    @classmethod
    def from_integral(cls, mean: float, k_num: float, region: Region, lam: float) -> "CltApprox":
        """The law over lam A given the plane integral K of the covariance:
        variance K / (lam^2 area(A))."""
        _require_positive_lam(lam)
        return cls(mean=mean, variance=k_num / (lam * lam * region.area()))

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)

    def var(self, alpha: float) -> float:
        """VaR_alpha = mean + q_alpha sd."""
        if alpha == 0.5:
            warnings.warn(
                "alpha = 1/2 degenerates the VaR correction (q_alpha = 0); returning the mean",
                RuntimeWarning,
                stacklevel=2,
            )
            return self.mean
        return self.mean + norm_quantile(alpha) * self.sd

    def es(self, alpha: float) -> float:
        """ES_alpha = mean + phi(q_alpha) / (1 - alpha) sd."""
        return self.mean + norm_pdf(norm_quantile(alpha)) / (1.0 - alpha) * self.sd


def mean_cost(p: PowerSpec) -> float:
    """E[C(0)] = E[Z(0)^beta]; the binomial-gamma sum for GEV margins,
    Gamma(1 - beta) for simple margins."""
    return first_moment(p)


def _require_isotropic(v: Variogram):
    if not v.is_isotropic:
        raise UnsupportedVariogramError(
            "disk/square variance reduction requires an isotropic variogram"
        )


def _inner_spec(spec: QuadSpec) -> QuadSpec:
    """Tightened tolerance for the pair-function evaluations feeding an
    outer integral.

    The covariance is the mixture minus the squared mean; both are of
    order mu^2 while their difference can be orders of magnitude smaller,
    so the inner evaluations must be resolved well below the outer target
    for the cancellation to leave usable digits.
    """
    return replace(spec, rel_tol=max(spec.rel_tol * 1e-3, 1e-13))


def _cov_radial_fn(p: PowerSpec, v: Variogram, spec: QuadSpec):
    """Stationary covariance of the power field as a function of distance."""
    cov = _cov_at(p, p, _inner_spec(spec))
    return lambda dist: cov(math.sqrt(v.radial(dist)))


def r2(q: RiskQuery, lam: float) -> float:
    """Var(L_N(lambda A, C)) for A a disk or square, by the 1-D reduction."""
    _require_positive_lam(lam)
    _require_isotropic(q.variogram)
    _require_second_moment(q.power)
    if _has_zero_xi(q.power):
        value, _ = _xi_limit(
            lambda xi: r2(
                RiskQuery(q.region, _with_xi(q.power, xi), q.variogram, q.quad, q.alpha), lam
            )
        )
        return value

    R = q.region.scaled_size
    if q.region.shape == "disk":
        density, h_max = (lambda h: disk_distance_density(h, R)), 2.0 * R
    else:
        density, h_max = (lambda h: square_distance_density(h, R)), R * math.sqrt(2.0)

    # the distance density integrates to one, so the mean-squared term can
    # be folded into the integrand; integrating f (mixture - mu^2) instead
    # of subtracting afterwards keeps the result accurate when the
    # variance contribution is orders below the mixture scale
    cov = _cov_radial_fn(q.power, q.variogram, q.quad)
    variance_scale = var_gev(q.power)

    def integrand(h):
        h = np.asarray(h, dtype=float)
        vals = np.array([cov(lam * hi) for hi in h])
        return density(h) * vals

    # seed the subdivision where the pair function still moves: the
    # covariance decays on the scale sqrt(gamma(lam h)) ~ a few
    bps = []
    for target in (0.5, 1.0, 2.0, 4.0, 8.0):
        d = _invert_radial(q.variogram, target * target)
        if d is not None and 0.0 < d / lam < h_max:
            bps.append(d / lam)
    outer = replace(
        q.quad, abs_floor=max(q.quad.abs_floor, q.quad.rel_tol * variance_scale * 1e-3)
    )
    return integrate(integrand, 0.0, h_max, outer, breakpoints=bps).value


def _invert_radial(v: Variogram, gamma_target: float):
    """Distance d with gamma_u(d) = gamma_target for the power kinds."""
    if v.kind == "power":
        return v.kappa * gamma_target ** (1.0 / v.psi)
    if v.kind == "power_m":
        return (gamma_target / v.m) ** (1.0 / v.psi)
    if v.is_isotropic:
        c = v.sigma[0, 0]
        if v.kind == "quadratic_form":
            return math.sqrt(gamma_target * c)
        return math.sqrt(c) * (gamma_target / v.m) ** (1.0 / v.psi)
    return None


def asymptotic_cov_integral(
    p: PowerSpec, v: Variogram, spec: QuadSpec = DEFAULT_QUAD
) -> float:
    """Integral over the plane of the stationary covariance of Z^beta,
    computed radially as 2 pi int_0^inf u cov(u) du.

    The radial integral is truncated where the covariance has decayed
    below 1e-12 of the variance (doubling search) and extended chunk by
    chunk until the last chunk is relatively negligible.
    """
    _require_isotropic(v)
    _require_second_moment(p)
    if p.is_simple and p.beta == 0.0:
        return 0.0
    if _has_zero_xi(p):
        value, _ = _xi_limit(lambda xi: asymptotic_cov_integral(_with_xi(p, xi), v, spec))
        return value

    variance = var_gev(p)
    cov = _cov_radial_fn(p, v, spec)

    # doubling search for the truncation radius
    h_star = 1.0
    for _ in range(64):
        if cov(h_star) < 1e-12 * variance:
            break
        h_star *= 2.0
    else:
        raise ConvergenceError(
            "covariance decays too slowly for the radial integral "
            f"(still {cov(h_star)!r} at distance {h_star!r})"
        )

    def integrand(u):
        u = np.asarray(u, dtype=float)
        return np.array([ui * cov(ui) for ui in u])

    # far chunks carry a vanishing share of the integral: accept them on an
    # absolute budget tied to the variance scale rather than stalling on
    # their own relative accuracy
    chunk_spec = replace(spec, abs_floor=max(spec.abs_floor, spec.rel_tol * variance * 0.1))
    total = 0.0
    err = 0.0
    lo = 0.0
    edges = [h_star * frac for frac in (0.03125, 0.125, 0.5, 1.0)]
    for hi in edges:
        res = integrate(integrand, lo, hi, chunk_spec)
        total += res.value
        err += res.err_estimate
        lo = hi
    # extend past the truncation point until the tail chunk is negligible
    for _ in range(16):
        hi = 2.0 * lo
        res = integrate(integrand, lo, hi, chunk_spec)
        total += res.value
        err += res.err_estimate
        lo = hi
        if abs(res.value) <= max(1e-9 * abs(total), 1e-300):
            break
    else:
        raise ConvergenceError(
            "radial covariance tail did not become negligible",
            best_estimate=2.0 * math.pi * total,
            err_estimate=2.0 * math.pi * err,
        )
    return 2.0 * math.pi * total


def clt_approx(q: RiskQuery, lam: float) -> CltApprox:
    """Normal approximation of L_N(lambda A, C) for large lambda."""
    _require_positive_lam(lam)
    k_num = asymptotic_cov_integral(q.power, q.variogram, q.quad)
    return CltApprox.from_integral(mean_cost(q.power), k_num, q.region, lam)


def var_asymptotic(q: RiskQuery, lam: float) -> float:
    """Asymptotic VaR_alpha(L_N(lambda A, C)) = mu + q_alpha sqrt(K)/(lam sqrt(nu(A)))."""
    return clt_approx(q, lam).var(q.alpha)


def es_asymptotic(q: RiskQuery, lam: float) -> float:
    """Asymptotic ES_alpha(L_N(lambda A, C)) = mu + phi(q_alpha)/(1-alpha)
    sqrt(K)/(lam sqrt(nu(A)))."""
    return clt_approx(q, lam).es(q.alpha)
