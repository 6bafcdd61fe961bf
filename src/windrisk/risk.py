"""Spatial risk measures of the normalized aggregated loss.

For a region A (disk or square) dilated by lambda and a cost field
C = Z^beta, the covariance of C at two sites depends on them only through
the variogram-root lag h = sqrt(gamma(x2 - x1)).  Each (PowerSpec,
QuadSpec) therefore gets one covariance table, owned by its
:class:`~windrisk.dependence.CovModel`: a piecewise Chebyshev interpolant
of log cov(h) whose nodes come from the Hoeffding line integrals,
certified at points between the nodes against the same integrals.  The
variance of the normalized loss reduces to a single integral of that
table against the distance density f of A, which integrates to one:

    R2(lambda A) = int f(u, R) cov(sqrt(gamma_u(lambda u))) du.

As lambda grows, R2 decays like K / (lambda^2 area(A)) with K the plane
integral of the same table, 2 pi s^2 (2/psi) int_0^H h^(4/psi - 1) cov(h) dh
for gamma_u(u) = (u / s)^psi; VaR and ES of the loss decay towards the
mean mu like 1/lambda with Gaussian coefficients, which is what the
asymptotic closed forms below implement.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dependence import PowerSpec, covariance_model, mean_cost
from .errors import ConvergenceError, DomainError, WindriskError
from .geometry import Region, disk_distance_density, square_distance_density
from .numerics import (DEFAULT_QUAD, QuadSpec, integrate, integrate_rows, norm_pdf,
                       norm_quantile)
from .variogram import Variogram

__all__ = [
    "RiskQuery",
    "CltApprox",
    "mean_cost",
    "r2",
    "r2_curves",
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


def _scaled_area(region: Region, lam: float) -> float:
    """lam^2 area(A), the denominator of the loss variance; DomainError
    unless it is a positive finite double."""
    _require_positive_lam(lam)
    value = lam * lam * region.area()
    if not 0.0 < value < math.inf:
        raise DomainError(f"lam^2 area is {value} for {region} at lam = {lam}")
    return value


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
        return cls(mean=mean, variance=k_num / _scaled_area(region, lam))

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


def r2(q: RiskQuery, lam: float) -> float:
    """Var(L_N(lambda A, C)) for A a disk or square, by the 1-D reduction;
    the one-row case of :func:`r2_curves`."""
    return float(r2_curves(q.region, q.power, [q.variogram], [lam], q.quad)[0, 0])


def r2_curves(region: Region, power: PowerSpec, variograms: Sequence[Variogram],
              lams: Sequence[float], quad: QuadSpec = DEFAULT_QUAD) -> np.ndarray:
    """Var(L_N(lam A, C)) for every variogram and lam: a (len(variograms),
    len(lams)) array from one quadrature call.

    Each (variogram, lam) pair is one row of :func:`integrate_rows`, with
    its own pieces (below), so each value is the one the pair gets
    alone.  The inputs are checked first; then the first failing row, in
    variogram-major, lam-minor order, raises its own error.
    """
    lams = [float(lam) for lam in lams]
    variograms = list(variograms)
    for lam in lams:
        _require_positive_lam(lam)
    scales = [v.radial_scale for v in variograms]
    cov = covariance_model(power, power, quad)
    out = np.zeros((len(variograms), len(lams)))
    if not out.size:
        return out

    R = region.R
    if region.shape == "disk":
        density, h_max, branch = (lambda h: disk_distance_density(h, R)), 2.0 * R, []
    else:
        density, h_max, branch = (lambda h: square_distance_density(h, R)), R * math.sqrt(2.0), [R]

    # the distance density integrates to one, so the squared mean drops out
    # and the density is integrated against the covariance itself
    table = cov.table
    row_lams = np.tile(lams, len(variograms))

    def integrand(h, rows):
        which = rows // len(lams)
        gammas = np.empty_like(h)
        for j, v in enumerate(variograms):
            at = which == j
            gammas[at] = v.radial(row_lams[rows[at]] * h[at])
        return density(h) * table(np.sqrt(gammas))

    # the table's edges lie at the distances u = s edge^(2/psi) / lam, where
    # sqrt(gamma(lam u)) = edge, and the square's density changes branch at
    # R; a distance outside (0, h_max) or past the double range is dropped
    breakpoints = []
    with np.errstate(over="ignore", invalid="ignore"):
        for s, psi in scales:
            reach = s * table.edges ** (2.0 / psi)
            for lam in lams:
                u = reach / lam
                breakpoints.append(u[(u > 0.0) & (u < h_max)].tolist() + branch)
    outer = replace(
        quad, abs_floor=max(quad.abs_floor, quad.rel_tol * table.variance * 1e-3)
    )
    for i, result in enumerate(integrate_rows(integrand, 0.0, h_max, breakpoints, outer)):
        if isinstance(result, WindriskError):
            raise result
        out.flat[i] = result.value
    return out


def asymptotic_cov_integral(
    p: PowerSpec, v: Variogram, spec: QuadSpec = DEFAULT_QUAD
) -> float:
    """Integral K over the plane of the stationary covariance of Z^beta.

    For gamma_u(u) = (u / s)^psi (:attr:`Variogram.radial_scale`), the lag
    h = sqrt(gamma_u(u)) turns 2 pi int_0^inf u cov(h) du into the Mellin
    integral 2 pi s^2 (2/psi) int_0^H h^(4/psi - 1) cov(h) dh over the
    covariance table, which is 0 from its last edge H on and whose edges
    split it where the covariance is smooth.  A covariance too slow for
    the weight, H^(2/psi) > 2^63, raises ConvergenceError at every s; K
    past the double range raises DomainError.
    """
    s, psi = v.radial_scale
    cov = covariance_model(p, p, spec)
    if p.is_simple and p.beta == 0.0:
        return 0.0

    table = cov.table
    H = float(table.edges[-1])
    if 2.0 / psi * math.log(H) > 63.0 * math.log(2.0):
        raise ConvergenceError(
            "covariance decays too slowly for the plane integral (lag h = "
            f"{H!r} lies at distance {H!r}^(2/psi) s > 2^63 s for psi = {psi!r})"
        )

    # the far pieces carry a vanishing share of the integral: accept them
    # on an absolute budget tied to the variance scale
    outer = replace(spec, abs_floor=max(spec.abs_floor, spec.rel_tol * table.variance * 0.1))
    result = integrate(lambda h: h ** (4.0 / psi - 1.0) * table(h), 0.0, H, outer,
                       table.edges[1:-1].tolist())
    k_num = 2.0 * math.pi * s * s * (2.0 / psi) * result.value
    if not k_num < math.inf:
        raise DomainError(f"K = {k_num!r} lies past the double range for {v}")
    return k_num


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
