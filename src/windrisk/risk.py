"""Spatial risk measures of the normalized aggregated loss.

For a region A (disk or square) dilated by lambda and a cost field
C = Z^beta, the covariance of C at two sites depends on them only through
the variogram-root lag h = sqrt(gamma(x2 - x1)).  Each (PowerSpec,
QuadSpec) therefore gets one covariance table: a piecewise Chebyshev
interpolant of log cov(h) whose nodes come from the Hoeffding line
integrals of :mod:`windrisk.dependence`, certified at points between the
nodes against the same integrals.  The variance of the normalized loss
reduces to a single integral of that table against the distance density
f of A, which integrates to one:

    R2(lambda A) = int f(u, R) cov(sqrt(gamma_u(lambda u))) du.

As lambda grows, R2 decays like K / (lambda^2 area(A)) with K the plane
integral 2 pi int_0^inf u cov(u) du of the same table; VaR and ES of the
loss decay towards the mean mu like 1/lambda with Gaussian coefficients,
which is what the asymptotic closed forms below implement.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from numpy.polynomial import chebyshev

from .dependence import SMALL_H, PowerSpec, _cov_at, _require_moments, first_moment
from .errors import ConvergenceError, DomainError, UnsupportedVariogramError, WindriskError
from .geometry import Region, disk_distance_density, square_distance_density
from .numerics import DEFAULT_QUAD, QuadSpec, integrate, integrate_rows, norm_pdf, norm_quantile
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


def mean_cost(p: PowerSpec) -> float:
    """E[C(0)] = E[Z(0)^beta]; the binomial-gamma sum for GEV margins,
    Gamma(1 - beta) for simple margins."""
    return first_moment(p)


def _require_isotropic(v: Variogram):
    if not v.is_isotropic:
        raise UnsupportedVariogramError(
            "disk/square variance reduction requires an isotropic variogram"
        )


# ---------------------------------------------------------------------------
# the covariance table
# ---------------------------------------------------------------------------

# Chebyshev points of the first kind on [-1, 1] (none at a piece's edges,
# so h = 0 is never a node), and the map from node values to coefficients,
# c_j = (2 - [j = 0]) / n * sum_k T_j(x_k) y_k by the discrete orthogonality
_CHEB_N = 21
_CHEB_X = chebyshev.chebpts1(_CHEB_N)
_TO_COEFS = chebyshev.chebvander(_CHEB_X, _CHEB_N - 1).T * (2.0 / _CHEB_N)
_TO_COEFS[0] /= 2.0
# check points: every other extremum of T_n, each between two neighbouring
# nodes, where the interpolation error of a smooth function peaks
_CHECK_X = np.cos(np.arange(1, _CHEB_N, 2) * np.pi / _CHEB_N)
# the covariance moves on the scale h ~ 1 and has decayed by h ~ 15
_TABLE_EDGES = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 24.0)
_MAX_BISECTIONS = 8
_MAX_DOUBLINGS = 10
# past the table's range cov <= _TAIL * rel_tol * var, below the absolute
# floors of the r2 (1e-3) and K (1e-1) integrals
_TAIL = 1e-6


@dataclass(frozen=True, eq=False)
class _CovTable:
    """cov(h) of one power field as a piecewise Chebyshev interpolant.

    Piece i covers [edges[i], edges[i+1]] and holds the Chebyshev
    coefficients of log cov, or of cov itself where a node value is not
    positive (``log_fit`` False).
    Below SMALL_H the closed-form variance is returned, as by ``_cov_at``;
    from ``edges[-1]`` on, 0.  ``worst_miss`` is the largest relative
    difference between the interpolant and ``_cov_at`` at the check points.
    """

    variance: float
    edges: np.ndarray
    coefs: np.ndarray
    log_fit: np.ndarray
    worst_miss: float

    def __call__(self, h) -> np.ndarray:
        h = np.asarray(h, dtype=float)
        out = np.where(h < SMALL_H, self.variance, 0.0)
        inside = (h >= SMALL_H) & (h < self.edges[-1])
        hi = h[inside]
        piece = np.searchsorted(self.edges, hi, side="right") - 1
        lo, up = self.edges[piece], self.edges[piece + 1]
        y = chebyshev.chebval((2.0 * hi - lo - up) / (up - lo), self.coefs[piece].T,
                              tensor=False)
        logs = self.log_fit[piece]
        y[logs] = np.exp(y[logs])
        out[inside] = y
        return out


@functools.lru_cache(maxsize=16)
def _cov_table(p: PowerSpec, spec: QuadSpec) -> _CovTable:
    """The certified covariance table of Z^beta; callers check the moments.

    The table is built a bisection level at a time: one ``_cov_at`` call
    gives every piece of the level its nodes and its check points, at
    _CHECK_X, against which its fit is compared; each lag gets the value
    it gets alone.  A piece that misses by more than rel_tol/10 relative
    (to at least the tail floor _TAIL * rel_tol * var) is bisected into
    the next level; at _MAX_BISECTIONS levels the leftmost piece that
    misses raises ConvergenceError, with the direct value at its worst
    miss.  The range is doubled from 24 until cov <= _TAIL * rel_tol * var.
    """
    cov = _cov_at(p, p, spec)
    variance = cov(0.0).value
    floor = max(_TAIL * spec.rel_tol * variance, np.finfo(float).tiny)

    edges = list(_TABLE_EDGES)
    for _ in range(_MAX_DOUBLINGS):
        if abs(cov(edges[-1]).value) <= _TAIL * spec.rel_tol * variance:
            break
        edges.append(2.0 * edges[-1])
    else:
        raise ConvergenceError(
            f"covariance has not decayed to {_TAIL * spec.rel_tol:g} of the "
            f"variance by lag h = {edges[-1]!r}",
            best_estimate=cov(edges[-1]).value,
        )

    pieces = []
    worst = 0.0
    level = list(zip(edges, edges[1:]))
    for depth in range(_MAX_BISECTIONS + 1):
        # one covariance call for the nodes and check points of every piece
        # of the level, each piece's nodes then its check points
        points = [lo + 0.5 * (hi - lo) * (x + 1.0)
                  for lo, hi in level for x in (_CHEB_X, _CHECK_X)]
        values = cov(np.concatenate(points)).value
        bisected = []
        for i, (lo, hi) in enumerate(level):
            start = i * (_CHEB_N + len(_CHECK_X))
            at_nodes = values[start:start + _CHEB_N]
            direct = values[start + _CHEB_N:start + _CHEB_N + len(_CHECK_X)]
            log_fit = bool(np.all(at_nodes > 0.0))
            piece = _CovTable(variance, np.array([lo, hi]),
                              (_TO_COEFS @ (np.log(at_nodes) if log_fit else at_nodes))[None],
                              np.array([log_fit]), 0.0)
            checks = points[2 * i + 1]
            fit = piece(checks)
            miss = np.abs(fit - direct) / np.maximum(np.abs(direct), floor)
            if miss.max() <= 0.1 * spec.rel_tol:
                pieces.append(piece)
                worst = max(worst, float(miss.max()))
            elif depth == _MAX_BISECTIONS:  # the leftmost piece that misses at the last level
                j = int(np.argmax(miss))
                raise ConvergenceError(
                    f"covariance table missed by {miss[j]:.3g} relative at "
                    f"h = {float(checks[j])!r} after {depth} bisections",
                    best_estimate=float(direct[j]),
                    err_estimate=float(abs(fit[j] - direct[j])),
                )
            else:
                mid = 0.5 * (lo + hi)
                bisected += [(lo, mid), (mid, hi)]
        level = bisected
        if not level:
            break
    pieces.sort(key=lambda pc: pc.edges[0])

    return _CovTable(
        variance=variance,
        edges=np.array([pc.edges[0] for pc in pieces] + [edges[-1]]),
        coefs=np.concatenate([pc.coefs for pc in pieces]),
        log_fit=np.concatenate([pc.log_fit for pc in pieces]),
        worst_miss=worst,
    )


def r2(q: RiskQuery, lam: float) -> float:
    """Var(L_N(lambda A, C)) for A a disk or square, by the 1-D reduction;
    the one-row case of :func:`r2_curves`."""
    return float(r2_curves(q.region, q.power, [q.variogram], [lam], q.quad)[0, 0])


def r2_curves(region: Region, power: PowerSpec, variograms: Sequence[Variogram],
              lams: Sequence[float], quad: QuadSpec = DEFAULT_QUAD) -> np.ndarray:
    """Var(L_N(lam A, C)) for every variogram and lam: a (len(variograms),
    len(lams)) array from one quadrature call.

    Each (variogram, lam) pair is one row of :func:`integrate_rows`, with
    its own breakpoints and mesh, so each value is the one the pair gets
    alone.  The inputs are checked first; then the first failing row, in
    variogram-major, lam-minor order, raises its own error.
    """
    lams = [float(lam) for lam in lams]
    variograms = list(variograms)
    for lam in lams:
        _require_positive_lam(lam)
    for v in variograms:
        _require_isotropic(v)
    _require_moments(power, 2)
    out = np.zeros((len(variograms), len(lams)))
    if not out.size:
        return out

    R = region.scaled_size
    if region.shape == "disk":
        density, h_max = (lambda h: disk_distance_density(h, R)), 2.0 * R
    else:
        density, h_max = (lambda h: square_distance_density(h, R)), R * math.sqrt(2.0)

    # the distance density integrates to one, so the squared mean drops out
    # and the density is integrated against the covariance itself
    table = _cov_table(power, quad)
    row_lams = np.tile(lams, len(variograms))

    def integrand(h, rows):
        which = rows // len(lams)
        gammas = np.empty_like(h)
        for j, v in enumerate(variograms):
            at = which == j
            gammas[at] = v.radial(row_lams[rows[at]] * h[at])
        return density(h) * table(np.sqrt(gammas))

    # seed the subdivision where the pair function still moves: the
    # covariance decays on the scale sqrt(gamma(lam h)) ~ a few
    breakpoints = []
    for v in variograms:
        ds = [_invert_radial(v, target * target) for target in (0.5, 1.0, 2.0, 4.0, 8.0)]
        breakpoints += [[d / lam for d in ds if d is not None and 0.0 < d / lam < h_max]
                        for lam in lams]
    outer = replace(
        quad, abs_floor=max(quad.abs_floor, quad.rel_tol * table.variance * 1e-3)
    )
    for i, result in enumerate(integrate_rows(integrand, 0.0, h_max, breakpoints, outer)):
        if isinstance(result, WindriskError):
            raise result
        out.flat[i] = result.value
    return out


def _invert_radial(v: Variogram, gamma_target: float):
    """Distance d with gamma_u(d) = gamma_target for the power kinds; inf
    where d overflows (small psi)."""
    try:
        if v.kind == "power":
            return v.kappa * gamma_target ** (1.0 / v.psi)
        if v.kind == "power_m":
            return (gamma_target / v.m) ** (1.0 / v.psi)
        if v.is_isotropic:
            c = v.sigma[0, 0]
            if v.kind == "quadratic_form":
                return math.sqrt(gamma_target * c)
            return math.sqrt(c) * (gamma_target / v.m) ** (1.0 / v.psi)
    except OverflowError:
        return math.inf
    return None


# K gives up on a covariance that has not decayed by this distance (the
# table's last edge, 24 or more, lies at 24^(2/psi) for power variograms)
_MAX_RADIUS = 2.0**63


def asymptotic_cov_integral(
    p: PowerSpec, v: Variogram, spec: QuadSpec = DEFAULT_QUAD
) -> float:
    """Integral over the plane of the stationary covariance of Z^beta,
    computed radially as 2 pi int_0^inf u cov(u) du.

    The covariance table is 0 from its last edge on, so the radial
    integral ends at the distance where sqrt(gamma) reaches that edge; the
    distances of the table's edges split it where the covariance is smooth.
    """
    _require_isotropic(v)
    _require_moments(p, 2)
    if p.is_simple and p.beta == 0.0:
        return 0.0

    table = _cov_table(p, spec)
    radii = [_invert_radial(v, e * e) for e in table.edges.tolist()]
    if not radii[-1] <= _MAX_RADIUS:
        raise ConvergenceError(
            "covariance decays too slowly for the radial integral "
            f"(lag h = {float(table.edges[-1])!r} lies at distance {radii[-1]!r})"
        )

    def integrand(u):
        u = np.asarray(u, dtype=float)
        return u * table(np.sqrt(v.radial(u)))

    # the far pieces carry a vanishing share of the integral: accept them
    # on an absolute budget tied to the variance scale
    outer = replace(spec, abs_floor=max(spec.abs_floor, spec.rel_tol * table.variance * 0.1))
    return 2.0 * math.pi * integrate(integrand, 0.0, radii[-1], outer,
                                     breakpoints=radii[1:-1]).value


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
