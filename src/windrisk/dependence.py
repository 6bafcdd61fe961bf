"""Closed-form covariance and correlation of powers of Brown-Resnick fields.

A cost field f(Z) of a simple (standard Frechet) Brown-Resnick field Z is
described by the derivative of its margin transform, a short table

    f'(z) = sum_k d_k z^(b_k - 1):

    simple margins, f(z) = z^beta         the single entry (beta, beta)
    GEV margins, f(z) = (a + c z^xi)^beta,
      a = eta - tau/xi, c = tau/xi        d_k = beta C(beta-1, k) a^k c^(beta-1-k) tau,
                                          b_k = (beta - k) xi,   k = 0 .. beta-1
    Gumbel margins (xi = 0), beta = 1     the single entry (tau, 0)

Gumbel margins with beta >= 2 have no such table; their operations raise
DomainError.  Hoeffding's identity (Hoeffding 1940; Lehmann 1966),

    Cov(f(Z1), f(Z2)) = int int f'(z1) f'(z2) [F(z1, z2) - F(z1) F(z2)] dz1 dz2,

splits the covariance into one term per pair of table entries.  At
variogram-root lag h the bivariate law is F(r, r theta) = exp(-C1(theta)/r)
with, for W = h/2 + log(theta)/h and V = h/2 - log(theta)/h,

    C1 = Phi(W) + Phi(V)/theta.

The r integral of each term is a Gamma function, and theta = exp(s h) leaves

    cov = sum_jk d_j d_k int_R h Gamma(1-sig) D^b_j (1+theta)^b_k (-L) exprel(sig L) ds

with sig = b_j + b_k, D = 1 + 1/theta and L = log(C1/D) = log1p(-gap/D) <= 0.
The gap D - C1 = Phi(-W) + Phi(-V)/theta is taken from log_ndtr, so no
term's integrand cancels: each is positive.  At each quadrature node the
pair sum is h (-L) times the bilinear form a' G b, a_j = d_j D^b_j,
b_k = d_k (1+theta)^b_k and G_jk = Gamma(1-sig) exprel(sig L), a function of
sig alone: n1 + n2 powers and one exprel per distinct sig, not one
exponential per pair (:func:`_pair_kernel`).  At lag 0 the same table gives
the variance and the mean in closed form,

    Var = sum_jk d_j d_k V(b_j, b_k),   V(b, c) = [Gamma(1-b-c) - Gamma(1-b) Gamma(1-c)] / (b c),
    E f(Z) = f(1) + sum_k d_k M(b_k),  M(b) = (Gamma(1-b) - 1) / b,

with V(0, 0) = pi^2/6 and M(0) = Euler's gamma (the b -> 0 limits, where
(z^b - 1)/b becomes log z).

The pair function g[b1,b2](h) = E[Z1^b1 Z2^b2] of the display form,

    g = int_0^inf theta^b2 [ C2 C1^(b1+b2-2) Gamma(2-b1-b2)
                           + C3 C1^(b1+b2-1) Gamma(1-b1-b2) ] dtheta,   h > 0,

is kept as an independent oracle (:func:`g_simple`).  Since
phi(V) = theta phi(W), its coefficients collapse to C2 = Phi(W) Phi(V) /
theta^2 and C3 = phi(W) / (h theta), and theta = exp(s h) turns it into a
line integral of a positive integrand whose logarithm is cheap and stable.

Both line integrals in s go through one routine, :func:`_line_integrals`,
which takes the integrand as kernel(s, h) over arrays and integrates the
s > 0 half-lines of a batch of lags as the rows of one
:func:`integrate_rows` call and their s < 0 half-lines as those of a
second: the covariance's pair kernel at every lag of a call, and the
display-form kernel of :func:`g_simple` at its one lag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional

import numpy as np
from scipy.special import digamma, gammaln, log_ndtr, zeta
from scipy.special import gamma as gamma_fn

from .errors import DomainError
from .numerics import (
    DEFAULT_QUAD,
    QuadResult,
    QuadSpec,
    exprel,
    gamma,
    integrate_rows,
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

# zeta(n)/n, n = 2..39, of the series of log Gamma(1 - x); used where
# |b| + |c| <= _SERIES_RADIUS, so the terms fall below 2^-70 of the first
_SERIES_RADIUS = 0.25
_LGAMMA_SERIES = zeta(np.arange(2.0, 40.0)) / np.arange(2.0, 40.0)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GevParams:
    """GEV margin triple: location eta, scale tau, shape xi.

    xi = 0 (Gumbel margins) is accepted.  The closed-form operations support
    it for beta = 1, where f'(z) = tau / z; with beta >= 2 they raise
    DomainError (the binomial table needs xi != 0).
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
# line integrals in s = log(theta) / h
# ---------------------------------------------------------------------------

def _breakpoints(h: float) -> list:
    """Seeds of the subdivision of a half-line at lag h > 0: the integrands
    live on scales ~1/h around s=0 plus the Phi transitions near |s| = h/2."""
    return sorted({bp for bp in (
        0.25 / h, 1.0 / h, 4.0 / h, 16.0 / h, 1.0, 2.0, h / 2.0, h / 2.0 + 8.0
    ) if bp > 0.0})


def _line_integrals(kernel, lags, spec: QuadSpec) -> list:
    """One QuadResult per lag h > 0 of ``lags``: the integral over the real
    line of ``kernel(s, h)``, a function of arrays s and h of one shape.

    The s > 0 half-lines of all lags are the rows of one
    :func:`integrate_rows` call and their s < 0 half-lines those of a
    second, so each lag's value is the one it gets alone.  A lag's s < 0
    half-line is integrated only once its s > 0 one has converged, as when
    the lag is evaluated alone, so the first lag that fails raises the
    same error and no work is spent past it.
    """
    bps = [_breakpoints(lag) for lag in lags]
    lags = np.array(lags, dtype=float)
    pos = integrate_rows(lambda x, row: kernel(x, lags[row]), 0.0, math.inf, bps, spec)
    n_ok = next((i for i, r in enumerate(pos) if not isinstance(r, QuadResult)), len(pos))
    neg = integrate_rows(lambda x, row: kernel(-x, lags[row]), 0.0, math.inf, bps[:n_ok], spec)
    for r in neg + pos[n_ok:n_ok + 1]:
        if not isinstance(r, QuadResult):
            raise r
    return [QuadResult(p.value + n.value, p.err_estimate + n.err_estimate,
                       p.subdivisions + n.subdivisions, p.absolute_mode or n.absolute_mode)
            for p, n in zip(pos, neg)]


def g_simple(beta1: float, beta2: float, h: float, spec: QuadSpec = DEFAULT_QUAD) -> float:
    """Pair function of a simple Brown-Resnick field at variogram-root lag
    h, from the display form."""
    if not (beta1 < 0.5 and beta2 < 0.5):
        raise DomainError(f"second-moment condition requires beta < 1/2, got {beta1}, {beta2}")
    if h < 0.0:
        raise DomainError(f"h must be >= 0, got {h}")
    if h < SMALL_H:
        return gamma(1.0 - beta1 - beta2)
    b2 = float(beta2)
    sig = float(beta1) + b2
    lg2 = gammaln(2.0 - sig)
    lg1 = gammaln(1.0 - sig)

    def kernel(s, h):
        w = h / 2.0 + s
        v = h / 2.0 - s
        lphi_w = log_ndtr(w)
        lphi_v = log_ndtr(v)
        sh = s * h
        log_c1 = np.logaddexp(lphi_w, -sh + lphi_v)
        L1 = lg2 + np.log(h) + lphi_w + lphi_v + (b2 - 1.0) * sh + (sig - 2.0) * log_c1
        L2 = lg1 - 0.5 * w * w - _LOG_SQRT_2PI + b2 * sh + (sig - 1.0) * log_c1
        return np.exp(L1) + np.exp(L2)

    return _line_integrals(kernel, [h], spec)[0].value


def var_simple(beta: float) -> float:
    """Var((Z^(s))^beta) for standard Frechet margins, beta < 1/2."""
    return var_gev(PowerSpec.simple(beta))


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
# covariance of powers from the derivative table
# ---------------------------------------------------------------------------

def _require_moments(p: PowerSpec, order: int):
    """DomainError unless E|Z^beta|^order is finite and the margin
    transform has a derivative table."""
    if p.is_simple:
        if not p.beta * order < 1.0:
            raise DomainError(f"simple margins require beta < {1.0 / order:g}, got {p.beta}")
        return
    if not p.beta * p.margin.xi * order < 1.0:
        raise DomainError(
            f"moment condition beta*xi < {1.0 / order:g} violated: "
            f"beta={p.beta}, xi={p.margin.xi}"
        )
    if p.margin.xi == 0.0 and p.beta >= 2:
        raise DomainError(f"Gumbel margins (xi = 0) support beta = 1 only, got beta={p.beta}")


def _finite(values, what):
    """``values`` unchanged; DomainError if one is not a finite double, as
    where a high power of the margin leaves the double range."""
    if not np.all(np.isfinite(values)):
        raise DomainError(f"{what} of the power field is not a finite double "
                          "(beta too high for the margin?)")
    return values


def _derivative_table(p: PowerSpec):
    """(f(1), d, b) with f'(z) = sum_k d_k z^(b_k - 1) for the transform f
    taking a standard Frechet value to the power of the margin."""
    if p.is_simple:
        return 1.0, np.array([p.beta]), np.array([p.beta])
    beta, m = int(p.beta), p.margin
    # the weights beta C(beta-1, j) sum to beta 2^(beta-1), so the largest
    # is at least 2^(beta-1): from beta = 1025 on it is past the double range
    if beta > 1024:
        raise DomainError(f"beta > 1024 overflows the double range for {m}")
    k = np.arange(beta)
    try:
        f1 = m.eta ** beta
        if beta <= 1:  # f(z) = eta + tau (z^xi - 1)/xi, also at xi = 0
            d = np.full(beta, m.tau)
        else:
            a, c = m.eta - m.tau / m.xi, m.tau / m.xi
            d = np.array([beta * math.comb(beta - 1, j) * a**j * c ** (beta - 1 - j) * m.tau
                          for j in range(beta)])
    except OverflowError as exc:  # a float power past the double range
        raise DomainError(f"beta={beta} overflows the double range for {m}") from exc
    return (_finite(f1, "f(1)"), _finite(d, "a derivative-table entry"),
            _finite((beta - k) * m.xi, "an exponent"))


def _log_power_cov(b, c):
    """V(b, c) = Cov((Z^b - 1)/b, (Z^c - 1)/c) elementwise for standard
    Frechet Z, where (Z^0 - 1)/0 stands for log Z.

    The closed form [Gamma(1-b-c) - Gamma(1-b) Gamma(1-c)] / (b c) cancels
    as b, c -> 0.  There V = Gamma(1-b) Gamma(1-c) expm1(b c q) / (b c) with
    b c q = log Gamma(1-b-c) - log Gamma(1-b) - log Gamma(1-c), and the
    series log Gamma(1-x) = gamma_E x + sum_n zeta(n) x^n / n gives
    q = sum_n zeta(n)/n P_n, P_n = ((b+c)^n - b^n - c^n) / (b c), through
    P_2 = 2, P_(n+1) = (b+c) P_n + b^(n-1) + c^(n-1).
    """
    g_b, g_c = gamma_fn(1.0 - b), gamma_fn(1.0 - c)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = (gamma_fn(1.0 - b - c) - g_b * g_c) / (b * c)
        # one power 0: Cov(Z^b, log Z) / b = -Gamma(1-b) (psi(1-b) + gamma_E) / b
        v = np.where(c == 0.0, -g_b * (digamma(1.0 - b) + np.euler_gamma) / b, v)
        v = np.where(b == 0.0, -g_c * (digamma(1.0 - c) + np.euler_gamma) / c, v)
    near = np.abs(b) + np.abs(c) <= _SERIES_RADIUS
    if near.any():
        bn, cn = b[near], c[near]
        p, q, b_pow, c_pow = 2.0, 0.0, bn, cn
        for coef in _LGAMMA_SERIES:
            q = q + coef * p
            p, b_pow, c_pow = (bn + cn) * p + b_pow + c_pow, b_pow * bn, c_pow * cn
        v[near] = g_b[near] * g_c[near] * q * exprel(bn * cn * q)
    return v


# the covariance kernel takes the nodes of a wave in chunks of this many, to
# keep its arrays small: 64 new panels of 15 nodes, the most one row adds in
# a wave, so a lone lag is one call, and no chunk is a lone node (numpy sums
# the terms of a lone node pairwise, those of two or more in order)
_CHUNK_NODES = 960


def _pair_kernel(d1, b1, d2, b2):
    """The Hoeffding integrand of the covariance for the derivative tables
    (d1, b1) and (d2, b2), as kernel(s, h): h times the integrand at the
    nodes s of lags h (arrays of one shape).

    The pair sum is a bilinear form at each node,

        sum_jk W_jk exprel(sig_jk L) D^(b1_j - max b1) (1+theta)^(b2_k - max b2),

    with W_jk = d1_j d2_k Gamma(1 - sig_jk) / max|W| and sig_jk = b1_j + b2_k,
    times h max|W| D^(max b1) (1+theta)^(max b2) (-L), whose logarithm is
    summed before its one exponential: n1 + n2 exponentials and one exprel
    per distinct sig at each node.  No factor but exprel exceeds 1 in
    magnitude, and the common factor is no subnormal where the value is a
    normal double.  Every operation is elementwise or a sum over the terms
    of one node, so a node's value does not depend on the other nodes.
    """
    # the distinct exponent sums, and each pair's index among them
    b1, b2 = b1.tolist(), b2.tolist()
    where = {v: i for i, v in enumerate(sorted({x + y for x in b1 for y in b2}))}
    sig_values = np.array(list(where)).reshape(-1, 1)
    sig_index = np.array([[where[x + y] for y in b2] for x in b1],
                         dtype=np.intp).reshape(len(b1), len(b2))
    weights = np.outer(d1, d2)[:, :, None] * gamma_fn(1.0 - sig_values)[sig_index]
    top = float(np.max(np.abs(weights), initial=0.0))
    log_scale = math.log(top) if top else -math.inf
    weights /= top or 1.0
    top1, top2 = max(b1, default=0.0), max(b2, default=0.0)
    rest1 = np.array([x - top1 for x in b1]).reshape(-1, 1)
    rest2 = np.array([y - top2 for y in b2]).reshape(-1, 1)
    single = sig_index.size == 1

    def kernel(s, h):
        sh = s * h
        log_d = np.logaddexp(0.0, -sh)
        # q = gap/D in (0, 1/2]: the exponent function is at least
        # half of 1/z1 + 1/z2
        half_h = h / 2.0
        log_q = np.logaddexp(log_ndtr(-half_h - s), log_ndtr(s - half_h) - sh) - log_d
        q = np.exp(log_q)
        L = np.log1p(-q)
        # log(-L), finite even where q underflows
        qs = np.maximum(q, 1e-300)
        log_neg_l = log_q + np.log(-np.log1p(-qs) / qs)
        g = exprel(sig_values * L)
        if single:  # one entry per side: the form is its single term
            form = weights[0, 0] * g[0]
        else:
            terms = g[sig_index]
            terms *= weights
            terms *= np.exp(rest2 * (sh + log_d))  # log(1 + theta) = sh + log D
            form = terms.sum(axis=1)
            form *= np.exp(rest1 * log_d)
            form = form.sum(axis=0)
        # D^top1 (1 + theta)^top2 = D^(top1 + top2) theta^top2
        return h * np.exp(log_scale + (top1 + top2) * log_d + top2 * sh + log_neg_l) * form

    return kernel


def _cov_at(p1: PowerSpec, p2: PowerSpec, spec: QuadSpec):
    """Cov(Z(x1)^beta1, Z(x2)^beta2) as a function of the variogram-root lag
    h = sqrt(gamma(x2 - x1)), returned as a QuadResult.

    The function takes a scalar lag or an array of lags, and the fields of
    its QuadResult have the lags' shape.  The derivative tables and the
    variance are built once, so the returned function is the single place
    the covariance is evaluated: the closed-form variance below SMALL_H, its
    limit 0 at an infinite lag, the Hoeffding line integral in between, all
    lags in one call of :func:`_line_integrals`, so each lag's value is the
    one it gets alone and the first lag that fails raises the error it
    raises alone.
    """
    table = _derivative_table(p1)
    _, d1, b1 = table
    _, d2, b2 = table if p2 == p1 else _derivative_table(p2)
    wts = _finite(np.outer(d1, d2).ravel(), "a pairwise weight")
    B1 = np.repeat(b1, len(b2))
    B2 = np.tile(b2, len(b1))
    at_zero = QuadResult(math.fsum(_finite(wts * _log_power_cov(B1, B2), "a variance term")),
                         0.0, 0)
    at_infinity = QuadResult(0.0, 0.0, 0)
    pair_kernel = _pair_kernel(d1, b1, d2, b2)

    def kernel(s, h):
        return np.concatenate([pair_kernel(s[i:i + _CHUNK_NODES], h[i:i + _CHUNK_NODES])
                               for i in range(0, len(s), _CHUNK_NODES)])

    def cov(h) -> QuadResult:
        h = np.asarray(h, dtype=float)
        flat = h.ravel().tolist()
        # the closed form below SMALL_H and the limit 0 at an infinite lag
        known = [at_zero if lag < SMALL_H else at_infinity if lag == math.inf else None
                 for lag in flat]
        far = iter(_line_integrals(kernel, [lag for lag, r in zip(flat, known) if r is None],
                                   spec))
        results = [next(far) if r is None else r for r in known]
        if h.ndim == 0:
            return results[0]
        return QuadResult(*(np.array([getattr(r, f.name) for r in results]).reshape(h.shape)
                            for f in fields(QuadResult)))

    return cov


def g_gev(p: PowerSpec, h: float, spec: QuadSpec = DEFAULT_QUAD) -> float:
    """Second moment E[Z(x1)^beta Z(x2)^beta] for equal GEV margins at both
    sites: the covariance plus the squared mean."""
    if p.is_simple:
        raise DomainError("g_gev requires GEV margins; use g_simple instead")
    _require_moments(p, 2)
    if h < 0.0:
        raise DomainError(f"h must be >= 0, got {h}")
    return _cov_at(p, p, spec)(h).value + first_moment(p) ** 2


def first_moment(p: PowerSpec) -> float:
    """E[Z(0)^beta] for either margin mode."""
    _require_moments(p, 1)
    f1, d, b = _derivative_table(p)
    m = [np.euler_gamma if bk == 0.0 else (gamma(1.0 - bk) - 1.0) / bk for bk in b]
    return f1 + math.fsum(_finite(d * m, "a mean term"))


def var_gev(p: PowerSpec) -> float:
    """Var(Z(0)^beta): the covariance at lag 0, for either margin mode."""
    _require_moments(p, 2)
    return _cov_at(p, p, DEFAULT_QUAD)(0.0).value


def _cov_result(p1: PowerSpec, p2: PowerSpec, v: Variogram, x1, x2,
                spec: QuadSpec) -> QuadResult:
    _require_moments(p1, 2)
    _require_moments(p2, 2)
    h = math.sqrt(v(np.asarray(x2, dtype=float) - np.asarray(x1, dtype=float)))
    return _cov_at(p1, p2, spec)(h)


def cov_gev(
    p1: PowerSpec,
    p2: PowerSpec,
    v: Variogram,
    x1,
    x2,
    spec: QuadSpec = DEFAULT_QUAD,
) -> float:
    """Cov(Z(x1)^beta1, Z(x2)^beta2) with per-site power and margin specs."""
    return _cov_result(p1, p2, v, x1, x2, spec).value


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


def dep_measure_from_gamma(p: PowerSpec, gamma_value, spec: QuadSpec = DEFAULT_QUAD):
    """Radial convenience form of :func:`dep_measure` keyed by the variogram
    value; an array of variogram values gives the array of dependences from
    one covariance evaluation."""
    if not np.all(np.asarray(gamma_value) >= 0.0):
        raise DomainError(f"variogram value must be >= 0, got {gamma_value}")
    _require_moments(p, 2)
    cov = _cov_at(p, p, spec)
    variance = cov(0.0).value
    if not variance > 0.0:
        raise DomainError(f"degenerate power field (variance {variance}); beta=0?")
    return cov(np.sqrt(gamma_value)).value / variance


def cov_gev_xi_zero(
    beta: int,
    eta: float,
    tau: float,
    v: Variogram,
    x1,
    x2,
    spec: QuadSpec = DEFAULT_QUAD,
    return_err: bool = False,
):
    """Gumbel-margin (xi = 0) covariance: :func:`cov_gev` with xi = 0.

    Supported for beta = 1; beta >= 2 raises DomainError.  With
    ``return_err`` the quadrature's error estimate is returned as well.
    """
    p = PowerSpec.gev(beta, GevParams(eta, tau, 0.0))
    res = _cov_result(p, p, v, x1, x2, spec)
    return (res.value, res.err_estimate) if return_err else res.value


def b_coeff(k1: int, k2: int, p: PowerSpec) -> float:
    """Binomial-product coefficient of the GEV second-moment expansion."""
    if p.is_simple:
        raise DomainError("b_coeff is defined for GEV margins only")
    beta = int(p.beta)
    if not (0 <= k1 <= beta and 0 <= k2 <= beta):
        raise DomainError(f"indices must lie in [0, {beta}], got ({k1}, {k2})")
    m = p.margin
    if m.xi == 0.0:
        raise DomainError("b_coeff is undefined at xi = 0")
    return (
        math.comb(beta, k1)
        * math.comb(beta, k2)
        * (m.eta - m.tau / m.xi) ** (k1 + k2)
        * (m.tau / m.xi) ** (2 * beta - k1 - k2)
    )


def extremal_coefficient(v: Variogram, x1, x2) -> float:
    """Pairwise extremal coefficient 2 Phi(sqrt(gamma_W(x2 - x1)) / 2) in [1, 2]."""
    g = float(v(np.asarray(x2, dtype=float) - np.asarray(x1, dtype=float)))
    return 2.0 * norm_cdf(math.sqrt(g) / 2.0)


def extremal_coefficient_radial(v: Variogram, h: float) -> float:
    """Radial extremal coefficient for isotropic variograms."""
    return 2.0 * norm_cdf(math.sqrt(v.radial(h)) / 2.0)
