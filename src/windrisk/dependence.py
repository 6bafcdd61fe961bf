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
The gap D - C1 = Phi(-W) + Phi(-V)/theta comes from the scaled normal tail
E(a) = Phi(-a) exp(a^2/2) at W and |V|, one call per kernel call: since
phi(V) = theta phi(W), with m = s - h/2 at s >= 0 (below),

    gap = exp(-W^2/2) (E(W) + E(V))                         m <= 0,
    gap = exp(-s h) (1 - exp(-m^2/2) |E(W) - E(|V|)|)       m > 0,

where the subtracted term is at most half the first, so no term's
integrand cancels: each is positive.  At each quadrature node the
pair sum is h (-L) times the bilinear form a' G b, a_j = d_j D^b_j,
b_k = d_k (1+theta)^b_k and G_jk = Gamma(1-sig) exprel(sig L), a function of
sig alone: n1 + n2 powers and one exprel per distinct sig, not one
exponential per pair (:func:`_pair_kernel`).  Several covariances, such as
those of every power of a dependence surface, share one kernel call: the
gap, L and the exprel of each distinct sig are formed once a node, and
each power's bilinear form follows.  At lag 0 the same table gives
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

The exponent function is symmetric in its two arguments (Husler & Reiss
1989), so exchanging the sites takes theta to 1/theta and s to -s: each
kernel obeys k[p1,p2](-s, h) = k[p2,p1](s, h), and its integral over the
real line is the s > 0 half-line of the ordered pair (p1, p2) plus that of
(p2, p1).  Where one power and margin sit at both sites, as in every
dependence, the two are one half-line counted twice.  Both line integrals
in s go through one routine, :func:`_line_integrals`, which takes the
integrand as kernel(s, h) over arrays of s > 0 and, a fixed block of lags
at a time, integrates their s > 0 half-lines as the rows of one
:func:`integrate_rows` call, one row component per ordered pair: the
covariance's pair kernel at every lag of a call, and the display-form
kernel of :func:`g_simple` at its one lag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, WindriskError
from .numerics import (
    DEFAULT_QUAD,
    QuadResult,
    QuadSpec,
    digamma,
    exprel,
    gamma,
    gamma_values,
    integrate_rows,
    log_ndtr,
    norm_cdf,
    scaled_normal_tail,
)
from .variogram import Variogram

__all__ = [
    "GevParams",
    "PowerSpec",
    "g_simple",
    "cov_simple",
    "var_simple",
    "cov_gev",
    "var_gev",
    "first_moment",
    "dep_measure",
    "dep_measure_from_gamma",
    "extremal_coefficient",
]

# below this squared-variogram distance the h=0 branch is returned; the
# pair function is continuous at 0 and differs from its limit by O(h) there
SMALL_H = 1e-6

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# zeta(n)/n, n = 2..39, of the series of log Gamma(1 - x), as the double
# quotient of the doubles zeta(n) and n; used where |b| + |c| <=
# _SERIES_RADIUS, so the terms fall below 2^-70 of the first
_SERIES_RADIUS = 0.25
_LGAMMA_SERIES = (
    0.8224670334241132, 0.40068563438653143, 0.27058080842778454, 0.207385551028674,
    0.16955717699740822, 0.14404989676884614, 0.12550966952474304, 0.11133426586956469,
    0.10009945751278179, 0.09095401714582904, 0.083353840546109, 0.0769325164113522,
    0.07143294629536134, 0.06666870588242046, 0.06250095514121304, 0.05882397865868458,
    0.055555767627403614, 0.05263167937961666, 0.05000004769810169, 0.04761907033014223,
    0.04545455629320467, 0.04347826605304026, 0.04166666915034121, 0.04000000119214014,
    0.03846153903467519, 0.037037037312989324, 0.03571428584733336, 0.034482758684919304,
    0.03333333336437758, 0.03225806453115041, 0.03125000000727597, 0.030303030306558048,
    0.029411764707594344, 0.02857142857226011, 0.027777777778181998, 0.027027027027223673,
    0.02631578947377995, 0.025641025641072283,
)
# the series as a bilinear form in the powers b^i, c^l (see _log_power_cov):
# M_il = zeta(n)/n C(n, i + 1) with n = i + l + 2 <= 39
_LGAMMA_PAIRS = np.array([[_LGAMMA_SERIES[i + l] * math.comb(i + l + 2, i + 1)
                           if i + l < len(_LGAMMA_SERIES) else 0.0
                           for l in range(len(_LGAMMA_SERIES))]
                          for i in range(len(_LGAMMA_SERIES))])


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


# ---------------------------------------------------------------------------
# line integrals in s = log(theta) / h
# ---------------------------------------------------------------------------

def _breakpoints(h: float) -> list:
    """Seeds of the subdivision of a half-line at lag h > 0: the integrands
    live on scales ~1/h around s=0 plus the Phi transitions near |s| = h/2."""
    return sorted({bp for bp in (
        0.25 / h, 1.0 / h, 4.0 / h, 16.0 / h, 1.0, 2.0, h / 2.0, h / 2.0 + 8.0
    ) if bp > 0.0})


# the lags of a line integral are integrated in blocks of at most this many
# (lag, component) pairs, so memory does not grow with the lag count: ten
# lags of a twelve-power dependence surface, and every lag of a lone
# covariance query or of a covariance-table piece (31 lags) in one block
_BLOCK_LANES = 120


def _line_integrals(kernel, lags, spec: QuadSpec, width: int):
    """An iterator of one QuadResult per lag h > 0 of ``lags``: the
    integral over the half-line s > 0 of ``kernel(s, h)``, a function of
    arrays s >= 0 and h of one shape that gives a (width, n) array of
    ``width`` components sharing each lag's mesh, such as the two ordered
    pairs of a covariance (see the module docstring).  The fields of each
    result are arrays of the components.

    The lags run in blocks of at most ``_BLOCK_LANES // width``, in order,
    each integrated when the iterator reaches it, so memory does not grow
    with the number of lags.  A block's lags are the rows of one
    :func:`integrate_rows` call, so each lag's value is the one it gets
    alone, and the first block that fails raises the error of its first
    failing lag, the one that lag raises alone.
    """
    step = max(1, _BLOCK_LANES // width)
    for i in range(0, len(lags), step):
        block = lags[i:i + step]
        rows = np.array(block, dtype=float)
        results = integrate_rows(lambda x, row: kernel(x, rows[row]), 0.0, math.inf,
                                 [_breakpoints(lag) for lag in block], spec)
        failed = next((r for r in results if not isinstance(r, QuadResult)), None)
        if failed is not None:
            raise failed
        yield from results


def g_simple(beta1: float, beta2: float, h: float, spec: QuadSpec = DEFAULT_QUAD) -> float:
    """Pair function of a simple Brown-Resnick field at variogram-root lag
    h, from the display form."""
    if not (beta1 < 0.5 and beta2 < 0.5):
        raise DomainError(f"second-moment condition requires beta < 1/2, got {beta1}, {beta2}")
    if h < 0.0:
        raise DomainError(f"h must be >= 0, got {h}")
    if h < SMALL_H:
        return gamma(1.0 - beta1 - beta2)
    sig = float(beta1) + float(beta2)
    lg2 = math.lgamma(2.0 - sig)
    lg1 = math.lgamma(1.0 - sig)
    # the second power of each ordered pair: (beta1, beta2), and
    # (beta2, beta1) unless it is the same
    b2 = np.array([beta2] if beta1 == beta2 else [beta2, beta1], dtype=float).reshape(-1, 1)

    def kernel(s, h):
        w = h / 2.0 + s
        lphi = log_ndtr(np.concatenate([w, h / 2.0 - s]))
        lphi_w, lphi_v = lphi[:len(s)], lphi[len(s):]
        sh = s * h
        log_c1 = np.logaddexp(lphi_w, -sh + lphi_v)
        L1 = lg2 + np.log(h) + lphi_w + lphi_v + (b2 - 1.0) * sh + (sig - 2.0) * log_c1
        L2 = lg1 - 0.5 * w * w - _LOG_SQRT_2PI + b2 * sh + (sig - 1.0) * log_c1
        return np.exp(L1) + np.exp(L2)

    r = next(_line_integrals(kernel, [h], spec, len(b2)))
    return float(r.value[0] + r.value[-1])


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


def _log_power_cov(b1, b2):
    """V(b, c) = Cov((Z^b - 1)/b, (Z^c - 1)/c) for standard Frechet Z and
    every pair (b, c) of the exponent tables b1 x b2, as an (n1, n2) array,
    where (Z^0 - 1)/0 stands for log Z.

    The closed form [Gamma(1-b-c) - Gamma(1-b) Gamma(1-c)] / (b c) cancels
    as b, c -> 0.  There V = Gamma(1-b) Gamma(1-c) expm1(b c q) / (b c) with
    b c q = log Gamma(1-b-c) - log Gamma(1-b) - log Gamma(1-c), and the
    series log Gamma(1-x) = gamma_E x + sum_n zeta(n) x^n / n gives
    q = sum_n zeta(n)/n P_n with P_n = ((b+c)^n - b^n - c^n) / (b c)
    = sum_(k=1..n-1) C(n, k) b^(k-1) c^(n-1-k): the bilinear form
    sum_il M_il b^i c^l of _LGAMMA_PAIRS, whose terms shrink like
    (|b| + |c|)^(i+l).  Gamma is evaluated once per distinct argument, and
    psi only where one power is 0 away from the series.
    """
    b, c = b1[:, None], b2[None, :]
    g_b, g_c = gamma_values(1.0 - b), gamma_values(1.0 - c)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = (gamma_values(1.0 - (b + c)) - g_b * g_c) / (b * c)
    near = np.abs(b) + np.abs(c) <= _SERIES_RADIUS
    # one power 0: Cov(Z^b, log Z) / b = -Gamma(1-b) (psi(1-b) + gamma_E) / b
    for i, j in zip(*np.nonzero(((b == 0.0) != (c == 0.0)) & ~near)):
        x, g = (b1[i], g_b[i, 0]) if b2[j] == 0.0 else (b2[j], g_c[0, j])
        v[i, j] = -g * (digamma(1.0 - x) + np.euler_gamma) / x
    if near.any():
        bn, cn = np.broadcast_to(b, v.shape)[near], np.broadcast_to(c, v.shape)[near]
        n = len(_LGAMMA_SERIES)
        q = ((np.vander(bn, n, increasing=True) @ _LGAMMA_PAIRS)
             * np.vander(cn, n, increasing=True)).sum(axis=1)
        v[near] = (g_b * g_c)[near] * q * exprel(bn * cn * q)
    return v


# the covariance kernel takes the nodes of a wave in chunks of this many, to
# keep its arrays small: 64 new panels of 15 nodes, the most one half-line
# row adds in a wave (9 in its first), so each wave of a lone lag is one
# call, and no chunk is a lone node (numpy sums the terms of a lone node
# pairwise, those of two or more in order)
_CHUNK_NODES = 960


def _pair_kernel(pairs):
    """The Hoeffding integrands of the covariances of several pairs of
    derivative tables ``pairs``, a sequence of (d1, b1, d2, b2), as
    kernel(s, h): h times each integrand at the nodes s >= 0 of lags h
    (arrays of one shape), a (len(pairs), n) array.  The values at s < 0
    are those of the swapped pairs (d2, b2, d1, b1) at -s (see the module
    docstring), so the kernel is only evaluated on the half-line s >= 0.

    The work that does not depend on the powers is done once a node: sh,
    log D, the scaled normal tail, the gap, L and -L/q, and one exprel per
    distinct exponent sum sig over all the pairs.  Each pair's sum is then
    a bilinear form at each node,

        sum_jk W_jk exprel(sig_jk L) D^(b1_j - max b1) (1+theta)^(b2_k - max b2),

    with W_jk = d1_j d2_k Gamma(1 - sig_jk) / max|W| and sig_jk = b1_j + b2_k,
    times h max|W| D^(max b1) (1+theta)^(max b2) q, whose logarithm is
    summed before its one exponential, and times -L/q in [1, 2 log 2]:
    n1 + n2 exponentials a pair at each node.  No factor but exprel and
    -L/q exceeds 1 in magnitude, and the common factor is no subnormal
    where the value is a normal double.  Every operation is elementwise or
    a sum over the terms of one node and one pair, so a node's value does
    not depend on the other nodes, nor a pair's on the other pairs.
    """
    pairs = [(d1, b1.tolist(), d2, b2.tolist()) for d1, b1, d2, b2 in pairs]
    # the distinct exponent sums of all the pairs
    sums = sorted({x + y for _, b1, _, b2 in pairs for x in b1 for y in b2})
    where = {v: i for i, v in enumerate(sums)}
    sig_values = np.array(sums).reshape(-1, 1)
    gammas = gamma_values(1.0 - sig_values)
    forms = []
    for d1, b1, d2, b2 in pairs:
        # each term's index among the distinct sums
        sig_index = np.array([[where[x + y] for y in b2] for x in b1],
                             dtype=np.intp).reshape(len(b1), len(b2))
        weights = np.outer(d1, d2)[:, :, None] * gammas[sig_index]
        top = float(np.max(np.abs(weights), initial=0.0))
        weights /= top or 1.0
        top1, top2 = max(b1, default=0.0), max(b2, default=0.0)
        forms.append((sig_index, weights, math.log(top) if top else -math.inf, top1, top2,
                      np.array([x - top1 for x in b1]).reshape(-1, 1),
                      np.array([y - top2 for y in b2]).reshape(-1, 1)))

    def kernel(s, h):
        sh = s * h
        log_d = np.logaddexp(0.0, -sh)
        # q = gap/D in (0, 1/2]: the exponent function is at least
        # half of 1/z1 + 1/z2; the gap as in the module docstring
        half_h = h / 2.0
        w, v = half_h + s, half_h - s
        e = scaled_normal_tail(np.concatenate([w, np.abs(v)]))
        e_w, e_v = e[:len(s)], e[len(s):]
        m = s - half_h
        log_gap = np.where(m <= 0.0, np.log(e_w + e_v) - 0.5 * w * w,
                           np.log1p(-np.exp(-0.5 * m * m) * np.abs(e_w - e_v)) - sh)
        log_q = log_gap - log_d
        # L = log1p(-q) and the factor -L/q, both from q raised to 1e-300:
        # below it exprel(sig L) is 1 at either q and -L/q rounds to 1
        neg_q = -np.maximum(np.exp(log_q), 1e-300)
        L = np.log1p(neg_q)
        neg_l_by_q = L / neg_q
        g = exprel(sig_values * L)
        out = np.empty((len(forms), len(s)))
        for k, (sig_index, weights, log_scale, top1, top2, rest1, rest2) in enumerate(forms):
            form = _bilinear_form(g, sig_index, weights, rest1, rest2, sh, log_d)
            # D^top1 (1 + theta)^top2 = D^(top1 + top2) theta^top2
            form *= neg_l_by_q
            out[k] = h * np.exp(log_scale + (top1 + top2) * log_d + top2 * sh + log_q) * form
        return out

    return kernel


def _bilinear_form(g, sig_index, weights, rest1, rest2, sh, log_d):
    """One pair's form sum_jk weights_jk g[sig_index_jk] D^rest1_j
    (1+theta)^rest2_k at each node (see :func:`_pair_kernel`); its
    (n1, n2, nodes) terms are freed on return, before the next pair's are
    built."""
    if sig_index.size == 1:  # one entry per side: the form is its single term
        return weights[0, 0] * g[sig_index[0, 0]]
    terms = g[sig_index]
    terms *= weights
    terms *= np.exp(rest2 * (sh + log_d))  # log(1 + theta) = sh + log D
    form = terms.sum(axis=1)
    form *= np.exp(rest1 * log_d)
    return form.sum(axis=0)


def _cov_at(p1, p2, spec: QuadSpec):
    """Cov(Z(x1)^beta1, Z(x2)^beta2) as a function of the variogram-root lag
    h = sqrt(gamma(x2 - x1)), returned as a QuadResult.

    ``p1`` and ``p2`` are PowerSpecs, or sequences of PowerSpecs of one
    length whose entries are paired in order.  The function takes a scalar
    lag or an array of lags, and the fields of its QuadResult have the
    lags' shape, behind a leading axis of the pairs for sequences.  The
    derivative tables and the variances are built once, so the returned
    function is the single place the covariance is evaluated: the
    closed-form variance below SMALL_H, its limit 0 at an infinite lag, the
    Hoeffding line integral in between, all lags and pairs in one call of
    :func:`_line_integrals`, so each lag's value is the one it gets alone,
    and the first lag that fails raises the error it raises alone.  A
    pair's line integral is the sum of the s > 0 half-lines of its ordered
    components (p1, p2) and (p2, p1), both on one row, or, where both sides
    share a derivative table, of the one component (p1, p1) counted twice.
    A pair's value at a lag whose row converges in its first wave is the
    one it gets alone too; where it refines, the pairs share the mesh their
    worst one asks for.
    """
    vector = not isinstance(p1, PowerSpec)
    pairs = list(zip(p1, p2)) if vector else [(p1, p2)]
    # each pair's two ordered components, one index twice for a shared table
    tables, variances, first, second = [], [], [], []
    for q1, q2 in pairs:
        table = _derivative_table(q1)
        _, d1, b1 = table
        _, d2, b2 = table if q2 == q1 else _derivative_table(q2)
        with np.errstate(over="ignore"):  # a weight past the double range is reported below
            wts = _finite(np.outer(d1, d2).ravel(), "a pairwise weight")
        variances.append(math.fsum(_finite(wts * _log_power_cov(b1, b2).ravel(),
                                           "a variance term")))
        first.append(len(tables))
        tables.append((d1, b1, d2, b2))
        if q2 != q1:
            tables.append((d2, b2, d1, b1))
        second.append(len(tables) - 1)
    width = len(pairs)
    at_zero = QuadResult(np.array(variances) if vector else variances[0], 0.0, 0)
    at_infinity = QuadResult(0.0, 0.0, 0)
    pair_kernel = _pair_kernel(tables)

    def kernel(s, h):
        if len(s) <= _CHUNK_NODES:
            return pair_kernel(s, h)
        return np.concatenate([pair_kernel(s[i:i + _CHUNK_NODES], h[i:i + _CHUNK_NODES])
                               for i in range(0, len(s), _CHUNK_NODES)], axis=1)

    def fold(r) -> QuadResult:
        """The pairs' results from a lag's result over the components."""
        parts = (r.value[first] + r.value[second], r.err_estimate[first] + r.err_estimate[second],
                 r.absolute_mode[first] | r.absolute_mode[second])
        value, err, absolute = parts if vector else (x[0].item() for x in parts)
        return QuadResult(value, err, r.subdivisions, absolute)

    def cov(h) -> QuadResult:
        h = np.asarray(h, dtype=float)
        flat = h.ravel().tolist()
        # the closed form below SMALL_H and the limit 0 at an infinite lag
        far = map(fold, _line_integrals(
            kernel, [lag for lag in flat if SMALL_H <= lag < math.inf], spec, len(tables)))
        results = (at_zero if lag < SMALL_H else at_infinity if lag == math.inf else next(far)
                   for lag in flat)
        if not vector:
            if h.ndim == 0:
                return next(results)
            results = list(results)
            return QuadResult(*(np.array([getattr(r, f.name) for r in results]).reshape(h.shape)
                                for f in fields(QuadResult)))
        # each field a (pairs, lags) array, filled a block of lags at a time
        columns = [np.zeros((width, len(flat)), dtype) for dtype in (float, float, int, bool)]
        for j, r in enumerate(results):
            for column, f in zip(columns, fields(QuadResult)):
                column[:, j] = getattr(r, f.name)
        return QuadResult(*(c.reshape((width,) + h.shape) for c in columns))

    return cov


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


def cov_gev(
    p1: PowerSpec,
    p2: PowerSpec,
    v: Variogram,
    x1,
    x2,
    spec: QuadSpec = DEFAULT_QUAD,
) -> float:
    """Cov(Z(x1)^beta1, Z(x2)^beta2) with per-site power and margin specs."""
    _require_moments(p1, 2)
    _require_moments(p2, 2)
    h = math.sqrt(v(np.asarray(x2, dtype=float) - np.asarray(x1, dtype=float)))
    return _cov_at(p1, p2, spec)(h).value


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


def dep_measure_from_gamma(p: PowerSpec | Sequence[PowerSpec], gamma_value,
                           spec: QuadSpec = DEFAULT_QUAD):
    """Radial convenience form of :func:`dep_measure` keyed by the variogram
    value; an array of variogram values gives the array of dependences from
    one covariance evaluation.

    ``p`` is a PowerSpec, or a sequence of them: then the result has one
    row per power, from one covariance evaluation whose quadrature rows
    carry every power on one mesh per lag.  A power's value equals its own
    call's wherever the lag's rows converge in their first wave, and lies
    within the quadrature tolerance of it elsewhere.  A batch that fails is
    evaluated again one power at a time, in order, so it raises the error
    of the first power that fails alone.
    """
    if not np.all(np.asarray(gamma_value) >= 0.0):
        raise DomainError(f"variogram value must be >= 0, got {gamma_value}")
    if isinstance(p, PowerSpec):
        return _dependence(p, gamma_value, spec)
    powers = list(p)
    if not powers:
        return np.empty((0,) + np.shape(gamma_value))
    try:
        return _dependence(powers, gamma_value, spec)
    except WindriskError:
        return np.array([_dependence(q, gamma_value, spec) for q in powers])


def _dependence(p, gamma_value, spec: QuadSpec):
    """Correlations of a PowerSpec, or of a list of them, at variogram values."""
    powers = [p] if isinstance(p, PowerSpec) else p
    for q in powers:
        _require_moments(q, 2)
    cov = _cov_at(p, p, spec)
    variance = cov(0.0).value
    if not np.all(np.asarray(variance) > 0.0):
        raise DomainError(f"degenerate power field (variance {variance}); beta=0?")
    if not isinstance(p, PowerSpec):
        variance = variance.reshape((-1,) + (1,) * np.ndim(gamma_value))
    return cov(np.sqrt(gamma_value)).value / variance


def extremal_coefficient(v: Variogram, x1, x2) -> float:
    """Pairwise extremal coefficient 2 Phi(sqrt(gamma_W(x2 - x1)) / 2) in [1, 2]."""
    g = float(v(np.asarray(x2, dtype=float) - np.asarray(x1, dtype=float)))
    return 2.0 * norm_cdf(math.sqrt(g) / 2.0)
