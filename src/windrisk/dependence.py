"""Closed-form covariance and correlation of powers of Brown-Resnick fields.

A cost field f(Z) of a simple (standard Frechet) Brown-Resnick field Z is
described by the derivative of its margin transform, a short table

    f'(z) = sum_k d_k z^(b_k - 1):

    simple margins, f(z) = z^beta         the single entry (beta, beta)
    GEV margins, f(z) = (a + c z^xi)^beta,
      a = eta - tau/xi, c = tau/xi        d_k = beta C(beta-1, k) a^k c^(beta-1-k) tau,
                                          b_k = (beta - k) xi,   k = 0 .. beta-1
    Gumbel margins (xi = 0), beta = 1     the single entry (tau, 0)

Gumbel margins with beta >= 2 have no such table, and a high power can
put an entry, or the product d_j d_k of two, past the double range; those
pairs take the nested kernel below.
Hoeffding's identity (Hoeffding 1940; Lehmann 1966),

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
gap, L and the exprel of each distinct sig are formed once a node.  Where
one covariance's exponent tables hold every other's, as those of the
highest power hold each lower power's on one GEV margin, its terms are
formed once a node and each covariance's form is the product of its
weights with the block of those terms that holds them, within rounding of
its form alone; otherwise each covariance's bilinear form follows on its
own.

The GEV table alternates in sign, and for small |xi| or a high power its
sums cancel to rounding noise that no quadrature can refine.  One rule
picks each pair's kernel: a pair takes the table only where both tables
exist and their entries and pairwise weights are finite doubles, and
:func:`_cancels` does not send it, for a rounding bound

    B = eps sum_jk |e_j e_k| (|Gamma(1-b_j-b_k)| + |Gamma(1-b_j) Gamma(1-b_k)|) / Var,

e = d/b, Var the variance (sqrt(Var1 Var2) for a mixed pair), past
rel_tol/30, a property of the input; every other pair takes the nested
kernel.  It keeps the r integral of Hoeffding's identity, in
y = log(C1/r):

    cov = int h ds int dy (z1 f1'(z1)) (z2 f2'(z2)) e^(-e^y) (-expm1(-e^y gap/C1)),

z1 = r = C1 e^-y and z2 = r theta.  Every factor is positive but z f'(z),
whose sign is that of f': on GEV margins z f'(z) = beta tau Z_gev^(beta-1)
z^xi, negative where Z_gev < 0 and beta - 1 is odd, and a negative simple
power.  The inner integral takes the moment rule's nodes (below) at
stride 2, step 0.1 in t (stride 1 where an odd power of a negative Z_gev
reaches the terms that count, whose sum then cancels), in log space below
each node's largest term, less the leading nodes whose terms a bound puts
below e^-45 of the peak (:func:`_first_inner_node`); the outer integral
is the table's, over the
same half-lines and breakpoints.  Pairs are routed one by one inside one
kernel call, and the lattice and the bilinear forms see only the pairs on
the table path, so a call none of whose pairs is routed, as on every
study margin, keeps its values bit for bit.

The mean and the variance at one site come from one positive quadrature
rule instead: with y = log(1/Z), 1/Z ~ Exp(1), E g(Z) = int g(e^-y)
e^(y - e^y) dy, and on GEV margins Z_gev = eta - tau y exprel(-xi y) is
smooth through xi = 0.  The trapezoid rule in t, y = sinh(t), at step
0.05 evaluates it in log space (log weights log(0.05 cosh t) + y - e^y,
each cost as log |f| and its sign), from y = -max(800, 40/rho), where the
variance's terms decay like e^(rho y), rho = 1 - 2 beta xi (1 - 2 beta
for simple margins), or from left of the terms' peak where it lies past
that end (near y = eta/tau - 2 beta for small |xi|), to y = 6.7, where
the weight is below e^-800.  The
variance is taken centred, sum w (f - m)^2, and the covariance of two
costs at one site as sum w (f1 - m1)(f2 - m2), so no sum cancels.

The exponent function is symmetric in its two arguments (Husler & Reiss
1989), so exchanging the sites takes theta to 1/theta and s to -s: each
kernel obeys k[p1,p2](-s, h) = k[p2,p1](s, h), and its integral over the
real line is the s > 0 half-line of the ordered pair (p1, p2) plus that of
(p2, p1).  Where one power and margin sit at both sites, as in every
dependence, the two are one half-line counted twice.  The line integrals
in s go through one routine, :func:`_line_integrals`, which takes the
integrand as kernel(s, h) over arrays of s > 0 and, a fixed block of lags
at a time, integrates their s > 0 half-lines as the rows of one
:func:`integrate_rows` call, one row component per ordered pair.

Every covariance is read from one :class:`CovModel` per (p1, p2, QuadSpec),
which owns the certified table of cov(h) that :mod:`windrisk.risk`
integrates; :func:`covariance_model` keeps the 16 latest for all callers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial import chebyshev

from .errors import ConvergenceError, DomainError, WindriskError
from .numerics import (
    DEFAULT_QUAD,
    QuadResult,
    QuadSpec,
    exprel,
    gamma_values,
    integrate_rows,
    norm_cdf,
    scaled_normal_tail,
)
from .variogram import Variogram

__all__ = [
    "GevParams",
    "PowerSpec",
    "cov_simple",
    "var_simple",
    "cov_gev",
    "var_gev",
    "mean_cost",
    "CovModel",
    "covariance_model",
    "dep_measure",
    "dep_measure_from_gamma",
    "extremal_coefficient",
]

# below this squared-variogram distance the h=0 branch is returned; the
# pair function is continuous at 0 and differs from its limit by O(h) there
SMALL_H = 1e-6

# the moment rule (see the module docstring): t = k _RULE_STEP from the
# left end of the least tail rate the moment checks let through, 2^-53 (at
# y = -40 2^53), to y = 6.7; a moment reads the nodes from its own left end
_RULE_STEP = 0.05
_RULE_T = _RULE_STEP * np.arange(math.floor(-math.asinh(40.0 * 2.0**53) / _RULE_STEP),
                                 math.ceil(math.asinh(6.7) / _RULE_STEP) + 1)
_RULE_Y = np.sinh(_RULE_T)
# the log weights less their term y, which each moment adds to the cost's
# slope in y before the product with y (see _scaled_cost)
_RULE_LOG_J = np.log(_RULE_STEP * np.cosh(_RULE_T)) - np.exp(_RULE_Y)
_RULE_ROOT_W = np.exp(0.5 * (_RULE_LOG_J + _RULE_Y))


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GevParams:
    """GEV margin triple: location eta, scale tau, shape xi, kept as floats,
    so an integer eta computes as the float one does.

    xi = 0 (Gumbel margins) is accepted, and every operation computes at
    every power: beta = 1 by its one-entry table f'(z) = tau / z, higher
    powers, which have no binomial table, by the nested kernel (see the
    module docstring).
    """

    eta: float
    tau: float
    xi: float

    def __post_init__(self):
        for name in ("eta", "tau", "xi"):
            object.__setattr__(self, name, float(getattr(self, name)))
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
    """DomainError unless E|f(Z)|^order is finite and a GEV power is at
    most 1024, the one check of every operation's domain."""
    if p.is_simple:
        if not p.beta * order < 1.0:
            raise DomainError(f"simple margins require beta < {1.0 / order:g}, got {p.beta}")
        return
    # the weights beta C(beta-1, j) sum to beta 2^(beta-1), so the largest
    # is at least 2^(beta-1): from beta = 1025 on it is past the double range
    if p.beta > 1024:
        raise DomainError(f"beta > 1024 overflows the double range for {p.margin}")
    if not p.beta * p.margin.xi * order < 1.0:
        raise DomainError(
            f"moment condition beta*xi < {1.0 / order:g} violated: "
            f"beta={p.beta}, xi={p.margin.xi}"
        )


def _finite(values, what):
    """``values`` unchanged; DomainError if one is not a finite double, as
    where a high power of the margin leaves the double range."""
    if not np.isfinite(values).all():
        raise DomainError(f"{what} of the power field is not a finite double "
                          "(beta too high for the margin?)")
    return values


def _derivative_table(p: PowerSpec):
    """(d, b) with f'(z) = sum_k d_k z^(b_k - 1) for the transform f taking
    a standard Frechet value to the power of the margin, after the moment
    check of the lag covariances; None where no table of finite doubles
    exists: Gumbel margins with beta >= 2, or an entry or an exponent past
    the double range."""
    _require_moments(p, 2)
    if p.is_simple:
        return np.array([p.beta]), np.array([p.beta])
    beta, m = int(p.beta), p.margin
    if beta == 1:  # f(z) = eta + tau (z^xi - 1)/xi, also at xi = 0
        return np.array([m.tau]), np.array([m.xi])
    if m.xi == 0.0:
        return None
    a, c = m.eta - m.tau / m.xi, m.tau / m.xi
    try:
        d = np.array([beta * math.comb(beta - 1, j) * a**j * c ** (beta - 1 - j) * m.tau
                      for j in range(beta)])
    except OverflowError:  # a float power past the double range
        return None
    b = (beta - np.arange(beta)) * m.xi
    return (d, b) if np.isfinite(d).all() and np.isfinite(b).all() else None


# a pair of tables whose rounding bound passes this share of rel_tol takes
# the nested kernel (see the module docstring)
_NESTED_SHARE = 1.0 / 30.0


# the least value of Gamma on (0, inf), at 1.4616...
_GAMMA_MIN = 0.8856031944108887


def _cancels(d1, b1, d2, b2, scale: float, limit: float) -> bool:
    """Whether the rounding bound of a pair of derivative tables relative
    to ``scale``, the variance (sqrt(Var1 Var2) for a mixed pair),

        B = eps sum_jk |e_j e_k| (|Gamma(1-b_j-b_k)| + |Gamma(1-b_j) Gamma(1-b_k)|) / scale,

    e = d/b, exceeds ``limit``.  B bounds the rounding of the variance's
    table form sum_jk e_j e_k (Gamma(1-b_j-b_k) - Gamma(1-b_j) Gamma(1-b_k)),
    since f(z) = f0 + sum_k e_k z^b_k and E Z^b = Gamma(1-b).  Its double
    sum is formed only where two bounds from single sums do not decide:
    every argument is positive (b < 1/2), where Gamma is at least
    _GAMMA_MIN and log-convex, so Gamma(1-b_j-b_k) <= sqrt(Gamma(1-2b_j)
    Gamma(1-2b_k)).  A table with an exponent 0 (Gumbel margins, a
    constant cost) has one term, which does not cancel."""
    if not scale > 0.0:  # a constant cost: no cancellation to bound
        return False
    sides = []
    for d, b in ((d1, b1), (d2, b2)):
        # sum |e| and its sums with Gamma(1 - b) and sqrt Gamma(1 - 2b), in
        # floats: the tables are short and numpy's calls cost more than the sums
        b = b.tolist()
        if 0.0 in b:
            return False
        e = [abs(x / y) for x, y in zip(d.tolist(), b)]
        sides.append((sum(e), sum(x * abs(_gamma(1.0 - y)) for x, y in zip(e, b)),
                      sum(x * math.sqrt(_gamma(1.0 - 2.0 * y)) for x, y in zip(e, b))))
    (sum1, single1, root1), (sum2, single2, root2) = sides
    eps = np.finfo(float).eps / scale
    upper = eps * (root1 * root2 + single1 * single2)
    lower = eps * (_GAMMA_MIN * sum1 * sum2 + single1 * single2)
    if upper <= limit or lower > limit:
        return lower > limit
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        e1, e2 = np.abs(d1 / b1), np.abs(d2 / b2)
        return bool(eps * (e1 @ np.abs(gamma_values(1.0 - np.add.outer(b1, b2))) @ e2
                           + single1 * single2) > limit)


def _gamma(x: float) -> float:
    """math.gamma, inf past the double range."""
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


def _rule_nodes(order: int, *powers) -> slice:
    """The nodes of the moment rule for the order-th moments of the powers'
    costs, from the left end y = -max(800, 40/rho): rho is the least
    1 - order beta xi (1 - order beta for simple margins), the rate of the
    terms' decay e^(rho y) as y -> -inf.  Where the terms of a GEV power
    peak left of that end (:func:`_peak_start`), the rule starts left of
    their peak instead."""
    first = _rule_start(order, *powers)
    return slice(min([first] + [_peak_start(order, p, first) for p in powers
                                if not p.is_simple]), None)


def _rule_start(order: int, *powers) -> int:
    """The first node of the moment rule at y = -max(800, 40/rho)."""
    rho = min(1.0 - p.beta * (1.0 if p.is_simple else p.margin.xi) * order for p in powers)
    return int(np.searchsorted(_RULE_Y, -max(800.0, 40.0 / rho)))


def _peak_start(order: int, p: PowerSpec, first: int) -> int:
    """The first node of the moment rule for the order-th moment of the
    GEV power p: ``first``, unless the terms w |Z_gev|^(order beta) still
    rise leftwards there, which puts their peak past it (near
    y = eta/tau - order beta for small |xi|, so Gumbel or small |xi| with
    beta in the hundreds and a small tau/eta); then the first node whose
    term is within e^-40 of the peak's.  The log of the terms is
    y - e^y + order beta log |Z_gev|, whose slope in y is
    1 - e^y - order beta tau e^(-xi y) / Z_gev, and it is concave, so it
    has one peak: Z_gev is concave for xi <= 0, and for xi > 0 the slope
    falls from rho as y grows."""
    m, k = p.margin, order * p.beta
    # the slope is below 0 where Z_gev > 0 and (1 - e^y) Z_gev < k tau e^(-xi y),
    # with lead = Z_gev e^(xi y) for xi > 0 and lead = Z_gev otherwise
    end = float(_RULE_Y[first])
    lead = float(_gev_factor(m, end)[0])
    tilt = 1.0 if m.xi > 0.0 or abs(m.xi) < 1e-290 else math.exp(-m.xi * end)
    if not (lead > 0.0 and (1.0 - math.exp(end)) * lead < k * m.tau * tilt):
        return first
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        y = _RULE_Y[:first]
        log_z = np.log(np.abs(_gev_factor(m, y)[0])) - (m.xi * y if m.xi > 0.0 else 0.0)
        terms = _RULE_LOG_J[:first] + y + k * log_z
    return int(np.argmax(terms > terms.max() - 40.0))


def _gev_factor(m: GevParams, y):
    """(lead, sigma, k): the factor zf(u) = eta + k expm1(sigma u) of the
    cost's derivative on GEV margins (see :func:`_derivative_side`) and its
    value lead at u = log z = -y, the nodes y of the moment rule: Z_gev,
    with sigma = xi and k = tau/xi, or for xi > 0 Z_gev e^(xi y), with
    sigma = -xi and k = eta - tau/xi, finite at every node; below
    |xi| = 1e-290, where the exprel factor of Z_gev = eta - tau y
    exprel(-xi y) is 1 to the last bit at every node, Z_gev = eta + tau u
    (sigma = 0, k = tau)."""
    if abs(m.xi) < 1e-290:
        return m.eta - m.tau * y, 0.0, m.tau
    sigma, k = (-m.xi, m.eta - m.tau / m.xi) if m.xi > 0.0 else (m.xi, m.tau / m.xi)
    return m.eta + k * np.expm1(-sigma * y), sigma, k


def _scaled_cost(p: PowerSpec, nodes: slice, k: float):
    """(u, top): u = w^k f e^-top at the nodes of the moment rule, where
    top is the largest log(w^k |f|), so that |u| <= 1, for the cost f of
    ``p``.  log |f| = slope y + rest, with the slope -beta on simple margins
    and -beta xi on GEV margins with xi > 0 (log |Z_gev| = -xi y + log |zf|,
    :func:`_gev_factor`): it is added to the weight's k before the product
    with y, so that where |y| reaches 40/rho the terms do not lose |y| ulps
    to the cancelling growth of f and decay of w."""
    y = _RULE_Y[nodes]
    slope, rest, sign = -p.beta, 0.0, 1.0
    if not p.is_simple:
        zf = _gev_factor(p.margin, y)[0]
        slope, rest = (-p.beta * p.margin.xi if p.margin.xi > 0.0 else 0.0), np.log(np.abs(zf))
        if p.beta % 2:
            sign = np.sign(zf)
        rest *= p.beta
    terms = k * _RULE_LOG_J[nodes] + (k + slope) * y + rest
    top = terms.max()
    return sign * np.exp(terms - top), top


def _site_cov(p1: PowerSpec, p2: PowerSpec) -> float:
    """Cov(f1(Z), f2(Z)) of the costs of p1 and p2 at one site by the
    moment rule, sum w (f1 - m1)(f2 - m2), for powers whose second moments
    are finite; a constant cost (beta = 0) has covariance 0."""
    if p1.beta == 0 or p2.beta == 0:
        return 0.0
    nodes = _rule_nodes(2, p1, p2)
    root_w = _RULE_ROOT_W[nodes]
    sides = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for p in (p1,) if p2 == p1 else (p1, p2):
            u, top = _scaled_cost(p, nodes, 0.5)
            u -= root_w * np.dot(root_w, u)  # sqrt(w) (f - m) e^-top
            sides.append((u, top))
        (u1, top1), (u2, top2) = sides[0], sides[-1]
        return float(np.dot(u1, u2) * np.exp(top1 + top2))


# the covariance kernel takes the nodes of a wave in chunks of this many, to
# keep its arrays small: 64 new panels of 15 nodes, the most one half-line
# row adds in a wave (9 in its first), so each wave of a lone lag is one
# call, and no chunk is a lone node (numpy sums the terms of a lone node in
# another order than those of two or more, in a pair's own form and in the
# lattice's einsum alike)
_CHUNK_NODES = 960


def _derivative_side(p: PowerSpec, y):
    """One side of the nested kernel at the inner nodes y: (slope, rest,
    power, lead, r, q), with z f'(z) = e^(slope u + rest) zf^power at
    u = log z = v - y, where zf = lead + r q(v) at the outer values v,
    lead and r over the inner nodes (power 0: simple margins and beta = 1
    have no zf).

    Simple margins: z f'(z) = beta z^beta (a negative beta is taken up in
    the kernel's sign).  GEV margins: z f'(z) = beta tau Z_gev^(beta-1)
    z^xi, with Z_gev = eta + (tau/xi) expm1(xi u); with xi > 0 the factor
    taken is zf = Z_gev e^(-xi u) = eta + (eta - tau/xi) expm1(-xi u) and
    the slope is beta xi, else zf = Z_gev and the slope xi (0, with
    Z_gev = eta + tau u, below |xi| = 1e-290, :func:`_gev_factor`).
    Since expm1(a + b) = expm1(a) + e^a expm1(b), lead is zf at v = 0 and
    each node costs one product and one sum, no exponential.  zf is
    monotone in u and has the sign of Z_gev."""
    if p.is_simple:
        return p.beta, math.log(abs(p.beta)), 0, None, None, None
    m, beta = p.margin, int(p.beta)
    # zf = eta + k expm1(sigma (v - y)) = lead + e^(-sigma y) k expm1(sigma v)
    lead, sigma, k = _gev_factor(m, y)
    slope = 0.0 if sigma == 0.0 else beta * m.xi if m.xi > 0.0 else m.xi
    r = np.exp(-sigma * y)

    def q(v):
        return k * (v if sigma == 0.0 else np.expm1(sigma * v))

    return slope, math.log(beta * m.tau), beta - 1, lead, r, q


# the nested kernel drops the leading inner nodes whose terms are below this
# (in log) relative to the peak's at every outer node: e^-45 each, at most
# 3e-18 together
_NEGLIGIBLE = -45.0


def _first_inner_node(base, leads) -> int:
    """The first inner node the nested kernel keeps, given each zf's
    (lead, power log |lead|) in ``leads``: nodes left of the peak of the
    terms at v = 0 (log C1 = 0, sh = 0), where zf = lead, drop while their
    terms relative to the peak's are below _NEGLIGIBLE at every outer node.
    log C1 >= 0 and sh >= 0, so v >= 0 at both sides; each zf is monotone
    in u and, positive at the peak, positive on its left (u larger):
    increasing and concave (then the log ratio of a node left of the peak
    to the peak falls with v, so it is largest at v = 0) or decreasing
    (then it is below 0).  So the relative term of a node left of the peak
    is at most its base relative to the peak's plus power times the
    positive part of the log ratio of the leads."""
    peak = int(np.argmax(base + sum(log for _, log in leads)))
    if any(not lead[peak] > 0.0 for lead, _ in leads):
        return 0
    bound = base[:peak] - base[peak]
    for _, log in leads:
        bound += np.maximum(log[:peak] - log[peak], 0.0)
    return int(np.argmax(np.append(bound, 0.0) > _NEGLIGIBLE))


def _nested_form(p1: PowerSpec, p2: PowerSpec):
    """The nested kernel of the ordered pair (p1, p2), as form(sh, log_c1,
    log_q1): its Hoeffding integrand over h at nodes s >= 0 given sh, log C1
    and log(gap/C1) there (see the module docstring), the inner integral in
    y by the moment rule's nodes from p1's and p2's left end of the second
    moments, at stride 2 (step 0.1 in t) unless an odd power of a negative
    zf reaches the terms that count, whose sum then cancels, or the rule
    starts left of its usual end at a far peak of the terms
    (:func:`_peak_start`), about as wide as the step there (stride 1),
    less the negligible leading nodes (:func:`_first_inner_node`).  Each
    node's terms are summed in log space below their largest, times
    -expm1(-x)/x in (0, 1], x = (gap/C1) e^y, and the sign of z1 f1'(z1)
    z2 f2'(z2): negative where one Z_gev < 0 with an odd beta - 1 or a
    simple power is negative."""
    nodes = _rule_nodes(2, p1, p2)
    y = _RULE_Y[nodes]
    sides = [_derivative_side(p1, y)]
    sides.append(sides[0] if p2 == p1 else _derivative_side(p2, y))
    (slope1, rest1, power1, *_), (slope2, rest2, power2, *_) = sides
    # the rule's log weights with their factor e^y, the y slopes and the
    # constant factors
    base = _RULE_LOG_J[nodes] + (1.0 - slope1 - slope2) * y + rest1 + rest2
    zfs = [(power, lead, r, q) for _, _, power, lead, r, q in sides if power]
    with np.errstate(divide="ignore"):  # zf = 0 is a zero of the derivative
        logs = [power * np.log(np.abs(lead)) for power, lead, _, _ in zfs]
    # zf is least at v = 0, so its negative nodes there hold all others'
    at_zero = base + sum(logs)
    counts = at_zero - at_zero.max() > _NEGLIGIBLE
    stride = 1 if nodes.start < _rule_start(2, p1, p2) or any(
        power % 2 and (lead[counts] < 0.0).any() for power, lead, _, _ in zfs) else 2
    first = _first_inner_node(base[::stride], [(lead[::stride], log[::stride])
                                               for (_, lead, _, _), log in zip(zfs, logs)])
    kept = slice(first * stride, None, stride)
    base, y = base[kept, None] + math.log(stride), y[kept]
    # each zf's lead and r as columns over the kept nodes
    zfs = [(power, lead[kept, None], r[kept, None], q) for power, lead, r, q in zfs]
    e_y = np.exp(y)[:, None]
    sign = math.copysign(1.0, p1.beta) * math.copysign(1.0, p2.beta)
    tiny = np.finfo(float).tiny

    def form(sh, log_c1, log_q1):
        # each array below is (inner nodes, outer nodes), formed in place
        zfs_at = []
        for (power, lead, r, q), v in zip(zfs, [log_c1, log_c1 + sh] if power1 else [log_c1 + sh]):
            zf = r * q(v)
            zf += lead
            # zf is monotone in u: its least value is at the last inner node
            zfs_at.append((power, zf, bool(power % 2 and zf[-1].min() < 0.0)))
        if len(zfs_at) == 2 and power1 == power2:  # one power of the product
            (_, zf1, negative1), (_, zf2, negative2) = zfs_at
            zf1 *= zf2
            zfs_at = [(power1, zf1, negative1 or negative2)]
        signs, terms = sign, None
        with np.errstate(divide="ignore"):  # zf = 0 is a zero of the derivative
            for power, zf, negative in zfs_at:
                if negative:
                    signs = signs * np.sign(zf)
                np.log(np.abs(zf, out=zf), out=zf)
                zf *= power
                terms = zf if terms is None else np.add(terms, zf, out=terms)
        if terms is None:
            terms = np.zeros((len(y), len(sh)))
        terms += base
        top = terms.max(axis=0)
        terms -= top
        scaled = np.exp(terms, out=terms)
        # -expm1(-x)/x is 1 to the last bit below the least normal x
        x = e_y * np.exp(log_q1)
        np.maximum(x, tiny, out=x)
        factor = np.expm1(np.negative(x), out=np.empty_like(x))
        factor /= x
        scaled *= factor
        if not np.isscalar(signs) or signs < 0.0:
            scaled *= signs
        return np.exp(log_q1 + (slope1 + slope2) * log_c1 + slope2 * sh + top) * -scaled.sum(axis=0)

    return form


def _pair_kernel(pairs):
    """The Hoeffding integrands of the covariances of several ordered pairs
    ``pairs``, each a pair of derivative tables (d1, b1, d2, b2) or of
    PowerSpecs (p1, p2), as kernel(s, h): h times each integrand at the
    nodes s >= 0 of lags h (arrays of one shape), a (len(pairs), n) array.
    The values at s < 0 are those of the swapped pairs (d2, b2, d1, b1) at
    -s (see the module docstring), so the kernel is only evaluated on the
    half-line s >= 0.  A pair of PowerSpecs takes the nested form of the
    module docstring (:func:`_nested_form`); the rest of this docstring is
    about the pairs of tables, which it does not touch.

    The work that does not depend on the powers is done once a node: sh,
    log D, the scaled normal tail, the gap, L and -L/q, and one exprel per
    distinct exponent sum sig over all the pairs.  Each pair's sum is then
    a bilinear form at each node,

        sum_jk W_jk exprel(sig_jk L) D^(b1_j - top1) (1+theta)^(b2_k - top2),

    with W_jk = d1_j d2_k Gamma(1 - sig_jk) / max|W| and sig_jk = b1_j + b2_k,
    times h max|W| D^top1 (1+theta)^top2 q, whose logarithm is summed
    before its one exponential, and times -L/q in [1, 2 log 2].  A lone
    pair, or pairs whose exponent tables do not nest, take top1 = max b1
    and top2 = max b2 and evaluate each pair's own form: n1 + n2
    exponentials a pair at each node, and every operation is elementwise
    or a sum over the terms of one node and one pair, so a pair's value
    does not depend on the other pairs.  Where one pair's tables hold
    every other pair's, as those of the highest GEV power hold every lower
    power's, the tops are that lattice pair's, its terms are built once a
    node, and each pair's form is the product of its weights, scattered
    into the lattice, with the block of the terms that holds them: a
    pair's value is then its own form within rounding.  No factor but exprel and -L/q exceeds 1 in
    magnitude, and the common factor is no subnormal where the value is a
    normal double.  A node's value does not depend on the other nodes.
    """
    nested = [k for k, pair in enumerate(pairs) if isinstance(pair[0], PowerSpec)]
    tabled = [k for k in range(len(pairs)) if k not in nested]
    nested_forms = [_nested_form(*pairs[k]) for k in nested]
    pairs = [(d1, b1.tolist(), d2, b2.tolist()) for d1, b1, d2, b2 in (pairs[k] for k in tabled)]
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
    lattice = _lattice(pairs, forms)

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
        out = np.empty((len(tabled) + len(nested), len(s)))
        for k, form in zip(nested, nested_forms):
            # C1 = D e^L, and gap/C1 = q e^-L
            out[k] = h * form(sh, log_d + L, log_q - L)
        if not tabled:
            return out
        neg_l_by_q = L / neg_q
        g = exprel(sig_values * L)
        if lattice is not None:
            sig_index, blocks, log_scale, top1, top2, rest1, rest2 = lattice
            form = _lattice_forms(g, sig_index, blocks, rest1, rest2, sh, log_d)
            form *= neg_l_by_q
            out[tabled] = h * np.exp(log_scale + (top1 + top2) * log_d + top2 * sh + log_q) * form
            return out
        for k, (sig_index, weights, log_scale, top1, top2, rest1, rest2) in zip(tabled, forms):
            form = _bilinear_form(g, sig_index, weights, rest1, rest2, sh, log_d)
            # D^top1 (1 + theta)^top2 = D^(top1 + top2) theta^top2
            form *= neg_l_by_q
            out[k] = h * np.exp(log_scale + (top1 + top2) * log_d + top2 * sh + log_q) * form
        return out

    return kernel


def _lattice(pairs, forms):
    """The shared terms of two or more ``pairs`` whose exponent tables nest,
    or None: where the tables of the pair with the most terms hold every
    other pair's, that pair's form of :func:`_pair_kernel` with, in place
    of its weights and log scale, each pair's weights scattered into the
    lattice, as (rows, columns, weights) of the smallest block of the
    lattice that holds them, and the (pairs, 1) column of their log
    scales."""
    if len(pairs) < 2:
        return None
    widest = max(range(len(pairs)), key=lambda k: len(pairs[k][1]) * len(pairs[k][3]))
    at1 = {x: j for j, x in enumerate(pairs[widest][1])}
    at2 = {y: k for k, y in enumerate(pairs[widest][3])}
    if not all(at1.keys() >= set(b1) and at2.keys() >= set(b2) for _, b1, _, b2 in pairs):
        return None
    blocks = []
    for (_, b1, _, b2), (_, weights, *_) in zip(pairs, forms):
        j, k = [at1[x] for x in b1], [at2[y] for y in b2]
        rows, cols = slice(min(j), max(j) + 1), slice(min(k), max(k) + 1)
        width = cols.stop - cols.start
        at = np.add.outer([(x - rows.start) * width for x in j], [y - cols.start for y in k])
        block = np.bincount(at.ravel(), weights.ravel(), (rows.stop - rows.start) * width)
        blocks.append((rows, cols, block.reshape(-1, width)))
    sig_index, _, _, top1, top2, rest1, rest2 = forms[widest]
    return (sig_index, blocks, np.array([form[2] for form in forms]).reshape(-1, 1),
            top1, top2, rest1, rest2)


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


def _lattice_forms(g, sig_index, blocks, rest1, rest2, sh, log_d):
    """Every pair's form at each node from the lattice's terms
    g[sig_index_jk] D^rest1_j (1+theta)^rest2_k (see :func:`_pair_kernel`),
    each a product of its weights with the block of the terms that holds
    them (see :func:`_lattice`)."""
    terms = g[sig_index]
    terms *= np.exp(rest2 * (sh + log_d))  # log(1 + theta) = sh + log D
    terms *= np.exp(rest1 * log_d)[:, None]
    forms = np.empty((len(blocks), len(sh)))
    # numpy's einsum, not a BLAS product: it sums each node's terms in order
    # at any count of two or more nodes, so no node depends on the others
    for form, (rows, cols, weights) in zip(forms, blocks):
        np.einsum("jk,jkn->n", weights, terms[rows, cols], out=form)
    return forms


# ---------------------------------------------------------------------------
# the covariance model and its table
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
# floors of the r2 (1e-3) and K (1e-1) integrals of windrisk.risk
_TAIL = 1e-6


@dataclass(frozen=True, eq=False)
class _CovTable:
    """cov(h) of one pair of power fields as a piecewise Chebyshev interpolant.

    Piece i covers [edges[i], edges[i+1]] and holds the Chebyshev
    coefficients of log cov, or of cov itself where a node value is not
    positive (``log_fit`` False).
    Below SMALL_H the variance is returned, as by the model;
    from ``edges[-1]`` on, 0.  ``worst_miss`` is the largest relative
    difference between the interpolant and the model at the check points.
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


class CovModel:
    """Cov(Z(x1)^beta1, Z(x2)^beta2) as a function of the variogram-root lag
    h = sqrt(gamma(x2 - x1)), the one place it is evaluated.

    ``p1`` and ``p2`` are PowerSpecs, or sequences of PowerSpecs of one
    length whose entries are paired in order.  The constructor checks the
    moments pair by pair, ``p1``'s then ``p2``'s, which raise DomainError
    before any quadrature where the lag covariances are not defined, and
    computes the ``variance`` by the moment rule (an array over the pairs
    for sequences).  It is the one place that picks a pair's kernel: the
    pair takes its derivative tables where both exist, their entries and
    pairwise weights are finite doubles and they do not cancel
    (:func:`_cancels` at rel_tol/30), and the nested kernel of the module
    docstring otherwise.  Called with a lag or an
    array of lags, the model gives a QuadResult whose fields have the
    lags' shape, behind a leading axis of the pairs for sequences: the
    variance below SMALL_H, 0 at an infinite lag, DomainError at NaN, and
    in between the sum of each pair's ordered half-lines (see the module
    docstring), all lags and pairs in one call of :func:`_line_integrals`,
    so each lag's value is the one it gets alone (within rounding where the
    pairs' exponent tables nest, see :func:`_pair_kernel`), and the first
    lag that fails raises the error it raises alone.  ``table``, of a
    single pair, is built when first read.
    """

    def __init__(self, p1, p2, spec: QuadSpec):
        self.p1, self.p2, self.spec = p1, p2, spec
        self._vector = not isinstance(p1, PowerSpec)
        sides = (p1, p2) if self._vector else ((p1,), (p2,))
        # each pair's two ordered components, one index twice for a shared table
        tables, variances, first, second = [], [], [], []
        for q1, q2 in zip(*sides):
            table1 = _derivative_table(q1)
            table2 = table1 if q2 == q1 else _derivative_table(q2)
            variances.append(_finite(_site_cov(q1, q2), "the variance"))
            scale = variances[-1] if q2 == q1 else math.sqrt(var_gev(q1) * var_gev(q2))
            nested = table1 is None or table2 is None
            if not nested:
                (d1, b1), (d2, b2) = table1, table2
                with np.errstate(over="ignore"):  # a weight past the double range
                    nested = (not np.isfinite(np.outer(d1, d2)).all()
                              or _cancels(d1, b1, d2, b2, scale, spec.rel_tol * _NESTED_SHARE))
            first.append(len(tables))
            tables.append((q1, q2) if nested else (d1, b1, d2, b2))
            if q2 != q1:
                tables.append((q2, q1) if nested else (d2, b2, d1, b1))
            second.append(len(tables) - 1)
        self._tables, self._first, self._second = tables, first, second
        self.variance = np.array(variances) if self._vector else variances[0]

    @functools.cached_property
    def _kernel(self):
        """The pairs' kernel at the nodes s, h, in chunks of _CHUNK_NODES."""
        kernel = _pair_kernel(self._tables)
        return lambda s, h: kernel(s, h) if len(s) <= _CHUNK_NODES else np.concatenate(
            [kernel(s[i:i + _CHUNK_NODES], h[i:i + _CHUNK_NODES])
             for i in range(0, len(s), _CHUNK_NODES)], axis=1)

    def __call__(self, h) -> QuadResult:
        h = np.asarray(h, dtype=float)
        if np.isnan(h).any():
            raise DomainError(f"variogram-root lag must not be NaN, got {h}")
        flat = h.ravel().tolist()
        first, second = self._first, self._second
        far = _line_integrals(self._kernel, [lag for lag in flat if SMALL_H <= lag < math.inf],
                              self.spec, len(self._tables))
        # each field a (pairs, lags) array: the variance below SMALL_H, the
        # limit 0 at an infinite lag, and a pair's components summed between
        value, err = np.zeros((2, len(first), len(flat)))
        subdivisions = np.zeros(value.shape, int)
        absolute = np.zeros(value.shape, bool)
        for j, lag in enumerate(flat):
            if lag < SMALL_H:
                value[:, j] = self.variance
            elif lag < math.inf:
                r = next(far)
                value[:, j] = r.value[first] + r.value[second]
                err[:, j] = r.err_estimate[first] + r.err_estimate[second]
                subdivisions[:, j] = r.subdivisions
                absolute[:, j] = r.absolute_mode[first] | r.absolute_mode[second]
        parts = [x.reshape(value.shape[:self._vector] + h.shape)
                 for x in (value, err, subdivisions, absolute)]
        return QuadResult(*(x.item() for x in parts) if parts[0].ndim == 0 else parts)

    @functools.cached_property
    def table(self) -> _CovTable:
        """The certified covariance table of the pair, built a bisection
        level at a time: one call of the model gives every piece of the
        level its nodes and its check points, at _CHECK_X, against which
        its fit is compared; each lag gets the value it gets alone.  A
        piece that misses by more than rel_tol/10 relative (to at least the
        tail floor _TAIL * rel_tol * var) is bisected into the next level;
        at _MAX_BISECTIONS levels the leftmost piece that misses raises
        ConvergenceError, with the direct value at its worst miss.  The
        range is doubled from 24 until cov <= _TAIL * rel_tol * var.
        A model of several pairs raises DomainError.
        """
        if self._vector:
            raise DomainError("the covariance table is built for a single pair, "
                              "not a sequence of them")
        spec, variance = self.spec, self.variance
        floor = max(_TAIL * spec.rel_tol * variance, np.finfo(float).tiny)

        edges = list(_TABLE_EDGES)
        for _ in range(_MAX_DOUBLINGS):
            if abs(self(edges[-1]).value) <= _TAIL * spec.rel_tol * variance:
                break
            edges.append(2.0 * edges[-1])
        else:
            raise ConvergenceError(
                f"covariance has not decayed to {_TAIL * spec.rel_tol:g} of the "
                f"variance by lag h = {edges[-1]!r}",
                best_estimate=self(edges[-1]).value,
            )

        pieces = []
        worst = 0.0
        level = list(zip(edges, edges[1:]))
        for depth in range(_MAX_BISECTIONS + 1):
            # one covariance call for the nodes and check points of every piece
            # of the level, each piece's nodes then its check points
            points = [lo + 0.5 * (hi - lo) * (x + 1.0)
                      for lo, hi in level for x in (_CHEB_X, _CHECK_X)]
            values = self(np.concatenate(points)).value
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


# named apart from the dep_measure*, cov_*, g_* and var_* functions that
# perfbench's tracer counts as the public dependence calls
@functools.lru_cache(maxsize=16)
def covariance_model(p1, p2, spec: QuadSpec) -> CovModel:
    """CovModel(p1, p2, spec) of PowerSpecs or tuples of them, kept for 16."""
    return CovModel(p1, p2, spec)


def mean_cost(p: PowerSpec) -> float:
    """E[C(0)] = E[Z(0)^beta] by the moment rule, sum w f (see the module
    docstring), for either margin mode; Gumbel margins at every power."""
    _require_moments(p, 1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u, top = _scaled_cost(p, _rule_nodes(1, p), 1.0)
        return _finite(float(u.sum() * np.exp(top)), "the mean")


def var_gev(p: PowerSpec) -> float:
    """Var(Z(0)^beta) by the moment rule, sum w (f - m)^2, for either margin
    mode; Gumbel margins at every power."""
    _require_moments(p, 2)
    return _finite(_site_cov(p, p), "the variance")


def cov_gev(
    p1: PowerSpec,
    p2: PowerSpec,
    v: Variogram,
    x1,
    x2,
    spec: QuadSpec = DEFAULT_QUAD,
) -> float:
    """Cov(Z(x1)^beta1, Z(x2)^beta2) with per-site power and margin specs."""
    cov = covariance_model(p1, p2, spec)
    h = math.sqrt(v(np.asarray(x2, dtype=float) - np.asarray(x1, dtype=float)))
    return cov(h).value


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
    carry every power on one mesh per lag.  A power's value lies within
    rounding of its own call's wherever the lag's rows converge in their
    first wave (on one GEV margin every power's terms are formed from the
    highest power's), and within the quadrature tolerance of it elsewhere;
    it equals its own call's where the powers' exponent tables do not nest,
    as for simple margins of different powers.  A batch that fails is
    evaluated again one power at a time, in order, so it raises the error
    of the first power that fails alone.
    """
    if not np.all(np.asarray(gamma_value) >= 0.0):
        raise DomainError(f"variogram value must be >= 0, got {gamma_value}")
    if isinstance(p, PowerSpec):
        return _dependence(p, gamma_value, spec)
    powers = tuple(p)
    if not powers:
        return np.empty((0,) + np.shape(gamma_value))
    try:
        return _dependence(powers, gamma_value, spec)
    except WindriskError:
        return np.array([_dependence(q, gamma_value, spec) for q in powers])


def _dependence(p, gamma_value, spec: QuadSpec):
    """Correlations of a PowerSpec, or of a tuple of them, at variogram values."""
    cov = covariance_model(p, p, spec)
    variance = cov.variance
    if not np.all(np.asarray(variance) > 0.0):
        raise DomainError(f"degenerate power field (variance {variance}); beta=0?")
    if not isinstance(p, PowerSpec):
        variance = variance.reshape((-1,) + (1,) * np.ndim(gamma_value))
    return cov(np.sqrt(gamma_value)).value / variance


def extremal_coefficient(v: Variogram, x1, x2) -> float:
    """Pairwise extremal coefficient 2 Phi(sqrt(gamma_W(x2 - x1)) / 2) in [1, 2]."""
    g = float(v(np.asarray(x2, dtype=float) - np.asarray(x1, dtype=float)))
    return 2.0 * norm_cdf(math.sqrt(g) / 2.0)
