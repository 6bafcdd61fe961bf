"""Special functions and the tanh-sinh quadrature of finite integrals.

The special functions need numpy alone: ``scaled_normal_tail`` comes from
a piecewise polynomial table of erfcx, ``norm_quantile`` from Wichura's
AS241 and a Newton step, and ``gamma_values`` from ``math.gamma`` once per
distinct argument.

The covariance's half-lines take a fixed exp-sinh ladder of their own
(:mod:`windrisk.dependence`).  The integrals over distance of
:mod:`windrisk.risk` go through :func:`integrate_rows`, the same kind of
ladder on finite pieces: a tanh-sinh trapezoid rule at steps 1/2 down to
1/128 that carries many integrands at once, each with its own pieces and
its own acceptance.  :func:`integrate` is its one-integrand call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, WindriskError

__all__ = [
    "QuadSpec",
    "QuadResult",
    "DEFAULT_QUAD",
    "exprel",
    "gamma_values",
    "norm_cdf",
    "norm_pdf",
    "norm_quantile",
    "scaled_normal_tail",
    "integrate",
    "integrate_rows",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# glibc's malloc serves a block above its mmap threshold (128 kB at start)
# from a fresh mapping, unmaps it when it is freed, and trims the heap once
# its free top exceeds twice the threshold, so the covariance kernel's
# temporaries, up to a few MB a call, would be faulted in page by page on
# every call: a study_sweep pass takes about 38 000 minor page faults
# without this line and 500 with it.  Freeing one mapped 4 MB block raises
# the process's thresholds to 4 and 8 MB, so later blocks up to 4 MB are
# reused from the heap.  It does nothing under another allocator or where
# MALLOC_MMAP_THRESHOLD_ is set.  (Importing scipy.special did the same as
# a side effect.)
np.empty(1 << 19)


# ---------------------------------------------------------------------------
# quadrature accuracy contract
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadSpec:
    """Accuracy contract for quadrature.

    rel_tol    relative accuracy target for the error estimate, finite, > 0
    abs_floor  absolute fallback target, >= 0: a result is also accepted
               once its absolute error estimate drops below this floor,
               so near-zero integrals (and outer integrals of noisy inner
               evaluations) do not stall on the relative criterion
    """

    rel_tol: float = 3e-7
    abs_floor: float = 1e-12

    def __post_init__(self):
        if not 0.0 < self.rel_tol < math.inf:
            raise DomainError(f"rel_tol must be finite and > 0, got {self.rel_tol}")
        if not self.abs_floor >= 0.0:
            raise DomainError(f"abs_floor must be >= 0, got {self.abs_floor}")


DEFAULT_QUAD = QuadSpec()


@dataclass(frozen=True)
class QuadResult:
    """A value, its error estimate (its change from the ladder's last
    level) and the level that accepted it (``subdivisions``)."""

    value: float
    err_estimate: float
    subdivisions: int
    absolute_mode: bool = False  # True when accepted via the abs_floor fallback


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def gamma_values(x) -> np.ndarray:
    """Gamma elementwise on an array of arguments away from the poles, from
    math.gamma once per distinct argument; inf where Gamma overflows."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel().tolist()
    known = dict.fromkeys(flat)
    for v in known:
        try:
            known[v] = math.gamma(v)
        except OverflowError:
            known[v] = math.inf
    return np.array([known[v] for v in flat]).reshape(x.shape)


# E(a) = erfcx(a/sqrt(2))/2 for a >= 0, so that Phi(-a) = E(a) exp(-a^2/2), is
# E = U P_j(U - j) with U = 48/(3 + a) in (0, 16] and j = floor(U).  Row j
# holds the coefficients of P_j, w^0 first, from tools/erfcx_table.py
# (mpmath's Chebyshev interpolants of E/U, degree 8 on pieces of unit width).
_ERFCX_SCALE, _ERFCX_SHIFT = 48.0, 3.0
_ERFCX_PIECES = np.array([
    (0.00831129750836318, 0.0005194560942726794, 2.885867190455504e-05, 1.3527502402285364e-06,
     4.697052153423399e-08, 5.870544719849196e-10, -6.510932541019376e-11,
     -5.7277399089903126e-12, -9.24229150345051e-14),
    (0.008861012511427162, 0.0005814220746714438, 3.320351679037644e-05, 1.544995034492925e-06,
     4.872229130373661e-08, 7.089106689349943e-11, -1.0740882923576705e-10,
     -6.5368590798384584e-12, 1.1090573267939965e-13),
    (0.009477231777271064, 0.0006526586476524796, 3.812979925316042e-05,
     1.7382223538798693e-06, 4.7244689888333077e-08, -7.046332319377327e-10,
     -1.495561026068642e-10, -5.661130065652967e-12, 3.823805035608214e-13),
    (0.010169804831752388, 0.0007343174349083674, 4.361853660472182e-05, 1.916986937056387e-06,
     4.130689026786258e-08, -1.699380791159712e-09, -1.7807641426483834e-10,
     -2.5180548811031766e-12, 5.991562481469386e-13),
    (0.010949697217716698, 0.0008274611182945037, 4.959763770082039e-05,
     2.0616045901783464e-06, 3.0092661104814303e-08, -2.787061528482456e-09,
     -1.7886660633504022e-10, 2.4225038969334477e-12, 6.321213097242317e-13),
    (0.011828844708089795, 0.0009329465916183401, 5.593252239426089e-05, 2.150647480042449e-06,
     1.3603320467134042e-08, -3.7738995835061086e-09, -1.4455551959250425e-10,
     7.607002345800323e-12, 4.4624470395980393e-13),
    (0.01281988416250105, 0.001051298312116805, 6.242634966817659e-05, 2.164721892703126e-06,
     -7.137149110254776e-09, -4.456464637644274e-09, -7.940921281582549e-11,
     1.1221102414080848e-11, 1.2560249921564978e-13),
    (0.013935761884502478, 0.0011825939493088904, 6.883217582478336e-05,
     2.0904202358228994e-06, -3.020920106595222e-08, -4.690272973951466e-09,
     2.0575964687634136e-12, 1.2183461837322376e-11, -1.937214094709222e-13),
    (0.01518924354444527, 0.001326385369576816, 7.487555988700823e-05, 1.9231374220533905e-06,
     -5.321692349164277e-08, -4.432985713801195e-09, 8.151392116534087e-11,
     1.0545159894641383e-11, -4.078679541799319e-13),
    (0.016592370053073156, 0.0014816714286311431, 8.028277349139396e-05,
     1.6679163848882249e-06, -7.381864286138925e-08, -3.745357209733623e-09,
     1.437660616026818e-10, 7.193576054415032e-12, -4.82645772173457e-13),
    (0.0181559147580575, 0.0016469276325013257, 8.480845125901397e-05, 1.3382883064780962e-06,
     -9.017093304370485e-08, -2.7587673419197296e-09, 1.806818783230625e-10,
     3.271151953575853e-12, -4.4124110381340514e-13),
    (0.019888896383935723, 0.001820186025829303, 8.825746947516064e-05, 9.537203178649189e-07,
     -1.0117089689819896e-07, -1.6307110242201713e-09, 1.9142868226091001e-10,
     -2.8642230846891116e-13, -3.321086739862982e-13),
    (0.02179819098876028, 0.001999150432500773, 9.049815405438439e-05, 5.365295707562487e-07,
     -1.0648624457748688e-07, -5.067525979801504e-10, 1.8036871151406727e-10,
     -2.944234258602049e-12, -2.0218076471984632e-13),
    (0.023888269289111315, 0.0021813289105656964, 9.146639581476018e-05,
     1.0901007111337827e-07, -1.0643163230667283e-07, 5.023189982808028e-10,
     1.543212059488136e-10, -4.547009507622428e-12, -8.386934243894332e-14),
    (0.026161067825939906, 0.0023641664109015402, 9.116207640745314e-05,
     -3.0877068499114853e-07, -1.0177020044783119e-07, 1.3280768894491972e-09,
     1.2031529440038177e-10, -5.1974357569081125e-12, 6.705750439280931e-15),
    (0.028615987215564912, 0.002545164496807495, 8.96401196901483e-05, -7.00345945720503e-07,
     -9.35065044768965e-08, 1.9412121755417764e-09, 8.423343584626372e-11,
     -5.123828395191495e-12, 6.585839255919947e-14),
    (0.03125, 0.0027219798484542862, 8.699861269328968e-05, -1.053450818261002e-06,
     -8.271165371033331e-08, 2.3427119405812884e-09, 5.0270572394623144e-11,
     -4.580779189099693e-12, 9.719528423378925e-14),
]).T
# Horner's order: row k holds the coefficients of w^(8 - k)
_ERFCX_HORNER = np.ascontiguousarray(_ERFCX_PIECES[::-1])


def scaled_normal_tail(a) -> np.ndarray:
    """E(a) = Phi(-a) exp(a^2/2) = erfcx(a/sqrt(2))/2 elementwise for a >= 0,
    as a float array, from the table above: within 7e-16 relative of
    120-bit values; 0 at inf and nan at nan."""
    a = np.asarray(a, dtype=float)
    u = _ERFCX_SCALE / (a.reshape(-1) + _ERFCX_SHIFT)
    # u <= 16 for a >= 0, and a nan takes the index of the last piece
    j = np.fmin(u, _ERFCX_SCALE / _ERFCX_SHIFT).astype(np.intp)
    w = u - j
    coeffs = _ERFCX_HORNER.take(j, axis=1)
    e = coeffs[0]
    for c in coeffs[1:]:
        e *= w
        e += c
    e *= u
    return e.reshape(a.shape)


def exprel(x) -> np.ndarray:
    """(e^x - 1)/x elementwise, as a float array, from expm1.

    It has scipy.special.exprel's values where that quotient is not a
    number: 1 at x = 0 (from (0 + 1)/(0 + 1)) and inf at x = inf; and, as
    the quotient gives them, inf past the overflow of e^x, 0 at -inf and
    nan at nan.
    """
    x = np.asarray(x, dtype=float)
    zero = x == 0.0
    if x.max(initial=0.0) < 709.0:  # e^x is a finite double
        return (np.expm1(x) + zero) / (x + zero)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(x == np.inf, x, (np.expm1(x) + zero) / (x + zero))


def norm_cdf(x: float) -> float:
    """Standard normal distribution function Phi(x)."""
    return 0.5 * math.erfc(-float(x) * _INV_SQRT2)


def norm_pdf(x: float) -> float:
    """Standard normal density phi(x)."""
    x = float(x)
    return math.exp(-0.5 * x * x) / SQRT_2PI


# Wichura's AS241 (PPND16, Applied Statistics 37:477-484, 1988): rational
# approximations of the normal quantile, highest power first, each
# denominator with a leading 1 understood
_AS241_CENTRAL = (
    (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
     4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
     1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
     2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
     4.2313330701600911252e1),
)
_AS241_INTERMEDIATE = (
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
     4.63033784615654529590e0, 1.42343711074968357734e0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
     2.05319162663775882187e0),
)
_AS241_TAIL = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
     5.46378491116411436990e0, 6.65790464350110377720e0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1),
)


def _rational(coeffs, r: float) -> float:
    num = 0.0
    for c in coeffs[0]:
        num = num * r + c
    den = 0.0
    for c in coeffs[1]:
        den = den * r + c
    return num / (den * r + 1.0)


def _ndtri(p: float) -> float:
    """Normal quantile on (0, 1) by AS241, about 1e-16 relative."""
    q = p - 0.5
    if abs(q) <= 0.425:
        return q * _rational(_AS241_CENTRAL, 0.180625 - q * q)
    r = math.sqrt(-math.log(p if q < 0.0 else 1.0 - p))
    if r <= 5.0:
        x = _rational(_AS241_INTERMEDIATE, r - 1.6)
    else:
        x = _rational(_AS241_TAIL, r - 5.0)
    return -x if q < 0.0 else x


def norm_quantile(alpha: float) -> float:
    """Inverse of :func:`norm_cdf` on (0, 1).

    Wichura's AS241 supplies the starting point; one Newton step against
    the erfc-based cdf pins the inversion residual below 1e-12.  Above the
    median the residual is taken in the upper tail, 1 - alpha - Phi(-q),
    where both terms keep their relative accuracy.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"quantile level must lie in (0, 1), got {alpha}")
    q = _ndtri(alpha)
    pdf = norm_pdf(q)
    if pdf > 0.0:
        if alpha <= 0.5:
            q -= (norm_cdf(q) - alpha) / pdf
        else:
            q -= ((1.0 - alpha) - norm_cdf(-q)) / pdf
    return q


# ---------------------------------------------------------------------------
# tanh-sinh ladder
# ---------------------------------------------------------------------------

def _tanh_sinh_level(step: float, t: np.ndarray):
    """(left, offset, weight) of the nodes t of one level: a node lies at
    lo + half offset, offset = 1 + tanh(u), u = (pi/2) sinh t, where left
    (t < 0), else at hi + half offset, offset = tanh(u) - 1, each exact
    next to its end; its weight step (pi/2) cosh t / cosh(u)^2 is dx/half."""
    u = 0.5 * math.pi * np.sinh(t)
    offset = np.where(t < 0.0, 2.0 / (1.0 + np.exp(-2.0 * u)), -2.0 / (1.0 + np.exp(2.0 * u)))
    return t < 0.0, offset, step * 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2


# level 0 has every node of step 1/2 in [-3, 3], each later level the odd
# multiples of its halved step, down to 1/128: 13, 25, 49, ..., 769 nodes
_LADDER = [_tanh_sinh_level(0.5, -3.0 + 0.5 * np.arange(13))] + [
    _tanh_sinh_level(2.0**-k, -3.0 + 2.0**-k * (2 * np.arange(3 * 2**k) + 1))
    for k in range(2, 8)]


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadSpec = DEFAULT_QUAD,
    breakpoints: Sequence[float] = (),
) -> QuadResult:
    """The one-row call of :func:`integrate_rows`: ``f`` takes an ndarray
    of abscissae and returns the integrand values elementwise.  Returns a
    :class:`QuadResult`, or raises the error of its row."""
    result = integrate_rows(lambda x, row: f(x), a, b, [breakpoints], spec)[0]
    if isinstance(result, WindriskError):
        raise result
    return result


def integrate_rows(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: float,
    b: float,
    breakpoints: Sequence[Sequence[float]],
    spec: QuadSpec = DEFAULT_QUAD,
) -> list:
    """Tanh-sinh integration of many integrands ("rows") over one finite
    domain [a, b], in one loop.

    ``f(x, row)`` gets an ndarray of abscissae and, elementwise, the index
    of the row each one belongs to, and returns the integrand values.
    ``breakpoints`` holds one sequence per row: those inside (a, b) split
    [a, b] into the row's pieces, where the integrand may have a kink or a
    peak.  Each piece [lo, hi] takes the trapezoid rule in t of
    x = lo + half (1 + tanh((pi/2) sinh t)), t in [-3, 3], which converges
    double-exponentially on an integrand analytic inside the piece,
    singular ends included, and evaluates an end only where rounding puts
    a node on it (Takahasi & Mori 1974, Publ. RIMS 9:721-741); an
    integrable end singularity loses what lies within 4e-14 half of its end.  A level of the ladder is one call
    of ``f`` over the pieces of the rows still live.  A piece's sum runs
    over its own nodes and a row's value is the math.fsum of its pieces,
    so a row's result is the one it gets alone.

    A row is accepted from step 1/4 on, once its change from the last
    level, its error estimate, meets ``rel_tol * |value|`` or
    ``abs_floor``; ``subdivisions`` is the accepting level.  Returns one
    entry per row: its :class:`QuadResult`, or the error that ended it, a
    :class:`ConvergenceError` carrying the best estimate and error
    estimate when it still misses at step 1/128, or a :class:`DomainError`
    for a non-finite integrand value.  Once a row has failed, the rows
    after it are dropped and get None: a caller's outcome is decided by
    its first failing row.
    """
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b) and b > a):
        raise DomainError(f"integration domain must be finite with b > a, got [{a}, {b}]")

    edges = [sorted({a, b}.union(x for x in map(float, bps) if a < x < b))
             for bps in breakpoints]
    lo = np.array([x for e in edges for x in e[:-1]])
    hi = np.array([x for e in edges for x in e[1:]])
    half = 0.5 * (hi - lo)
    start = np.cumsum([0] + [len(e) - 1 for e in edges])  # row r's pieces: start[r]:start[r + 1]
    owner = np.repeat(np.arange(len(edges)), np.diff(start))
    totals = np.zeros(len(lo))
    previous = [0.0] * len(edges)
    results = [None] * len(edges)
    first = len(edges)  # the first failing row

    live = list(range(len(edges)))
    for level, (left, offset, weights) in enumerate(_LADDER):
        if not live:
            break
        pieces = np.concatenate([np.arange(start[r], start[r + 1]) for r in live])
        x = np.where(left, lo[pieces, None], hi[pieces, None]) + half[pieces, None] * offset
        values = np.asarray(f(x.ravel(), np.repeat(owner[pieces], len(offset))), dtype=float)
        with np.errstate(invalid="ignore", over="ignore"):
            sums = (values.reshape(x.shape) * weights).sum(axis=1) * half[pieces]
            totals[pieces] = 0.5 * totals[pieces] + sums  # the totals are 0 at level 0
        for r in live:
            if r > first:
                break  # rows past the first failure are dropped
            own = totals[start[r]:start[r + 1]]
            if not np.isfinite(own).all():
                results[r] = DomainError("integrand returned a non-finite value")
                first = r
                continue
            value = math.fsum(own.tolist())
            change = abs(value - previous[r])
            previous[r] = value
            if level > 0 and (change <= spec.rel_tol * abs(value) or change <= spec.abs_floor):
                results[r] = QuadResult(value, change, level,
                                        not change <= spec.rel_tol * abs(value))
            elif level == len(_LADDER) - 1:
                results[r] = ConvergenceError(
                    f"quadrature did not converge by step 1/128 (best {value!r}, err {change!r})",
                    best_estimate=value, err_estimate=change)
                first = r
        live = [r for r in live if r < first and results[r] is None]
    return results[:first + 1] + [None] * (len(results) - first - 1)
