"""Special functions and adaptive quadrature.

Everything downstream (dependence integrals, distance-density integrals,
radial covariance integrals) funnels through :func:`integrate_rows`, a
globally adaptive Gauss-Kronrod (G7/K15) scheme with a QUADPACK-style error
estimate that carries many integrands at once; :func:`integrate` is its
one-integrand call.  Semi-infinite domains are handled by an explicit,
documented change of variables selected in :class:`QuadSpec`:

    ``rational``   x = a + t/(1-t),   dx = dt/(1-t)^2,   t in (0, 1)
    ``log``        x = a - log(1-t),  dx = dt/(1-t),     t in (0, 1)

Kronrod nodes are interior, so endpoint singularities of the mapped
integrand are never evaluated directly.  Each panel's estimates are numpy
sums over its own 15 values, so a panel, and with it a row, gets the same
estimates in any batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import ndtri as _ndtri

from .errors import CancelledError, ConvergenceError, DomainError, WindriskError

__all__ = [
    "QuadSpec",
    "QuadResult",
    "DEFAULT_QUAD",
    "exprel",
    "gamma",
    "norm_cdf",
    "norm_pdf",
    "norm_quantile",
    "std_normal",
    "integrate",
    "integrate_rows",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# quadrature accuracy contract
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadSpec:
    """Accuracy contract for adaptive quadrature.

    rel_tol          relative accuracy target for the error estimate
    abs_floor        absolute fallback target: a result is also accepted
                     once its absolute error estimate drops below this
                     floor, so near-zero integrals (and outer integrals of
                     noisy inner evaluations) do not stall on the relative
                     criterion
    max_subdivisions hard cap on interval bisections
    infinite_map     change of variables for (a, inf) domains
    should_cancel    optional cooperative cancellation token, polled
                     between refinement waves
    """

    rel_tol: float = 3e-7
    abs_floor: float = 1e-12
    max_subdivisions: int = 400
    infinite_map: str = "rational"
    should_cancel: Optional[Callable[[], bool]] = field(default=None, compare=False)

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise DomainError("rel_tol must be > 0")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")
        if self.infinite_map not in ("rational", "log"):
            raise DomainError(f"unknown infinite_map {self.infinite_map!r}")


DEFAULT_QUAD = QuadSpec()


@dataclass(frozen=True)
class QuadResult:
    value: float
    err_estimate: float
    subdivisions: int
    absolute_mode: bool = False  # True when accepted via the abs_floor fallback


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def gamma(x: float) -> float:
    """Gamma function for real arguments away from the poles 0, -1, -2, ..."""
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise DomainError(f"gamma pole at x={x}")
    try:
        return math.gamma(x)
    except (ValueError, OverflowError) as exc:  # pragma: no cover - guarded above
        raise DomainError(f"gamma undefined or overflowing at x={x}") from exc


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


def norm_quantile(alpha: float) -> float:
    """Inverse of :func:`norm_cdf` on (0, 1).

    A library inverse supplies the starting point; one Newton step against
    the erfc-based cdf pins the inversion residual below 1e-12.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"quantile level must lie in (0, 1), got {alpha}")
    q = float(_ndtri(alpha))
    pdf = norm_pdf(q)
    if pdf > 0.0:
        q -= (norm_cdf(q) - alpha) / pdf
    return q


def std_normal(kind: str, x: float) -> float:
    """Dispatcher over the three standard normal evaluations."""
    if kind == "cdf":
        return norm_cdf(x)
    if kind == "pdf":
        return norm_pdf(x)
    if kind == "quantile":
        return norm_quantile(x)
    raise DomainError(f"unknown std_normal kind {kind!r}")


# ---------------------------------------------------------------------------
# Gauss-Kronrod 7/15 panel rule (QUADPACK dqk15 constants)
# ---------------------------------------------------------------------------

_XGK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])

_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])

# 7-point Gauss weights sit on the odd Kronrod nodes
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])
_GAUSS_IDX = np.arange(1, 15, 2)

_NPOINTS = 15
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _panel_estimates(fvals: np.ndarray, half_widths: np.ndarray):
    """Kronrod value and QUADPACK-style error for a batch of panels.

    fvals has shape (n_panels, 15); half_widths has shape (n_panels,).
    Each weighted sum is a numpy sum over one panel's own values, so a
    panel's estimates do not depend on the other panels of the batch.
    """
    resk = (fvals * _WGK).sum(axis=-1)
    resg = (fvals[:, _GAUSS_IDX] * _WG).sum(axis=-1)
    resabs = (np.abs(fvals) * _WGK).sum(axis=-1)
    mean = 0.5 * resk
    resasc = (np.abs(fvals - mean[:, None]) * _WGK).sum(axis=-1)

    value = resk * half_widths
    resabs = resabs * half_widths
    resasc = resasc * half_widths
    err = np.abs(resk - resg) * half_widths
    # sharpen the raw difference the way QUADPACK does
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where(resasc > 0.0, resasc * scaled, err)
    # never report below the rounding noise of the panel sum
    floor = resabs * (50.0 * _EPS)
    err = np.where(resabs > _TINY / (50.0 * _EPS), np.maximum(err, floor), err)
    return value, err


def _make_map(a: float, b: float, kind: str):
    """Return (phi, inverse) mapping t in [t_lo, t_hi] onto the x domain."""
    if math.isinf(b):
        if kind == "rational":
            def phi(t):
                om = 1.0 - t
                return a + t / om, 1.0 / om**2

            def inv(x):
                u = x - a
                return u / (1.0 + u)
        else:  # log map
            def phi(t):
                om = 1.0 - t
                return a - np.log(om), 1.0 / om

            def inv(x):
                return -np.expm1(-(x - a))
        return phi, inv, 0.0, 1.0

    def phi(t):
        return t, np.ones_like(t)

    def inv(x):
        return x

    return phi, inv, a, b


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadSpec = DEFAULT_QUAD,
    breakpoints: Sequence[float] = (),
) -> QuadResult:
    """Adaptive Gauss-Kronrod integration of a vectorized integrand.

    ``f`` must accept an ndarray of abscissae and return the integrand
    values elementwise.  ``b`` may be ``math.inf``; the change of
    variables is taken from ``spec.infinite_map``.  ``breakpoints`` seed
    the initial subdivision (in x coordinates) and are clipped to the
    domain; useful when the caller knows where the integrand is peaked.

    Returns a :class:`QuadResult`; raises :class:`ConvergenceError` if the
    subdivision budget is exhausted (carrying the best estimate) and
    :class:`CancelledError` when the cancellation token fires.  This is the
    one-row call of :func:`integrate_rows`.
    """
    result = integrate_rows(lambda x, row: f(x), a, b, [breakpoints], spec)[0]
    if isinstance(result, WindriskError):
        raise result
    return result


class _Row:
    """Panel store of one row: t bounds, Kronrod values and error
    estimates, kept sorted by lower bound."""

    __slots__ = ("lo", "hi", "val", "err", "n_subdiv")

    def __init__(self, edges):
        self.lo = np.array(edges[:-1])
        self.hi = np.array(edges[1:])
        self.n_subdiv = len(edges) - 2


def _initial_edges(a, b, t_lo, t_hi, inv, breakpoints):
    edges = [t_lo, t_hi]
    for bp in breakpoints:
        if a < bp < b or (math.isinf(b) and bp > a):
            t = float(inv(bp))
            if t_lo < t < t_hi:
                edges.append(t)
    return sorted(set(edges))


def _eval_panels(f, phi, rows, lows, highs, counts):
    """Kronrod values and errors of new panels, with one call of ``f``.

    ``lows``/``highs`` hold the t bounds of ``counts[i]`` consecutive panels
    of row ``rows[i]``, for each i (``rows`` and ``counts`` are lists).
    Returns (values, errors, finite) where ``finite[i]`` tells whether row
    ``rows[i]`` had only finite integrand values; the panels of a row that
    did not are estimated from zeros, so their discarded estimates raise no
    floating-point warning.  All panels are reduced in one
    :func:`_panel_estimates` call, each from its own values alone.
    """
    centers = 0.5 * (lows + highs)
    halfw = 0.5 * (highs - lows)
    xs, jac = phi((centers[:, None] + halfw[:, None] * _XGK[None, :]).ravel())
    fv = np.asarray(f(xs, np.repeat(rows, np.multiply(counts, _NPOINTS))), dtype=float) * jac
    fv = fv.reshape(len(lows), _NPOINTS)
    finite = np.logical_and.reduceat(np.isfinite(fv).all(axis=1), np.cumsum(counts) - counts)
    fv[np.repeat(~finite, counts)] = 0.0
    vals, errs = _panel_estimates(fv, halfw)
    return vals, errs, finite.tolist()


def integrate_rows(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: float,
    b: float,
    breakpoints: Sequence[Sequence[float]],
    spec: QuadSpec = DEFAULT_QUAD,
) -> list:
    """Adaptive Gauss-Kronrod integration of many integrands ("rows") over
    one domain, in one loop.

    ``f(x, row)`` gets an ndarray of abscissae and, elementwise, the index
    of the row each one belongs to, and returns the integrand values.
    ``breakpoints`` holds one sequence per row, as in :func:`integrate`;
    its length is the number of rows.  Each row keeps its own panels, its
    own refinement waves (the panels carrying the top half of its error,
    at most 32 a wave), its own acceptance test (``rel_tol * |total|`` or
    ``abs_floor``) and its own ``max_subdivisions`` budget, so its result
    is the one it would get alone.  A wave makes one call of ``f`` over
    the new panels of every row still refining, each row's panels
    consecutive.

    Returns one entry per row: its :class:`QuadResult`, or the error that
    ended it, a :class:`ConvergenceError` carrying its best estimate or a
    :class:`DomainError` for a non-finite integrand value.  Once a row has
    failed, the rows after it are dropped and get None: a caller's outcome
    is decided by its first failing row.  The cancellation token is polled
    between waves and raises :class:`CancelledError`.
    """
    a = float(a)
    b = float(b)
    if not b > a:
        raise DomainError(f"integration domain requires b > a, got [{a}, {b}]")
    if math.isinf(a):
        raise DomainError("lower endpoint must be finite")

    phi, inv, t_lo, t_hi = _make_map(a, b, spec.infinite_map)
    store = [_Row(_initial_edges(a, b, t_lo, t_hi, inv, bps)) for bps in breakpoints]
    results = [None] * len(store)
    failures = {}

    # the first wave evaluates every row's initial panels
    todo = [(r, row.lo, row.hi, None) for r, row in enumerate(store)]
    while todo:
        counts = [len(t[1]) for t in todo]
        vals, errs, finite = _eval_panels(
            f, phi, [t[0] for t in todo], np.concatenate([t[1] for t in todo]),
            np.concatenate([t[2] for t in todo]), counts)
        live = []
        pos = 0
        for (r, lows, highs, picked), n, ok in zip(todo, counts, finite):
            v, e = vals[pos:pos + n], errs[pos:pos + n]
            pos += n
            if not ok:
                failures[r] = DomainError("integrand returned a non-finite value")
                continue
            row = store[r]
            if picked is None:
                row.val, row.err = v, e
            else:
                # left halves replace the split panels, right halves are appended
                row.hi[picked] = highs[0::2]
                row.val[picked] = v[0::2]
                row.err[picked] = e[0::2]
                lo = np.concatenate([row.lo, lows[1::2]])
                order = np.argsort(lo, kind="stable")
                row.lo = lo[order]
                row.hi = np.concatenate([row.hi, highs[1::2]])[order]
                row.val = np.concatenate([row.val, v[1::2]])[order]
                row.err = np.concatenate([row.err, e[1::2]])[order]
                row.n_subdiv += len(picked)
            total = math.fsum(row.val.tolist())
            total_err = math.fsum(row.err.tolist())
            if total_err <= spec.rel_tol * abs(total):
                results[r] = QuadResult(total, total_err, row.n_subdiv)
            elif total_err <= spec.abs_floor:
                results[r] = QuadResult(total, total_err, row.n_subdiv, absolute_mode=True)
            else:
                live.append((r, total, total_err))
        if live and spec.should_cancel is not None and spec.should_cancel():
            raise CancelledError("integration cancelled by token")

        todo = []
        for r, total, total_err in live:
            if failures and r > min(failures):
                break  # rows past the first failure are dropped
            row = store[r]
            if row.n_subdiv >= spec.max_subdivisions:
                failures[r] = ConvergenceError(
                    f"quadrature did not converge within {spec.max_subdivisions} "
                    f"subdivisions (best {total!r}, err {total_err!r})",
                    best_estimate=total,
                    err_estimate=total_err,
                )
                continue
            # split the panels carrying the top half of the error, a wave at a time
            budget = min(32, max(1, spec.max_subdivisions - row.n_subdiv))
            order = np.argsort(-row.err, kind="stable")
            reached = np.flatnonzero(np.cumsum(row.err[order]) >= 0.5 * total_err)
            picked = order[:min(budget, reached[0] + 1 if reached.size else len(order))]
            lo, hi = row.lo[picked], row.hi[picked]
            mid = 0.5 * (lo + hi)
            todo.append((r, np.column_stack([lo, mid]).ravel(),
                         np.column_stack([mid, hi]).ravel(), picked))

    for r, exc in failures.items():
        results[r] = exc
    first = min(failures, default=len(results))
    return results[:first + 1] + [None] * (len(results) - first - 1)
