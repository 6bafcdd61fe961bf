"""Special functions and adaptive quadrature.

Everything downstream (dependence integrals, distance-density integrals,
radial covariance integrals) funnels through :func:`integrate`, a globally
adaptive Gauss-Kronrod (G7/K15) scheme with a QUADPACK-style error
estimate.  Semi-infinite domains are handled by an explicit, documented
change of variables selected in :class:`QuadSpec`:

    ``rational``   x = a + t/(1-t),   dx = dt/(1-t)^2,   t in (0, 1)
    ``log``        x = a - log(1-t),  dx = dt/(1-t),     t in (0, 1)

Kronrod nodes are interior, so endpoint singularities of the mapped
integrand are never evaluated directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import ndtri as _ndtri

from .errors import CancelledError, ConvergenceError, DomainError

__all__ = [
    "QuadSpec",
    "QuadResult",
    "DEFAULT_QUAD",
    "gamma",
    "norm_cdf",
    "norm_pdf",
    "norm_quantile",
    "std_normal",
    "integrate",
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


def _panel_estimates(fvals: np.ndarray, half_widths: np.ndarray):
    """Kronrod value and QUADPACK-style error for a batch of panels.

    fvals has shape (n_panels, 15); half_widths has shape (n_panels,).
    """
    resk = fvals @ _WGK
    resg = fvals[:, _GAUSS_IDX] @ _WG
    resabs = np.abs(fvals) @ _WGK
    mean = 0.5 * resk
    resasc = np.abs(fvals - mean[:, None]) @ _WGK

    value = resk * half_widths
    resabs = resabs * half_widths
    resasc = resasc * half_widths
    err = np.abs(resk - resg) * half_widths
    # sharpen the raw difference the way QUADPACK does
    nz = resasc > 0.0
    scaled = np.ones_like(err)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled[nz] = np.minimum(1.0, (200.0 * err[nz] / resasc[nz]) ** 1.5)
    err = np.where(nz, resasc * scaled, err)
    # never report below the rounding noise of the panel sum
    tiny = np.finfo(float).tiny
    eps = np.finfo(float).eps
    floor = resabs * (50.0 * eps)
    err = np.where(resabs > tiny / (50.0 * eps), np.maximum(err, floor), err)
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
    :class:`CancelledError` when the cancellation token fires.
    """
    a = float(a)
    b = float(b)
    if not b > a:
        raise DomainError(f"integration domain requires b > a, got [{a}, {b}]")
    if math.isinf(a):
        raise DomainError("lower endpoint must be finite")

    phi, inv, t_lo, t_hi = _make_map(a, b, spec.infinite_map)

    edges = [t_lo, t_hi]
    for bp in breakpoints:
        if a < bp < b or (math.isinf(b) and bp > a):
            t = float(inv(bp))
            if t_lo < t < t_hi:
                edges.append(t)
    edges = sorted(set(edges))

    def eval_panels(bounds):
        """bounds: list of (lo, hi) in t space -> arrays (value, err)."""
        lows = np.array([p[0] for p in bounds])
        highs = np.array([p[1] for p in bounds])
        centers = 0.5 * (lows + highs)
        halfw = 0.5 * (highs - lows)
        ts = centers[:, None] + halfw[:, None] * _XGK[None, :]
        xs, jac = phi(ts.ravel())
        fv = np.asarray(f(xs), dtype=float) * jac
        fv = fv.reshape(len(bounds), _NPOINTS)
        if not np.all(np.isfinite(fv)):
            raise DomainError("integrand returned a non-finite value")
        return _panel_estimates(fv, halfw)

    panels = [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]
    vals, errs = eval_panels(panels)
    store = [[p[0], p[1], vals[i], errs[i]] for i, p in enumerate(panels)]
    n_subdiv = len(store) - 1

    while True:
        total = math.fsum(p[2] for p in store)
        total_err = math.fsum(p[3] for p in store)
        if total_err <= spec.rel_tol * abs(total):
            return QuadResult(total, total_err, n_subdiv)
        if total_err <= spec.abs_floor:
            return QuadResult(total, total_err, n_subdiv, absolute_mode=True)
        if spec.should_cancel is not None and spec.should_cancel():
            raise CancelledError("integration cancelled by token")
        if n_subdiv >= spec.max_subdivisions:
            raise ConvergenceError(
                f"quadrature did not converge within {spec.max_subdivisions} "
                f"subdivisions (best {total!r}, err {total_err!r})",
                best_estimate=total,
                err_estimate=total_err,
            )

        # split the panels carrying the top half of the error, a wave at a time
        order = sorted(range(len(store)), key=lambda i: store[i][3], reverse=True)
        budget = min(
            32,
            max(1, spec.max_subdivisions - n_subdiv),
        )
        picked = []
        acc = 0.0
        for i in order:
            picked.append(i)
            acc += store[i][3]
            if acc >= 0.5 * total_err or len(picked) >= budget:
                break
        new_bounds = []
        for i in picked:
            lo, hi, _, _ = store[i]
            mid = 0.5 * (lo + hi)
            new_bounds.append((lo, mid))
            new_bounds.append((mid, hi))
        vals, errs = eval_panels(new_bounds)
        for j, i in enumerate(picked):
            store[i] = [new_bounds[2 * j][0], new_bounds[2 * j][1],
                        vals[2 * j], errs[2 * j]]
            store.append([new_bounds[2 * j + 1][0], new_bounds[2 * j + 1][1],
                          vals[2 * j + 1], errs[2 * j + 1]])
        store.sort(key=lambda p: p[0])
        n_subdiv += len(picked)
