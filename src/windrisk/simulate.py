"""Monte-Carlo generators and empirical estimators for max-stable fields.

Simulation methods
------------------
Brown-Resnick fields are simulated exactly with the extremal-functions
construction: one spectral function is drawn conditioned on attaining the
maximum at each site in turn, and a candidate is accepted only when it
does not exceed the running maximum at any previously finished site.
The expected number of spectral draws equals the number of sites, and the
output is an unbiased sample of the joint distribution, which is what
lets the analytic modules pin golden values against this module.

Most candidates are rejected (about 97% on a 1961-site disk with psi = 1),
so a candidate for site k is tested before it is fully evaluated: the
anchor W_k first, then sites k-1, k-2, ..., 0 in blocks of _SITE_BLOCK,
and the candidate is dropped at the first block where it reaches the
running maximum.  Site j of the Cholesky field reads only the first j
normals and row j-1 of the lower-triangular factor, so a block costs its
own rows and nothing else.  This is exact: a candidate is accepted iff it
stays below the maximum at every site < k, whichever order the sites are
tested in, and the normals of every candidate are still drawn in full and
in the same order, so each replicate consumes its stream exactly as a
full-head test would.  Only the accepted candidates are extended to the
sites after k; at the sites before k they lie below the maximum and
change nothing.  ``return_meta`` reports the number of spectral draws and
of accepted candidates.

Spectral functions use a centred Gaussian field with the target variogram,
anchored at the first site.  Exact quadratic variograms (the Smith case)
admit a rank-two representation W(x) = (x - x0)' Q^(1/2) z, z ~ N(0, I2),
which is used instead of a dense factorization; all other variograms go
through an anchored-covariance Cholesky factor with jitter-and-retry.

A truncated-spectral fallback (fixed number of Poisson points) is kept
for speed comparisons; its bias is reported empirically through the
fraction of sites whose running maximum was still updated in the last
tenth of the spectral sequence.

Mixed moving maxima (Smith and tube) simulate storm centers on the grid
bounding box dilated by the effective storm radius (``dilation_sigmas``
standard deviations for Gaussian shapes, the exact radius for tubes) and
stop once the next Poisson magnitude cannot exceed the running minimum.

Reproducibility
---------------
Every replicate owns an independent child stream spawned from
``numpy.random.SeedSequence(seed)``; replicate r consumes only its own
stream in a fixed order, so serial and batched executions produce
bit-identical values per replicate index.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional

import numpy as np

from .dependence import GevParams
from .errors import ConvergenceError, DomainError
from .geometry import Region
from .variogram import Variogram

__all__ = [
    "Grid",
    "FieldSample",
    "McEstimate",
    "gaussian_increment_field",
    "brown_resnick_at",
    "simulate_brown_resnick",
    "simulate_smith",
    "simulate_tube",
    "simulate_schlather",
    "gev_transform",
    "gev_transform_values",
    "region_grid",
    "grid_region_mask",
    "mc_normalized_loss",
    "mc_risk",
    "write_field_samples",
    "read_field_samples",
]

_MAX_DENSE_POINTS = 4096


# ---------------------------------------------------------------------------
# grid and sample containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """Regular rectangular grid: origin corner, counts, spacing."""

    origin: tuple
    nx: int
    ny: int
    spacing: float

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise DomainError("grid counts must be >= 1")
        if not self.spacing > 0.0:
            raise DomainError(f"spacing must be > 0, got {self.spacing}")
        object.__setattr__(self, "origin", (float(self.origin[0]), float(self.origin[1])))

    @property
    def n_points(self) -> int:
        return self.nx * self.ny

    @property
    def center(self) -> tuple:
        return (
            self.origin[0] + 0.5 * (self.nx - 1) * self.spacing,
            self.origin[1] + 0.5 * (self.ny - 1) * self.spacing,
        )

    def points(self) -> np.ndarray:
        """Row-major (nx*ny, 2) coordinates; index = ix * ny + iy."""
        xs = self.origin[0] + self.spacing * np.arange(self.nx)
        ys = self.origin[1] + self.spacing * np.arange(self.ny)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel()])


@dataclass(frozen=True)
class FieldSample:
    """One grid realization; margin None means standard Frechet (simple)."""

    grid: Grid
    values: np.ndarray
    margin: Optional[GevParams] = None
    seed: int = 0
    replicate: int = 0
    meta: Optional[dict] = field(default=None, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.nx, self.grid.ny):
            raise DomainError(
                f"values shape {vals.shape} does not match grid ({self.grid.nx}, {self.grid.ny})"
            )
        object.__setattr__(self, "values", vals)


class McEstimate(NamedTuple):
    value: float
    std_error: float
    warning: Optional[str] = None


# ---------------------------------------------------------------------------
# Gaussian machinery
# ---------------------------------------------------------------------------

def _pairwise_variogram(v: Variogram, points: np.ndarray) -> np.ndarray:
    """Dense matrix gamma(x_i - x_j), built in row blocks."""
    n = len(points)
    out = np.empty((n, n))
    block = max(1, int(2e6 // max(n, 1)))
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        diff = points[i0:i1, None, :] - points[None, :, :]
        out[i0:i1] = v(diff.reshape(-1, 2)).reshape(i1 - i0, n)
    return out


def _anchored_cov(v: Variogram, points: np.ndarray, gamma_mat: np.ndarray) -> np.ndarray:
    """Covariance of W at points[1:] for W anchored at points[0]:
    C_ij = (gamma_i0 + gamma_j0 - gamma_ij) / 2."""
    g0 = gamma_mat[0]
    return 0.5 * (g0[1:, None] + g0[None, 1:] - gamma_mat[1:, 1:])


def _cholesky_with_jitter(cov: np.ndarray) -> np.ndarray:
    """Cholesky factor of cov; on failure, of a copy with a growing jitter
    on its diagonal.  cov itself is never modified."""
    scale = max(float(np.trace(cov)) / max(len(cov), 1), 1.0)
    jittered = cov
    for exponent in (None, -12, -10, -8):
        if exponent is not None:
            jittered = cov.copy()
            jittered[np.diag_indices_from(jittered)] += scale * 10.0 ** exponent
        try:
            return np.linalg.cholesky(jittered)
        except np.linalg.LinAlgError:
            pass
    raise ConvergenceError("covariance factorization failed even with jitter")


def _quadratic_projection(v: Variogram, points: np.ndarray) -> np.ndarray:
    """P with W = P @ z, z ~ N(0, I2), for exact quadratic variograms."""
    q = v.quadratic_matrix()
    eigval, eigvec = np.linalg.eigh(q)
    root = eigvec @ np.diag(np.sqrt(np.maximum(eigval, 0.0))) @ eigvec.T
    return (points - points[0]) @ root


def gaussian_increment_field(v: Variogram, grid: Grid, seed: int) -> np.ndarray:
    """One draw of the centred Gaussian field W with stationary increments,
    variogram v, and W(origin) = 0, as an (nx, ny) array."""
    pts = grid.points()
    n = len(pts)
    if n > _MAX_DENSE_POINTS:
        raise DomainError(f"grid too large for dense factorization ({n} > {_MAX_DENSE_POINTS})")
    sampler = _GaussianSampler(v, pts)
    z = np.random.default_rng(seed).standard_normal((1, sampler.dim(n - 1)))
    return sampler.values(z, 0, n).reshape(grid.nx, grid.ny)


# ---------------------------------------------------------------------------
# Brown-Resnick: exact extremal functions and truncated spectral
# ---------------------------------------------------------------------------

# sites per matrix product when the Cholesky field is evaluated, and so per
# accept/reject test of an exact Brown-Resnick candidate; of 32, 64 and 128,
# 64 was the fastest on the 1961 sites of the disk at psi = 1
_SITE_BLOCK = 64


def _replicate_rngs(seed: int, n_rep: int):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n_rep)]


class _GaussianSampler:
    """The anchored Gaussian field (0 at site 0) as a linear map of standard
    normals z: W_j = L[j-1, :j] @ z[:j] through the Cholesky factor L of the
    anchored covariance, or W_j = P[j] @ z with two normals for exact
    quadratic variograms.  ``gamma_mat`` is the caller's pairwise variogram
    matrix of ``points``, built here when the Cholesky path needs it.
    """

    def __init__(self, v: Variogram, points: np.ndarray, gamma_mat=None):
        if v.is_quadratic:
            self.proj = _quadratic_projection(v, points)
            self.chol = None
            self.block = max(len(points), 1)  # cheap rows: one block per test
        else:
            if gamma_mat is None:
                gamma_mat = _pairwise_variogram(v, points)
            self.chol = _cholesky_with_jitter(_anchored_cov(v, points, gamma_mat))
            self.proj = None
            self.block = _SITE_BLOCK

    def dim(self, k: int) -> int:
        """The number of normals that fix the field at sites 0..k."""
        return 2 if self.chol is None else k

    def values(self, z: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Field at sites [lo, hi) for the draws z, shape (m, hi - lo); z
        needs at least dim(hi - 1) columns and later columns are ignored.

        The Cholesky path multiplies rows lo-1 .. hi-2 of L by the first
        hi-1 columns of z, _SITE_BLOCK rows at a time, each block with only
        the columns its last row reaches: of the zeros above the diagonal of
        L it reads only those inside each block.  Because site j depends on
        z[:j] alone, the field at a few sites of a draw costs a few rows,
        which is what lets the exact simulator reject a candidate before its
        whole head is known.  The rank-2 path is one product.
        """
        if self.chol is None:
            return z @ self.proj[lo:hi].T
        out = np.zeros((len(z), hi - lo))
        for a in range(max(lo, 1), hi, _SITE_BLOCK):
            b = min(a + _SITE_BLOCK, hi)
            out[:, a - lo:b - lo] = z[:, :b - 1] @ self.chol[a - 1:b - 1, :b - 1].T
        return out


def _extremal_functions(v, points, n_rep, seed):
    """Exact replicates (n_rep, n) and the draw counters of the run."""
    n = len(points)
    gamma_mat = _pairwise_variogram(v, points)
    sampler = _GaussianSampler(v, points, gamma_mat)
    rngs = _replicate_rngs(seed, n_rep)
    log_z = np.full((n_rep, n), -np.inf)
    draws = accepted = 0

    for k in range(n):
        gam = np.array([rng.exponential() for rng in rngs])
        active = np.flatnonzero(-np.log(gam) > log_z[:, k])
        drift = 0.5 * gamma_mat[k]
        head_dim, tail_dim = sampler.dim(k), sampler.dim(n - 1) - sampler.dim(k)
        while active.size:
            m = active.size
            z = np.empty((m, head_dim))
            for i, r in enumerate(active):
                z[i] = rngs[r].standard_normal(head_dim)
            log_gam = np.log(gam[active])[:, None]
            # the first block ends at the anchor site k; sites k-1, k-2, ...,
            # 0 are then tested a block at a time, and the candidates that a
            # block rejects leave rows, z, anchor and log_gam together
            lo, hi = max(k + 1 - sampler.block, 0), k
            w = sampler.values(z, lo, k + 1)
            anchor, w = w[:, -1:], w[:, :-1]
            rows = active
            while True:
                ok = (w - anchor - drift[lo:hi] - log_gam < log_z[rows, lo:hi]).all(axis=1)
                if not ok.any():
                    rows = rows[:0]
                    break
                if not ok.all():
                    rows, z, anchor, log_gam = rows[ok], z[ok], anchor[ok], log_gam[ok]
                if lo == 0:
                    break
                lo, hi = max(lo - sampler.block, 0), lo
                w = sampler.values(z, lo, hi)
            draws += m
            accepted += rows.size
            if rows.size:
                z_full = np.empty((rows.size, head_dim + tail_dim))
                z_full[:, :head_dim] = z
                for i, r in enumerate(rows):
                    z_full[i, head_dim:] = rngs[r].standard_normal(tail_dim)
                # an accepted candidate lies below the maximum at sites < k
                # and equals -log(gam) at site k; only the tail can change
                log_y = sampler.values(z_full, k + 1, n) - anchor - drift[k + 1:]
                log_z[rows, k] = np.maximum(log_z[rows, k], -log_gam[:, 0])
                log_z[rows, k + 1:] = np.maximum(log_z[rows, k + 1:], log_y - log_gam)
            for r in active:
                gam[r] += rngs[r].exponential()
            active = active[-np.log(gam[active]) > log_z[active, k]]

    return np.exp(log_z), {"spectral_draws": draws, "accepted": accepted}


def _truncated_spectral(v, points, n_rep, seed, n_points):
    if n_points < 1:
        raise DomainError("n_points must be >= 1")
    n = len(points)
    gamma_mat = _pairwise_variogram(v, points)
    sampler = _GaussianSampler(v, points, gamma_mat)
    var_w = gamma_mat[0]  # Var W(x_i) anchored at site 0
    rngs = _replicate_rngs(seed, n_rep)
    Z = np.zeros((n_rep, n))
    late = 0
    for r, rng in enumerate(rngs):
        # per-replicate draw order: all Poisson gaps, then the Gaussian block
        gams = np.cumsum(rng.exponential(size=n_points))
        ws = sampler.values(rng.standard_normal((n_points, sampler.dim(n - 1))), 0, n)
        logy = ws - 0.5 * var_w[None, :] - np.log(gams)[:, None]
        argmax = np.argmax(logy, axis=0)
        Z[r] = np.exp(logy[argmax, np.arange(n)])
        late += int(np.sum(argmax + 1 > 0.9 * n_points))
    return Z, {
        "late_update_fraction": late / (n_rep * n),
        "n_points": int(n_points),
    }


def brown_resnick_at(
    v: Variogram,
    points,
    n_rep: int,
    seed: int,
    method: str = "extremal_functions",
    n_points: int = 1000,
    return_meta: bool = False,
):
    """Simple Brown-Resnick replicates at arbitrary sites, shape (n_rep, len(points)).

    ``extremal_functions`` is exact and reports its ``spectral_draws`` and
    ``accepted`` candidates, totals over replicates; ``truncated_spectral``
    keeps only ``n_points`` Poisson points and reports the empirical
    late-update fraction as its bias diagnostic.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != 2:
        raise DomainError(f"points must be (n, 2), got {points.shape}")
    if len(points) > _MAX_DENSE_POINTS:
        raise DomainError(
            f"too many sites for dense simulation ({len(points)} > {_MAX_DENSE_POINTS})"
        )
    if n_rep < 1:
        raise DomainError("n_rep must be >= 1")
    if method == "extremal_functions":
        values, diag = _extremal_functions(v, points, n_rep, seed)
    elif method == "truncated_spectral":
        values, diag = _truncated_spectral(v, points, n_rep, seed, n_points)
    else:
        raise DomainError(f"unknown method {method!r}")
    meta = {"method": method, **diag}
    return (values, meta) if return_meta else values


def _to_field_samples(values, grid, seed, margin=None, meta=None):
    return [
        FieldSample(
            grid=grid,
            values=values[r].reshape(grid.nx, grid.ny),
            margin=margin,
            seed=seed,
            replicate=r,
            meta=meta,
        )
        for r in range(len(values))
    ]


def simulate_brown_resnick(
    v: Variogram,
    grid: Grid,
    n_rep: int,
    seed: int,
    method: str = "extremal_functions",
    n_points: int = 1000,
) -> List[FieldSample]:
    """Simple-margin Brown-Resnick replicates on a grid."""
    values, meta = brown_resnick_at(
        v, grid.points(), n_rep, seed, method=method, n_points=n_points, return_meta=True
    )
    return _to_field_samples(values, grid, seed, meta=meta)


# ---------------------------------------------------------------------------
# mixed moving maxima: Smith and tube
# ---------------------------------------------------------------------------

def _m3_simulate(grid, n_rep, seed, radius, f_max, shape_fn):
    """Generic M3 driver: storms on the dilated bounding box, stopping once
    the next Poisson magnitude cannot beat the running minimum."""
    pts = grid.points()
    xs = pts[:, 0]
    ys = pts[:, 1]
    lo_x, hi_x = xs.min() - radius, xs.max() + radius
    lo_y, hi_y = ys.min() - radius, ys.max() + radius
    nu_box = (hi_x - lo_x) * (hi_y - lo_y)
    rngs = _replicate_rngs(seed, n_rep)
    n = grid.n_points
    out = np.zeros((n_rep, n))
    ny = grid.ny
    x0, y0 = grid.origin
    dx = grid.spacing
    for r, rng in enumerate(rngs):
        Z = out[r]
        gam = 0.0
        while True:
            gam += rng.exponential()
            u = nu_box / gam
            zmin = Z.min()
            if zmin > 0.0 and u * f_max <= zmin:
                break
            cx = rng.uniform(lo_x, hi_x)
            cy = rng.uniform(lo_y, hi_y)
            ix0 = max(0, int(math.ceil((cx - radius - x0) / dx)))
            ix1 = min(grid.nx - 1, int(math.floor((cx + radius - x0) / dx)))
            iy0 = max(0, int(math.ceil((cy - radius - y0) / dx)))
            iy1 = min(grid.ny - 1, int(math.floor((cy + radius - y0) / dx)))
            if ix0 > ix1 or iy0 > iy1:
                continue
            wx = x0 + dx * np.arange(ix0, ix1 + 1) - cx
            wy = y0 + dx * np.arange(iy0, iy1 + 1) - cy
            vals = u * shape_fn(wx[:, None], wy[None, :])
            rows = np.arange(ix0, ix1 + 1) * ny
            idx = (rows[:, None] + np.arange(iy0, iy1 + 1)[None, :]).ravel()
            Z[idx] = np.maximum(Z[idx], vals.ravel())
    return out


def simulate_smith(
    sigma, grid: Grid, n_rep: int, seed: int, dilation_sigmas: float = 4.0
) -> List[FieldSample]:
    """Smith (M3 with Gaussian storm shapes) replicates on a grid.

    Storm centers live on the bounding box dilated by ``dilation_sigmas``
    standard deviations; contributions beyond that radius are dropped,
    biasing the per-site Frechet scale by at most exp(-dilation^2/2)
    (3.4e-4 at the default 4 sigma).
    """
    sigma = np.asarray(sigma, dtype=float)
    from .variogram import quadratic_form

    quadratic_form(sigma)  # validates SPD
    sig_inv = np.linalg.inv(sigma)
    det = float(np.linalg.det(sigma))
    f_max = 1.0 / (2.0 * math.pi * math.sqrt(det))
    radius = dilation_sigmas * math.sqrt(float(np.max(np.linalg.eigvalsh(sigma))))

    def shape(wx, wy):
        quad = (
            sig_inv[0, 0] * wx**2
            + 2.0 * sig_inv[0, 1] * wx * wy
            + sig_inv[1, 1] * wy**2
        )
        return f_max * np.exp(-0.5 * quad)

    values = _m3_simulate(grid, n_rep, seed, radius, f_max, shape)
    return _to_field_samples(values, grid, seed)


def simulate_tube(r_storm: float, grid: Grid, n_rep: int, seed: int) -> List[FieldSample]:
    """Tube model (M3 with uniform disk storms of radius r_storm); exact."""
    if not r_storm > 0.0:
        raise DomainError(f"storm radius must be > 0, got {r_storm}")
    height = 1.0 / (math.pi * r_storm**2)

    def shape(wx, wy):
        return np.where(wx**2 + wy**2 < r_storm**2, height, 0.0)

    values = _m3_simulate(grid, n_rep, seed, r_storm, height, shape)
    return _to_field_samples(values, grid, seed)


def simulate_schlather(
    correlation, grid: Grid, n_rep: int, seed: int, n_points: int = 1000
) -> List[FieldSample]:
    """Schlather replicates: truncated spectral with Y = sqrt(2 pi) max(eps, 0).

    ``correlation`` maps a distance to the correlation of the underlying
    stationary standard Gaussian field.  Bias of the truncation is
    reported as with the Brown-Resnick truncated method.
    """
    pts = grid.points()
    n = len(pts)
    if n > _MAX_DENSE_POINTS:
        raise DomainError(f"grid too large for dense factorization ({n})")
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    corr = np.asarray(correlation(dist), dtype=float)
    if corr.shape != (n, n):
        raise DomainError("correlation function must evaluate elementwise on distances")
    chol = _cholesky_with_jitter(corr)
    rngs = _replicate_rngs(seed, n_rep)
    values = np.zeros((n_rep, n))
    c = math.sqrt(2.0 * math.pi)
    late = 0
    for r, rng in enumerate(rngs):
        gams = np.cumsum(rng.exponential(size=n_points))
        eps = rng.standard_normal((n_points, n)) @ chol.T
        y = c * np.maximum(eps, 0.0) / gams[:, None]
        argmax = np.argmax(y, axis=0)
        values[r] = y[argmax, np.arange(n)]
        late += int(np.sum(argmax + 1 > 0.9 * n_points))
    meta = {"method": "schlather_truncated",
            "late_update_fraction": late / (n_rep * n),
            "n_points": int(n_points)}
    return _to_field_samples(values, grid, seed, meta=meta)


# ---------------------------------------------------------------------------
# margin transform and loss estimators
# ---------------------------------------------------------------------------

def gev_transform_values(values, p: GevParams):
    """Map simple-margin values to GEV margins:
    (eta - tau/xi) + tau z^xi / xi, or eta + tau log z when xi = 0."""
    z = np.asarray(values, dtype=float)
    if p.xi == 0.0:
        return p.eta + p.tau * np.log(z)
    return (p.eta - p.tau / p.xi) + p.tau * z**p.xi / p.xi


def gev_transform(sample: FieldSample, p: GevParams) -> FieldSample:
    """GEV-margin copy of a simple-margin field sample."""
    if sample.margin is not None:
        raise DomainError("gev_transform expects a simple-margin sample")
    return FieldSample(
        grid=sample.grid,
        values=gev_transform_values(sample.values, p),
        margin=p,
        seed=sample.seed,
        replicate=sample.replicate,
        meta=sample.meta,
    )


def region_grid(region: Region, lam: float, spacing_factor: int = 50) -> Grid:
    """Grid covering the lam-scaled region, centered, with spacing
    diameter / spacing_factor."""
    if not lam > 0.0:
        raise DomainError(f"lam must be > 0, got {lam}")
    diameter = region.max_distance() * lam
    spacing = diameter / spacing_factor
    half = region.scaled_size * lam
    if region.shape == "square":
        half *= 0.5
    count = int(math.floor(2.0 * half / spacing + 1e-9)) + 1
    extent = (count - 1) * spacing
    origin = (-extent / 2.0, -extent / 2.0)
    return Grid(origin=origin, nx=count, ny=count, spacing=spacing)


def grid_region_mask(grid: Grid, region: Region, lam: float, center=None) -> np.ndarray:
    """Boolean mask of grid points inside the lam-scaled region."""
    if center is None:
        center = grid.center
    return region.contains(grid.points(), center=center, extra_scale=lam)


def mc_normalized_loss(samples: List[FieldSample], region: Region, lam: float, beta: float):
    """One normalized-loss value per replicate: the midpoint Riemann mean
    of C = Z^beta over the grid points inside the lam-scaled region
    centered at the grid center."""
    if not samples:
        raise DomainError("no samples given")
    grid = samples[0].grid
    diameter = region.max_distance() * lam
    if grid.spacing > diameter / 50.0 * (1.0 + 1e-9):
        raise DomainError(
            f"grid spacing {grid.spacing} exceeds diameter/50 = {diameter / 50.0}"
        )
    # coverage: the scaled region's bounding box must sit inside the grid
    cx, cy = grid.center
    half = region.scaled_size * lam if region.shape == "disk" else 0.5 * region.scaled_size * lam
    lo_x, lo_y = grid.origin
    hi_x = lo_x + (grid.nx - 1) * grid.spacing
    hi_y = lo_y + (grid.ny - 1) * grid.spacing
    pad = 0.5 * grid.spacing
    if (cx - half < lo_x - pad or cx + half > hi_x + pad
            or cy - half < lo_y - pad or cy + half > hi_y + pad):
        raise DomainError("grid does not cover the lam-scaled region")
    mask = grid_region_mask(grid, region, lam)
    if not np.any(mask):
        raise DomainError("no grid points fall inside the region")
    out = np.empty(len(samples))
    for i, s in enumerate(samples):
        if s.grid != grid:
            raise DomainError("all samples must share one grid")
        out[i] = np.mean(s.values.ravel()[mask] ** beta)
    return out


_MEASURES = ("mean", "variance", "var", "es")


def _risk_stat(losses: np.ndarray, measure: str, alpha: Optional[float]) -> float:
    if measure == "mean":
        return float(np.mean(losses))
    if measure == "variance":
        return float(np.var(losses, ddof=1))
    var_level = float(np.quantile(losses, alpha, method="inverted_cdf"))
    if measure == "var":
        return var_level
    tail = losses[losses > var_level]
    return float(np.mean(tail)) if tail.size else var_level


def mc_risk(
    losses,
    measure: str,
    alpha: Optional[float] = None,
    n_boot: int = 200,
    seed: int = 0,
) -> McEstimate:
    """Empirical risk estimate with a bootstrap standard error.

    ``var`` is the empirical quantile inf{x : F(x) >= alpha}; ``es`` is the
    conditional mean above it.  Tail measures carry a precision warning
    when fewer than 20 observations land in the tail.
    """
    losses = np.asarray(losses, dtype=float).ravel()
    if losses.size == 0:
        raise DomainError("losses must be nonempty")
    if measure not in _MEASURES:
        raise DomainError(f"measure must be one of {_MEASURES}, got {measure!r}")
    warning = None
    if measure in ("var", "es"):
        if alpha is None or not 0.0 < alpha < 1.0:
            raise DomainError("tail measures require alpha in (0, 1)")
        if losses.size * (1.0 - alpha) < 20.0:
            warning = (
                f"only ~{losses.size * (1 - alpha):.1f} tail observations at "
                f"alpha={alpha}; estimate is imprecise"
            )
    if measure == "variance" and losses.size < 2:
        raise DomainError("variance requires at least 2 losses")

    estimate = _risk_stat(losses, measure, alpha)
    rng = np.random.default_rng(seed)
    boots = np.empty(n_boot)
    for b in range(n_boot):
        resample = losses[rng.integers(0, losses.size, size=losses.size)]
        boots[b] = _risk_stat(resample, measure, alpha)
    return McEstimate(estimate, float(np.std(boots, ddof=1)), warning)


# ---------------------------------------------------------------------------
# binary dump (little-endian)
# ---------------------------------------------------------------------------
#
# Layout:
#   magic    4 bytes  b"WRFS"
#   version  u32      1
#   nx, ny   u32, u32
#   origin   f64, f64
#   spacing  f64
#   margin   u32      0 = simple, 1 = GEV
#   eta, tau, xi      f64 x 3 (zeros for simple)
#   n_rep    u32
# then per replicate:
#   seed     u64
#   replicate u32 (+ u32 padding)
#   values   nx*ny f64, row-major (index = ix*ny + iy)

_MAGIC = b"WRFS"
_HEADER = struct.Struct("<4sIII2ddIdddI")
_RECORD = struct.Struct("<QII")


def write_field_samples(path, samples: List[FieldSample]) -> None:
    if not samples:
        raise DomainError("nothing to write")
    grid = samples[0].grid
    margin = samples[0].margin
    for s in samples:
        if s.grid != grid or s.margin != margin:
            raise DomainError("all samples in a batch must share grid and margin")
    m = margin or GevParams(0.0, 1.0, 0.0)
    header = _HEADER.pack(
        _MAGIC, 1, grid.nx, grid.ny,
        grid.origin[0], grid.origin[1], grid.spacing,
        0 if margin is None else 1, m.eta, m.tau if margin else 0.0, m.xi,
        len(samples),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for s in samples:
            fh.write(_RECORD.pack(int(s.seed) & (2**64 - 1), int(s.replicate), 0))
            fh.write(np.ascontiguousarray(s.values, dtype="<f8").tobytes())


def read_field_samples(path) -> List[FieldSample]:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size or raw[:4] != _MAGIC:
            raise DomainError(f"not a windrisk field dump: {path}")
        (magic, version, nx, ny, ox, oy, spacing,
         margin_flag, eta, tau, xi, n_rep) = _HEADER.unpack(raw)
        if version != 1:
            raise DomainError(f"unsupported field dump version {version}")
        grid = Grid(origin=(ox, oy), nx=nx, ny=ny, spacing=spacing)
        margin = None if margin_flag == 0 else GevParams(eta, tau, xi)
        out = []
        npts = nx * ny
        for _ in range(n_rep):
            seed, replicate, _pad = _RECORD.unpack(fh.read(_RECORD.size))
            vals = np.frombuffer(fh.read(8 * npts), dtype="<f8").reshape(nx, ny)
            out.append(FieldSample(grid=grid, values=vals.copy(), margin=margin,
                                   seed=seed, replicate=replicate))
    return out
