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
There is one factor per (variogram, sites): the covariance is filled in
row blocks straight from the variogram, its lower triangle only, with no
dense variogram matrix beside it, so the covariance, the factorization's
work copy and the factor are the three n x n arrays alive at the peak.
The last factor is kept, read-only, and the exact and truncated methods
on the same variogram and sites share it; it takes 30.7 MB at 1961 sites
and 134 MB at 4096.  The exact method evaluates the drift gamma(x_k - x_j)
of site k only where its tests reach, the truncated method only the row
of site 0.  A row, a block and a single vector of gamma round alike (the
variogram's value does not depend on its batch), so every partial
evaluation is the dense matrix's entry bit for bit.

A truncated-spectral fallback (fixed number of Poisson points) is kept
for speed comparisons; its bias is reported empirically through the
fraction of sites whose running maximum was still updated in the last
tenth of the spectral sequence.  The Schlather generator is truncated the
same way, and both share one replicate loop (:func:`_spectral_maxima`):
each keeps its own arithmetic, Brown-Resnick in log space and Schlather
as sqrt(2 pi) max(eps, 0) / Gamma.

Mixed moving maxima (Smith and tube) simulate storm centers on the grid
bounding box dilated by the effective storm radius (``dilation_sigmas``
standard deviations for Gaussian shapes, the exact radius for tubes) and
stop once the next Poisson magnitude cannot exceed the running minimum.
Storms are taken in blocks: each storm's gap and center are drawn with
scalar calls in the same order as one storm at a time, and a block is
then evaluated at once on a fixed-size stencil per storm, masked to the
storm's box and clipped to the grid, and applied with ``np.maximum.at``.
The stopping test runs once per block, with the block's last magnitude u
and the field after the block.  This gives the field of the storm-by-storm
loop bit for bit: magnitudes decrease and the field only grows, and no
storm exceeds u * f_max anywhere, so once u * f_max <= min Z no later
storm can raise Z.  The storms of a block past the storm-by-storm stop
therefore change nothing, the test holds at the latest at the end of the
block holding that stop, and when it holds the storm-by-storm loop would
have stopped by the next storm.  The draws past the stop come from the
replicate's own stream, which nothing else reads.

Reproducibility
---------------
Every replicate owns an independent child stream spawned from
``numpy.random.SeedSequence(seed)``; replicate r consumes only its own
stream in a fixed order, so serial and batched executions produce
bit-identical values per replicate index.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional

import numpy as np

from .dependence import GevParams
from .errors import ConvergenceError, DomainError
from .geometry import Region
from .numerics import exprel
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

def _cholesky_with_jitter(cov: np.ndarray) -> np.ndarray:
    """Cholesky factor of cov; on failure, of cov with a growing jitter on
    its diagonal.  A retry writes d0 + jitter into cov's diagonal from a
    saved copy d0 of it, so it costs no copy of cov, and the diagonal is
    put back before return; cov must therefore be writable."""
    scale = max(float(np.trace(cov)) / max(len(cov), 1), 1.0)
    diag = np.diag_indices_from(cov)
    d0 = cov[diag]
    try:
        for exponent in (None, -12, -10, -8):
            if exponent is not None:
                cov[diag] = d0 + scale * 10.0 ** exponent
            try:
                return np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                pass
    finally:
        cov[diag] = d0
    raise ConvergenceError("covariance factorization failed even with jitter")


def _anchored_cholesky(v: Variogram, points: np.ndarray) -> np.ndarray:
    """Cholesky factor of the covariance of W at points[1:] for W anchored
    at points[0], C_ij = (gamma_i0 + gamma_j0 - gamma_ij) / 2.

    C is filled a block of rows at a time straight from the variogram,
    with the arithmetic of the dense form and no matrix of gamma beside
    it, and only on and below its diagonal: np.linalg.cholesky reads the
    lower triangle alone, so the factor is the one of the full matrix bit
    for bit.  Each gamma(x_i - x_j) is the dense matrix's entry bit for
    bit, since x_j - x_i is -(x_i - x_j) exactly, every variogram kind is
    even in its argument bit for bit (hypot, and a quadratic form of
    products), and a vector's value does not depend on its batch.  At the
    peak, C, the factorization's work copy and the factor are alive: three
    n x n arrays.  The allocator keeps the temporaries of a block, so
    blocks are 2^14 difference vectors (256 kB): on the 1961 sites of the
    disk they left the peak RSS 10 MB lower than blocks of 2^18, and
    filled C no slower."""
    n = len(points) - 1
    g0 = v(points[0] - points[1:])
    cov = np.empty((n, n))
    block = max(1, (1 << 14) // max(n, 1))
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        diff = points[1 + i0:1 + i1, None, :] - points[None, 1:1 + i1, :]
        rows = cov[i0:i1, :i1]
        np.add(g0[i0:i1, None], g0[None, :i1], out=rows)
        rows -= v(diff.reshape(-1, 2)).reshape(i1 - i0, i1)
        rows *= 0.5
    return _cholesky_with_jitter(cov)


# the one factor kept between calls, (key, read-only factor): exact and
# truncated runs on the same variogram and sites share it.  It is read and
# replaced as one tuple, so a call in another thread sees a whole entry.
_cached_factor: tuple = (None, None)


def _cholesky_factor(v: Variogram, points: np.ndarray) -> np.ndarray:
    """The anchored Cholesky factor of (v, points), built once.  The key is
    the variogram's parameters and the sites' shape and bytes (a Variogram
    with a sigma array cannot be hashed).  The old factor is dropped
    before a new one is built, so two are never alive at once."""
    global _cached_factor
    key = (v.kind, v.psi, v.kappa, v.m, None if v.sigma is None else v.sigma.tobytes(),
           points.shape, points.tobytes())
    cached_key, chol = _cached_factor
    if cached_key == key:
        return chol
    _cached_factor = (None, None)
    chol = _anchored_cholesky(v, points)
    chol.setflags(write=False)
    _cached_factor = (key, chol)
    return chol


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


def _replicate_array(shape, fill: float = 0.0) -> np.ndarray:
    """The array of the replicates' values, (n_rep, sites...), filled with
    ``fill``; DomainError if it cannot be allocated, as for a huge n_rep.
    It is made before the replicates' streams, which cost memory each."""
    try:
        # zeros from np.zeros: the pages are mapped as the replicates fill them
        return np.zeros(shape) if fill == 0.0 else np.full(shape, fill)
    except (MemoryError, ValueError) as exc:
        raise DomainError(f"cannot allocate the values of n_rep replicates of "
                          f"{math.prod(shape[1:])} sites: n_rep is too large") from exc


class _GaussianSampler:
    """The anchored Gaussian field (0 at site 0) as a linear map of standard
    normals z: W_j = L[j-1, :j] @ z[:j] through the Cholesky factor L of the
    anchored covariance, or W_j = P[j] @ z with two normals for exact
    quadratic variograms.  L comes from the one cached factor
    (:func:`_cholesky_factor`).
    """

    def __init__(self, v: Variogram, points: np.ndarray):
        if v.is_quadratic:
            self.proj = _quadratic_projection(v, points)
            self.chol = None
            self.block = max(len(points), 1)  # cheap rows: one block per test
        else:
            self.chol = _cholesky_factor(v, points)
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
    log_z = _replicate_array((n_rep, n), fill=-np.inf)
    sampler = _GaussianSampler(v, points)
    rngs = _replicate_rngs(seed, n_rep)
    draws = accepted = 0
    # the drift 0.5 gamma(x_k - x_j) at the `band` sites j before each site
    # k (site 0 stands in for j < 0), those of the first block tested, in
    # one evaluation for the run
    band = _SITE_BLOCK - 1
    before = np.maximum(np.arange(n)[:, None] + np.arange(-band, 0), 0)
    near = 0.5 * v((points[:, None, :] - points[before]).reshape(-1, 2)).reshape(n, band)

    for k in range(n):
        gam = np.array([rng.exponential() for rng in rngs])
        active = np.flatnonzero(-np.log(gam) > log_z[:, k])
        if not active.size:
            continue
        # drift[known:k] holds the drift at the sites j < k of the band; the
        # rest of the head is evaluated when a test first reaches past it,
        # and the tail j > k at the first accepted candidate
        known = max(k - band, 0)
        drift, tail = np.empty(k), None
        drift[known:] = near[k, band - (k - known):]
        head_dim, tail_dim = sampler.dim(k), sampler.dim(n - 1) - sampler.dim(k)
        while active.size:
            m = active.size
            z = np.empty((m, head_dim))
            for i, r in enumerate(active):
                rngs[r].standard_normal(out=z[i])
            log_gam = np.log(gam[active])[:, None]
            # the first block ends at the anchor site k; sites k-1, k-2, ...,
            # 0 are then tested a block at a time, and the candidates that a
            # block rejects leave rows, z, anchor and log_gam together
            lo, hi = max(k + 1 - sampler.block, 0), k
            w = sampler.values(z, lo, k + 1)
            anchor, w = w[:, -1:], w[:, :-1]
            rows = active
            while True:
                if lo < known:
                    drift[:known] = 0.5 * v(points[k] - points[:known])
                    known = 0
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
                if tail is None:
                    tail = 0.5 * v(points[k] - points[k + 1:])
                z_full = np.empty((rows.size, head_dim + tail_dim))
                z_full[:, :head_dim] = z
                for i, r in enumerate(rows):
                    rngs[r].standard_normal(out=z_full[i, head_dim:])
                # an accepted candidate lies below the maximum at sites < k
                # and equals -log(gam) at site k; only the tail can change
                log_y = sampler.values(z_full, k + 1, n) - anchor - tail
                log_z[rows, k] = np.maximum(log_z[rows, k], -log_gam[:, 0])
                log_z[rows, k + 1:] = np.maximum(log_z[rows, k + 1:], log_y - log_gam)
            for r in active:
                gam[r] += rngs[r].exponential()
            active = active[-np.log(gam[active]) > log_z[active, k]]

    return np.exp(log_z), {"spectral_draws": draws, "accepted": accepted}


def _spectral_maxima(n_rep, seed, n_points, n, draw):
    """Per-site maxima (n_rep, n) of n_points spectral draws a replicate,
    and the fraction of sites whose maximum came from the last tenth of
    them.  ``draw(rng, gams)`` gives a replicate's (n_points, n) values at
    its Poisson points ``gams``, which its stream gives first."""
    if n_points < 1:
        raise DomainError("n_points must be >= 1")
    out = _replicate_array((n_rep, n))
    late = 0
    for r, rng in enumerate(_replicate_rngs(seed, n_rep)):
        y = draw(rng, np.cumsum(rng.exponential(size=n_points)))
        argmax = np.argmax(y, axis=0)
        out[r] = y[argmax, np.arange(n)]
        late += int(np.sum(argmax + 1 > 0.9 * n_points))
    return out, late / (n_rep * n)


def _truncated_spectral(v, points, n_rep, seed, n_points):
    n = len(points)
    sampler = _GaussianSampler(v, points)
    half_var = 0.5 * v(points[0] - points)  # Var W(x_i) / 2 anchored at site 0

    def draw(rng, gams):  # log Y, whose maximum is the log of Z
        log_y = sampler.values(rng.standard_normal((n_points, sampler.dim(n - 1))), 0, n)
        log_y -= half_var
        log_y -= np.log(gams)[:, None]
        return log_y

    log_z, late = _spectral_maxima(n_rep, seed, n_points, n, draw)
    return np.exp(log_z, out=log_z), {"late_update_fraction": late, "n_points": int(n_points)}


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

# storms per block of the mixed-moving-maxima simulators, and the most
# stencil cells one block evaluates at once (128 kB per float temporary):
# of 8k, 16k and 32k cells, 16k was the fastest for Smith on the 51 x 51
# disk grid, whose boxes of up to 21 x 21 sites make blocks of 37 storms
_STORM_BLOCK = 128
_BLOCK_CELLS = 1 << 14


def _storm_axis(origin, count, spacing, radius, centers):
    """One axis of the stencils of a block of storms, both of shape (width,
    storms): the grid indices of a run from the start i0 of each storm's box
    [i0, i1], as wide as the block's widest box, and the offsets of their
    grid coordinates from the storm centers.  An index past i1 is replaced
    by ``count``, a spare row or column of the padded field that the result
    leaves out."""
    i0 = np.maximum(0, np.ceil((centers - radius - origin) / spacing)).astype(np.intp)
    i1 = np.minimum(count - 1, np.floor((centers + radius - origin) / spacing)).astype(np.intp)
    idx = np.arange(max(1, int((i1 - i0).max()) + 1))[:, None] + i0
    offsets = origin + spacing * idx - centers
    idx[idx > i1] = count
    return offsets, idx


def _m3_simulate(grid, n_rep, seed, radius, f_max, shape_fn):
    """Generic M3 simulation: storms on the dilated bounding box, a block at a
    time, stopping once the next Poisson magnitude cannot beat the running
    minimum."""
    if n_rep < 1:
        raise DomainError("n_rep must be >= 1")
    nx, ny = grid.nx, grid.ny
    x0, y0 = grid.origin
    dx = grid.spacing
    lo_x, hi_x = x0 - radius, x0 + dx * (nx - 1) + radius
    lo_y, hi_y = y0 - radius, y0 + dx * (ny - 1) + radius
    nu_box = (hi_x - lo_x) * (hi_y - lo_y)
    if not (0.0 < nu_box < math.inf and 0.0 < f_max < math.inf):
        raise DomainError(f"degenerate storm box or height: area {nu_box}, height {f_max}")
    # a box spans at most 2 radius / dx + 1 grid lines per axis, clipped to
    # the grid: the bound on a storm's stencil cells that sizes the blocks
    span = 2.0 * radius / dx + 1.0
    block = max(1, min(_STORM_BLOCK, int(_BLOCK_CELLS // (min(nx, span) * min(ny, span)))))
    out = _replicate_array((n_rep, nx, ny))
    for r, rng in enumerate(_replicate_rngs(seed, n_rep)):
        # one spare row and column take the stencil cells outside the boxes
        padded = np.zeros((nx + 1, ny + 1))
        flat, Z = padded.reshape(-1), padded[:nx, :ny]
        gam = 0.0
        while True:
            storms = []
            for _ in range(block):
                gam += rng.standard_exponential()
                storms.append((gam, lo_x + (hi_x - lo_x) * rng.random(),
                               lo_y + (hi_y - lo_y) * rng.random()))
            gams, cx, cy = np.array(storms).T
            u = nu_box / gams
            wx, ix = _storm_axis(x0, nx, dx, radius, cx)
            wy, iy = _storm_axis(y0, ny, dx, radius, cy)
            # cells are (x, y, storm): the storm axis is the innermost, so
            # the broadcast operations run on rows of a whole block
            vals = u * shape_fn(wx[:, None, :], wy[None, :, :])
            cells = (ix * (ny + 1))[:, None, :] + iy[None, :, :]
            np.maximum.at(flat, cells.ravel(), vals.ravel())
            zmin = Z.min()
            if zmin > 0.0 and u[-1] * f_max <= zmin:
                break
        out[r] = Z
    return out.reshape(n_rep, nx * ny)


def simulate_smith(
    sigma, grid: Grid, n_rep: int, seed: int, dilation_sigmas: float = 4.0
) -> List[FieldSample]:
    """Smith (M3 with Gaussian storm shapes) replicates on a grid.

    Storm centers live on the bounding box dilated by ``dilation_sigmas``
    standard deviations; contributions beyond that radius are dropped,
    biasing the per-site Frechet scale by at most exp(-dilation^2/2)
    (3.4e-4 at the default 4 sigma).  ``dilation_sigmas`` must be finite
    and > 0.
    """
    if not 0.0 < dilation_sigmas < math.inf:
        raise DomainError(f"dilation_sigmas must be finite and > 0, got {dilation_sigmas}")
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
    if not 0.0 < r_storm < math.inf:
        raise DomainError(f"storm radius must be finite and > 0, got {r_storm}")
    area = math.pi * r_storm**2
    if not area > 0.0:
        raise DomainError(f"storm radius {r_storm} is too small: its area underflows to 0")
    height = 1.0 / area

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
    if n_rep < 1:
        raise DomainError("n_rep must be >= 1")
    pts = grid.points()
    n = len(pts)
    if n > _MAX_DENSE_POINTS:
        raise DomainError(f"grid too large for dense factorization ({n})")
    # the lower triangle of the correlation matrix, a block of rows at a
    # time, as in _anchored_cholesky: no matrix of distances beside it
    corr = np.empty((n, n))
    block = max(1, (1 << 14) // max(n, 1))
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        diff = pts[i0:i1, None, :] - pts[None, :i1, :]
        rows = np.asarray(correlation(np.hypot(diff[..., 0], diff[..., 1])), dtype=float)
        if rows.shape != (i1 - i0, i1):
            raise DomainError("correlation function must evaluate elementwise on distances")
        corr[i0:i1, :i1] = rows
    chol = _cholesky_with_jitter(corr)
    del corr  # not needed by the draws
    c = math.sqrt(2.0 * math.pi)

    def draw(rng, gams):
        return c * np.maximum(rng.standard_normal((n_points, n)) @ chol.T, 0.0) / gams[:, None]

    values, late = _spectral_maxima(n_rep, seed, n_points, n, draw)
    meta = {"method": "schlather_truncated", "late_update_fraction": late,
            "n_points": int(n_points)}
    return _to_field_samples(values, grid, seed, meta=meta)


# ---------------------------------------------------------------------------
# margin transform and loss estimators
# ---------------------------------------------------------------------------

def gev_transform_values(values, p: GevParams):
    """Map simple-margin values to GEV margins, eta + tau (z^xi - 1)/xi,
    written as eta + tau log(z) exprel(xi log z) so that xi = 0 gives the
    Gumbel map eta + tau log z.

    At the ends of the support log z is infinite and that product is
    inf * 0 where xi log z = -inf (z = 0 with xi > 0, z = inf with xi < 0)
    or xi = 0; there the limits are the finite endpoint eta - tau/xi and the
    Gumbel map's infinite ends."""
    with np.errstate(divide="ignore"):  # log 0 = -inf, but warn for z < 0
        log_z = np.log(np.asarray(values, dtype=float))
    with np.errstate(invalid="ignore"):
        xi_log_z = p.xi * log_z
        out = p.eta + p.tau * log_z * exprel(xi_log_z)
    if p.xi == 0.0:
        return np.where(np.isinf(log_z), log_z, out)
    return np.where(xi_log_z == -np.inf, p.eta - p.tau / p.xi, out)


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


# grid intervals across the region's diameter: region_grid's spacing, and
# the coarsest that mc_normalized_loss accepts
_SPACING_FACTOR = 50


def region_grid(region: Region, lam: float) -> Grid:
    """Grid covering the lam-scaled region, centered, with spacing
    diameter / _SPACING_FACTOR."""
    if not lam > 0.0:
        raise DomainError(f"lam must be > 0, got {lam}")
    diameter = region.max_distance() * lam
    spacing = diameter / _SPACING_FACTOR
    half = region.R * lam
    if region.shape == "square":
        half *= 0.5
    count = int(math.floor(2.0 * half / spacing + 1e-9)) + 1
    extent = (count - 1) * spacing
    origin = (-extent / 2.0, -extent / 2.0)
    return Grid(origin=origin, nx=count, ny=count, spacing=spacing)


def grid_region_mask(grid: Grid, region: Region, lam: float) -> np.ndarray:
    """Boolean mask of grid points inside the lam-scaled region centered at
    the grid center."""
    return region.contains(grid.points(), center=grid.center, extra_scale=lam)


def mc_normalized_loss(samples: List[FieldSample], region: Region, lam: float, beta: float):
    """One normalized-loss value per replicate: the midpoint Riemann mean
    of C = Z^beta over the grid points inside the lam-scaled region
    centered at the grid center."""
    if not samples:
        raise DomainError("no samples given")
    grid = samples[0].grid
    diameter = region.max_distance() * lam
    if grid.spacing > diameter / _SPACING_FACTOR * (1.0 + 1e-9):
        raise DomainError(
            f"grid spacing {grid.spacing} exceeds diameter/{_SPACING_FACTOR} = "
            f"{diameter / _SPACING_FACTOR}"
        )
    # coverage: the scaled region's bounding box must sit inside the grid
    cx, cy = grid.center
    half = region.R * lam if region.shape == "disk" else 0.5 * region.R * lam
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
_N_BOOT = 200  # bootstrap resamples of mc_risk's standard error


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
    seed: int = 0,
) -> McEstimate:
    """Empirical risk estimate with a bootstrap standard error over
    _N_BOOT resamples.

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
    boots = np.empty(_N_BOOT)
    for b in range(_N_BOOT):
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
        size = os.fstat(fh.fileno()).st_size
        expected = _HEADER.size + n_rep * (_RECORD.size + 8 * npts)
        if size != expected:
            raise DomainError(f"field dump {path} has {size} bytes, not the {expected} "
                              f"of {n_rep} replicates on a {nx} x {ny} grid")
        for _ in range(n_rep):
            seed, replicate, _pad = _RECORD.unpack(fh.read(_RECORD.size))
            vals = np.frombuffer(fh.read(8 * npts), dtype="<f8").reshape(nx, ny)
            out.append(FieldSample(grid=grid, values=vals.copy(), margin=margin,
                                   seed=seed, replicate=replicate))
    return out
