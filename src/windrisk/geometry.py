"""Regions and the distance densities between uniform point pairs.

The variance reduction for disks and squares rests on the density of the
Euclidean distance between two points dropped independently and uniformly
on the region.  Both densities are classical; the square's second branch
is evaluated through an exact algebraic simplification because the
displayed form pairs two terms that diverge individually at the branch
point h = R:

    (b+1)/sqrt(b-1) - 4 / (b sqrt(1 - (2-b)^2/b^2)) = sqrt(b-1),

using 1 - (2-b)^2/b^2 = 4(b-1)/b^2, so the bracket becomes

    -2 - b + 4 sqrt(b-1) + 2 arcsin((2-b)/b),

which is finite and smooth on [R, R sqrt(2)] and matches the first branch
value (2 pi - 6)/R at h = R exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "Region",
    "disk",
    "square",
    "area",
    "disk_distance_density",
    "square_distance_density",
]

_SHAPES = ("disk", "square")


@dataclass(frozen=True)
class Region:
    """Disk (radius R) or square (side R), barycenter-anchored, with an
    optional homothety ratio lam applied about the barycenter."""

    shape: str
    R: float
    lam: float = 1.0

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise DomainError(f"shape must be one of {_SHAPES}, got {self.shape!r}")
        if not 0.0 < self.R < math.inf:
            raise DomainError(f"R must be finite and > 0, got {self.R}")
        if not 0.0 < self.lam < math.inf:
            raise DomainError(f"lam must be finite and > 0, got {self.lam}")

    @property
    def scaled_size(self) -> float:
        """Radius (disk) or side (square) after the homothety."""
        return self.R * self.lam

    def area(self) -> float:
        s = self.scaled_size
        return math.pi * s * s if self.shape == "disk" else s * s

    def max_distance(self) -> float:
        """Diameter of the scaled region."""
        s = self.scaled_size
        return 2.0 * s if self.shape == "disk" else s * math.sqrt(2.0)

    def contains(self, points, center=(0.0, 0.0), extra_scale: float = 1.0):
        """Boolean mask of points inside the region scaled by lam*extra_scale
        and centered at ``center``."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        dx = pts[:, 0] - center[0]
        dy = pts[:, 1] - center[1]
        s = self.scaled_size * extra_scale
        if self.shape == "disk":
            return dx * dx + dy * dy <= s * s * (1.0 + 1e-12)
        half = 0.5 * s
        tol = half * 1e-12
        return (np.abs(dx) <= half + tol) & (np.abs(dy) <= half + tol)


def disk(R: float, lam: float = 1.0) -> Region:
    return Region("disk", float(R), float(lam))


def square(R: float, lam: float = 1.0) -> Region:
    return Region("square", float(R), float(lam))


def area(r: Region) -> float:
    """Lebesgue measure of the lam-scaled region."""
    return r.area()


def disk_distance_density(h, R: float):
    """Density f_d(h, R) of the distance between two uniform points on a
    disk of radius R; zero outside [0, 2R]."""
    if not R > 0.0:
        raise DomainError(f"R must be > 0, got {R}")
    h_arr = np.asarray(h, dtype=float)
    if np.any(h_arr < 0.0):
        raise DomainError("distance h must be >= 0")
    # in t = h/R, so no power of R leaves the double range
    t = h_arr / R
    u = np.clip(t / 2.0, 0.0, 1.0)
    out = np.where(
        t <= 2.0,
        2.0 * t / R * (2.0 / math.pi * np.arccos(u)
                       - t / math.pi * np.sqrt(np.maximum(1.0 - u * u, 0.0))),
        0.0,
    )
    return float(out) if np.isscalar(h) or h_arr.ndim == 0 else out


def _square_bracket(b):
    """Stabilized bracket of the second branch, b = h^2/R^2 in [1, 2]."""
    root = np.sqrt(np.maximum(b - 1.0, 0.0))
    return -2.0 - b + 4.0 * root + 2.0 * np.arcsin(np.clip((2.0 - b) / b, -1.0, 1.0))


def square_distance_density(h, R: float):
    """Density f_s(h, R) of the distance between two uniform points on a
    square of side R; zero outside [0, R sqrt(2)]."""
    if not R > 0.0:
        raise DomainError(f"R must be > 0, got {R}")
    h_arr = np.asarray(h, dtype=float)
    if np.any(h_arr < 0.0):
        raise DomainError("distance h must be >= 0")
    # in t = h/R, so no power of R leaves the double range
    t = h_arr / R
    b = t * t
    first = (2.0 * math.pi * t - 8.0 * t**2 + 2.0 * t**3) / R
    second = _square_bracket(np.maximum(b, 1.0)) * 2.0 * t / R
    out = np.where(t <= 1.0, first, np.where(b <= 2.0, second, 0.0))
    return float(out) if np.isscalar(h) or h_arr.ndim == 0 else out

