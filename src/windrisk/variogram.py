"""Variogram models driving Brown-Resnick dependence.

Four kinds are supported:

    power(kappa, psi)              gamma(x) = (|x| / kappa)^psi
    power_m(m, psi)                gamma(x) = m |x|^psi
    quadratic_form(Sigma)          gamma(x) = x' Sigma^{-1} x
    anisotropic_power(m, Sigma, psi)  gamma(x) = m (x' Sigma^{-1} x)^{psi/2}

The two power parametrizations are both first-class because both are in
common use; they coincide for m = kappa^{-psi}.  Radial (univariate)
evaluation is defined only for isotropic models, where gamma depends on
the input through its Euclidean norm alone, and is radial(h) = gamma((h, 0))
bit for bit.  Every isotropic model is then a power of the distance,
gamma_u(h) = (h / s)^psi, whose scale s and exponent psi
:attr:`Variogram.radial_scale` returns.

Each kind's formula is written once, elementwise (``Variogram._gamma``),
so a vector's value does not depend on the batch it comes in: a single
call, a row of the simulators' matrices and one lag of an array of lags
round alike.  The quadratic form is summed pairwise,
((x s00) x + (x s01) y) + ((y s10) x + (y s11) y), which is the order in
which numpy's einsum sums one or two vectors, so the single-vector values
of earlier versions keep every bit: a dependence or covariance query
inside the binomial table's cancellation band can change its outcome on a
last-bit change of gamma.  A scalar is evaluated as a 1-element array,
since numpy rounds a power of a float64 scalar through libm's pow, not
through its array loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, UnsupportedVariogramError

__all__ = [
    "Variogram",
    "power",
    "power_m",
    "quadratic_form",
    "anisotropic_power",
]

_SPD_TOL = 1e-10
_KINDS = ("power", "power_m", "quadratic_form", "anisotropic_power")


def _check_spd(sigma: np.ndarray) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (2, 2):
        raise DomainError(f"Sigma must be 2x2, got shape {sigma.shape}")
    if not np.allclose(sigma, sigma.T, atol=_SPD_TOL, rtol=0.0):
        raise DomainError("Sigma must be symmetric")
    eigvals = np.linalg.eigvalsh(sigma)
    if np.min(eigvals) <= _SPD_TOL:
        raise DomainError(f"Sigma must be positive definite, eigenvalues {eigvals}")
    return sigma


@dataclass(frozen=True)
class Variogram:
    """Immutable variogram model; build through the factory functions below."""

    kind: str
    psi: float = 1.0
    kappa: float = 1.0
    m: float = 1.0
    sigma: Optional[np.ndarray] = field(default=None)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown variogram kind {self.kind!r}")
        if self.kind in ("power", "power_m", "anisotropic_power"):
            if not 0.0 < self.psi <= 2.0:
                raise DomainError(f"psi must lie in (0, 2], got {self.psi}")
        if self.kind == "power" and not self.kappa > 0.0:
            raise DomainError(f"kappa must be > 0, got {self.kappa}")
        if self.kind in ("power_m", "anisotropic_power") and not self.m > 0.0:
            raise DomainError(f"m must be > 0, got {self.m}")
        if self.kind in ("quadratic_form", "anisotropic_power"):
            sigma = _check_spd(self.sigma)
            sigma_inv = np.linalg.inv(sigma)
            sigma_inv = 0.5 * (sigma_inv + sigma_inv.T)
            object.__setattr__(self, "sigma", sigma)
            object.__setattr__(self, "_sigma_inv", sigma_inv)

    # -- evaluation --------------------------------------------------------

    def _gamma(self, x: np.ndarray, y) -> np.ndarray:
        """gamma((x_i, y_i)) elementwise over float arrays."""
        # a value past the double range is inf, and its dependence 0
        with np.errstate(over="ignore"):
            if self.kind == "power":
                return (np.hypot(x, y) / self.kappa) ** self.psi
            if self.kind == "power_m":
                return self.m * np.hypot(x, y) ** self.psi
            s = self._sigma_inv
            quad = (x * s[0, 0] * x + x * s[0, 1] * y) + (y * s[1, 0] * x + y * s[1, 1] * y)
            quad = np.maximum(quad, 0.0)
            return quad if self.kind == "quadratic_form" else self.m * quad ** (self.psi / 2.0)

    def __call__(self, x):
        """gamma_W(x) for a 2-vector, or an (n, 2) batch of row vectors."""
        x = np.asarray(x, dtype=float)
        if x.shape != (2,) and (x.ndim != 2 or x.shape[1] != 2):
            raise DomainError(f"expected a 2-vector or an (n, 2) batch, got shape {x.shape}")
        pts = np.atleast_2d(x)
        out = self._gamma(pts[:, 0], pts[:, 1])
        return float(out[0]) if x.ndim == 1 else out

    @property
    def is_isotropic(self) -> bool:
        if self.kind in ("power", "power_m"):
            return True
        s = self.sigma
        return bool(
            abs(s[0, 1]) <= _SPD_TOL * abs(s[0, 0])
            and abs(s[0, 0] - s[1, 1]) <= _SPD_TOL * abs(s[0, 0])
        )

    def radial(self, h):
        """Univariate gamma_{W,u}(h) = gamma((h, 0)) for isotropic models,
        h >= 0; inf at h = inf."""
        h_arr = np.asarray(h, dtype=float)
        if np.any(h_arr < 0.0):
            raise DomainError("radial lag h must be >= 0")
        if not self.is_isotropic:
            raise UnsupportedVariogramError(
                f"radial evaluation undefined for anisotropic {self.kind}"
            )
        h_arr = np.atleast_1d(h_arr)
        # the quadratic form's cross terms are inf * 0 = nan at (inf, 0)
        infinite = np.isinf(h_arr)
        out = self._gamma(np.where(infinite, 0.0, h_arr), 0.0)
        out[infinite] = np.inf
        return float(out[0]) if np.ndim(h) == 0 else out

    @property
    def radial_scale(self) -> tuple[float, float]:
        """(s, psi) with gamma_u(h) = (h / s)^psi, for isotropic models; s
        is inf past the double range.  A quadratic form has psi 2, whatever
        its unused ``psi`` field holds."""
        if not self.is_isotropic:
            raise UnsupportedVariogramError(
                f"radial scale undefined for anisotropic {self.kind}"
            )
        if self.kind == "power":
            return self.kappa, self.psi
        root_c = 1.0 if self.kind == "power_m" else math.sqrt(self.sigma[0, 0])
        if self.kind == "quadratic_form":
            return root_c, 2.0
        with np.errstate(over="ignore"):  # inf past the double range, as in radial
            return root_c * float(np.float64(self.m) ** (-1.0 / self.psi)), self.psi

    @property
    def is_quadratic(self) -> bool:
        """True when gamma is an exact quadratic form (the Smith case)."""
        if self.kind == "quadratic_form":
            return True
        return self.kind in ("power", "power_m", "anisotropic_power") and self.psi == 2.0

    def quadratic_matrix(self) -> np.ndarray:
        """Q with gamma(x) = x'Qx, defined only when :attr:`is_quadratic`."""
        if not self.is_quadratic:
            raise UnsupportedVariogramError("variogram is not an exact quadratic form")
        if self.kind == "power":
            return np.eye(2) / self.kappa**2
        if self.kind == "power_m":
            return self.m * np.eye(2)
        if self.kind == "quadratic_form":
            return np.array(self._sigma_inv)
        return self.m * np.array(self._sigma_inv)


def power(kappa: float, psi: float) -> Variogram:
    """gamma(x) = (|x|/kappa)^psi with range kappa and smoothness psi."""
    return Variogram(kind="power", kappa=float(kappa), psi=float(psi))


def power_m(m: float, psi: float) -> Variogram:
    """gamma(x) = m |x|^psi, the scale parametrization of the power model."""
    return Variogram(kind="power_m", m=float(m), psi=float(psi))


def quadratic_form(sigma) -> Variogram:
    """gamma(x) = x' Sigma^{-1} x, the Smith-field variogram."""
    return Variogram(kind="quadratic_form", sigma=np.asarray(sigma, dtype=float))


def anisotropic_power(m: float, sigma, psi: float) -> Variogram:
    """gamma(x) = m (x' Sigma^{-1} x)^{psi/2}."""
    return Variogram(
        kind="anisotropic_power", m=float(m), sigma=np.asarray(sigma, dtype=float), psi=float(psi)
    )
