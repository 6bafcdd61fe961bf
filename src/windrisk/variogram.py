"""Variogram models driving Brown-Resnick dependence.

Four kinds are supported:

    power(kappa, psi)              gamma(x) = (|x| / kappa)^psi
    power_m(m, psi)                gamma(x) = m |x|^psi
    quadratic_form(Sigma)          gamma(x) = x' Sigma^{-1} x
    anisotropic_power(m, Sigma, psi)  gamma(x) = m (x' Sigma^{-1} x)^{psi/2}

The two power parametrizations are both first-class because both are in
common use; they coincide for m = kappa^{-psi}.  Radial (univariate)
evaluation is defined only for isotropic models, where gamma depends on
the input through its Euclidean norm alone.
"""

from __future__ import annotations

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

    def __call__(self, x) -> float:
        """gamma_W(x) for a 2-vector (or batch of row vectors)."""
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        pts = np.atleast_2d(x)
        if pts.shape[-1] != 2:
            raise DomainError(f"expected 2-vectors, got shape {x.shape}")
        # a value past the double range is inf, and its dependence 0
        with np.errstate(over="ignore"):
            if self.kind == "power":
                out = (np.hypot(pts[:, 0], pts[:, 1]) / self.kappa) ** self.psi
            elif self.kind == "power_m":
                out = self.m * np.hypot(pts[:, 0], pts[:, 1]) ** self.psi
            else:
                quad = np.einsum("ij,jk,ik->i", pts, self._sigma_inv, pts)
                quad = np.maximum(quad, 0.0)
                if self.kind == "quadratic_form":
                    out = quad
                else:
                    out = self.m * quad ** (self.psi / 2.0)
        return float(out[0]) if squeeze else out

    @property
    def is_isotropic(self) -> bool:
        if self.kind in ("power", "power_m"):
            return True
        s = self.sigma
        return bool(
            abs(s[0, 1]) <= _SPD_TOL * abs(s[0, 0])
            and abs(s[0, 0] - s[1, 1]) <= _SPD_TOL * abs(s[0, 0])
        )

    def radial(self, h) -> float:
        """Univariate gamma_{W,u}(h) for isotropic models, h >= 0."""
        h_arr = np.asarray(h, dtype=float)
        if np.any(h_arr < 0.0):
            raise DomainError("radial lag h must be >= 0")
        if not self.is_isotropic:
            raise UnsupportedVariogramError(
                f"radial evaluation undefined for anisotropic {self.kind}"
            )
        with np.errstate(over="ignore"):  # inf past the double range, as in __call__
            if self.kind == "power":
                out = (h_arr / self.kappa) ** self.psi
            elif self.kind == "power_m":
                out = self.m * h_arr**self.psi
            else:
                c = self.sigma[0, 0]  # Sigma = c * I here
                quad = h_arr**2 / c
                out = quad if self.kind == "quadratic_form" else self.m * quad ** (self.psi / 2.0)
        return float(out) if np.isscalar(h) or h_arr.ndim == 0 else out

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
