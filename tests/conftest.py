"""Shared fixtures and helpers for the windrisk test suite."""

import numpy as np
import pytest

from windrisk import GevParams, PowerSpec, Variogram

# parameters of the reference wind study
ETA, TAU, XI = 30.0, 3.0, -0.2


@pytest.fixture(scope="session")
def paper_gev() -> GevParams:
    return GevParams(ETA, TAU, XI)


@pytest.fixture(scope="session")
def paper_power(paper_gev) -> PowerSpec:
    return PowerSpec.gev(1, paper_gev)


class RoughPast(Variogram):
    """power(1, 1) plus sin(1e5 d)^2 from distance 5 on: an r2 row whose
    lam A reaches that distance cannot converge, and the others can.
    Build it as ``RoughPast(kind="power")``."""

    def radial(self, h):
        h = np.asarray(h, dtype=float)
        return h + np.where(h > 5.0, np.sin(1e5 * h) ** 2, 0.0)


def covariance_with_se(x: np.ndarray, y: np.ndarray):
    """Sample covariance and the standard error of the estimate."""
    prod = (x - x.mean()) * (y - y.mean())
    n = len(x)
    cov = prod.mean() * n / (n - 1)
    return cov, prod.std(ddof=1) / np.sqrt(n)


def mean_with_se(x: np.ndarray):
    return float(np.mean(x)), float(np.std(x, ddof=1) / np.sqrt(len(x)))


def frechet_draws(rng, size):
    """Standard Frechet variates: inverse-cdf of exp(-1/z)."""
    return 1.0 / -np.log(rng.uniform(size=size))
