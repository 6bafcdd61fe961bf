"""Variogram models."""

import warnings

import numpy as np
import pytest

from windrisk import (
    DomainError,
    UnsupportedVariogramError,
    anisotropic_power,
    power,
    power_m,
    quadratic_form,
)


def test_power_euclidean():
    assert power(1.0, 1.0)([3.0, 4.0]) == pytest.approx(5.0, rel=1e-15)


def test_zero_lag_is_zero():
    for v in (power(1.0, 0.7), power_m(2.0, 1.3), quadratic_form(np.eye(2)),
              anisotropic_power(1.5, [[2.0, 0.3], [0.3, 1.0]], 1.0)):
        assert v([0.0, 0.0]) == 0.0


def test_quadratic_form_identity():
    assert quadratic_form(np.eye(2))([1.0, 1.0]) == pytest.approx(2.0, rel=1e-15)


def test_radial_examples():
    assert power(1.0, 0.5).radial(4.0) == pytest.approx(2.0, rel=1e-15)
    assert power(1.0, 2.0).radial(6.0) == pytest.approx(36.0, rel=1e-15)
    assert power(2.0, 1.0).radial(4.0) == pytest.approx(2.0, rel=1e-15)


@pytest.mark.parametrize("v", [power(1.0, 2.0), power_m(2.0, 2.0), quadratic_form(np.eye(2)),
                               anisotropic_power(1.5, np.eye(2), 2.0)],
                         ids=["power", "power_m", "quadratic_form", "anisotropic_power"])
def test_value_past_the_double_range_is_inf_without_a_warning(v):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert v([1e200, 0.0]) == np.inf
        if v.is_isotropic:
            assert v.radial(1e200) == np.inf


def test_power_parametrizations_match():
    # m = kappa^-psi makes the two power forms identical
    kappa, psi = 2.5, 1.3
    va, vb = power(kappa, psi), power_m(kappa**-psi, psi)
    for h in (0.1, 1.0, 7.3):
        assert va.radial(h) == pytest.approx(vb.radial(h), rel=1e-14)


def test_symmetry_random_points():
    rng = np.random.default_rng(5)
    models = [
        power(1.7, 0.8),
        power_m(0.4, 1.9),
        quadratic_form([[2.0, 0.5], [0.5, 1.0]]),
        anisotropic_power(1.2, [[3.0, -0.4], [-0.4, 0.5]], 1.4),
    ]
    for v in models:
        xs = rng.normal(size=(100, 2)) * 5.0
        np.testing.assert_allclose(v(xs), v(-xs), rtol=1e-13)


def test_quadratic_form_vs_explicit_inverse():
    sigma = np.array([[2.0, 0.7], [0.7, 1.5]])
    v = quadratic_form(sigma)
    a, b, c, d = sigma.ravel()
    det = a * d - b * c
    inv = np.array([[d, -b], [-c, a]]) / det
    rng = np.random.default_rng(6)
    for x in rng.normal(size=(50, 2)) * 3.0:
        assert v(x) == pytest.approx(float(x @ inv @ x), rel=1e-12, abs=1e-12)


def test_radial_strictly_increasing_unbounded():
    grid = np.geomspace(1e-3, 1e6, 60)
    for psi in (0.5, 1.0, 1.5, 2.0):
        vals = power(1.0, psi).radial(grid)
        assert np.all(np.diff(vals) > 0.0)
        assert vals[-1] >= 1e6**psi * (1.0 - 1e-12)  # diverges with the lag


def test_anisotropic_radial_rejected():
    v = quadratic_form([[2.0, 0.5], [0.5, 1.0]])
    with pytest.raises(UnsupportedVariogramError):
        v.radial(1.0)
    iso = quadratic_form(np.eye(2) * 3.0)
    assert iso.radial(2.0) == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_anisotropic_power_value():
    sigma = np.array([[2.0, 0.0], [0.0, 0.5]])
    v = anisotropic_power(1.5, sigma, 1.0)
    x = np.array([1.0, 1.0])
    expected = 1.5 * np.sqrt(x @ np.linalg.inv(sigma) @ x)
    assert v(x) == pytest.approx(float(expected), rel=1e-13)


def test_validation_errors():
    with pytest.raises(DomainError):
        power(0.0, 1.0)
    with pytest.raises(DomainError):
        power(1.0, 2.5)
    with pytest.raises(DomainError):
        power(1.0, 0.0)
    with pytest.raises(DomainError):
        power_m(-1.0, 1.0)
    with pytest.raises(DomainError):
        quadratic_form([[1.0, 2.0], [2.0, 1.0]])  # negative eigenvalue
    with pytest.raises(DomainError):
        quadratic_form([[1.0, 0.5], [0.0, 1.0]])  # not symmetric
    with pytest.raises(DomainError):
        quadratic_form(np.eye(3))
