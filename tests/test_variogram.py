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


@pytest.mark.parametrize("v", [power(1.7, 0.8), power_m(0.4, 1.9), quadratic_form(3.0 * np.eye(2)),
                               anisotropic_power(1.2, 0.5 * np.eye(2), 1.4)],
                         ids=["power", "power_m", "quadratic_form", "anisotropic_power"])
def test_radial_at_an_infinite_lag_is_inf_without_a_warning(v):
    # the quadratic form's cross terms would be inf * 0 = nan at (inf, 0)
    h = np.array([0.0, 2.0, np.inf, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert v.radial(np.inf) == np.inf
        got = v.radial(h)
    assert got[2] == np.inf
    assert np.array_equal(got[[0, 1, 3]], v.radial(h[[0, 1, 3]]))


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


@pytest.mark.parametrize("v", [power(1.7, 0.8), power_m(0.4, 1.9), quadratic_form(3.0 * np.eye(2)),
                               anisotropic_power(1.2, 0.5 * np.eye(2), 1.4)],
                         ids=["power", "power_m", "quadratic_form", "anisotropic_power"])
def test_radial_scale_gives_the_radial_power(v):
    s, psi = v.radial_scale
    h = np.geomspace(1e-3, 1e3, 25)
    np.testing.assert_allclose(v.radial(h), (h / s) ** psi, rtol=1e-13)


def test_radial_scale_rejects_anisotropic():
    for v in (quadratic_form([[2.0, 0.5], [0.5, 1.0]]),
              anisotropic_power(1.0, [[2.0, 0.0], [0.0, 1.0]], 1.0)):
        with pytest.raises(UnsupportedVariogramError):
            v.radial_scale


def test_radial_scale_past_the_double_range_is_inf():
    assert power_m(1e-100, 0.1).radial_scale == (np.inf, 0.1)


KINDS = ["power", "power_m", "quadratic_form", "anisotropic_power"]
_SIGMA = [[1.7, -0.6], [-0.6, 0.8]]


def _model(kind, sigma):
    return {"power": power(1.7, 0.8), "power_m": power_m(0.4, 1.3),
            "quadratic_form": quadratic_form(sigma),
            "anisotropic_power": anisotropic_power(1.2, sigma, 1.4)}[kind]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shape", [(2, 3, 2), (2, 2, 2), (3,), (1, 3), ()])
def test_input_that_is_not_2_vectors_is_rejected(kind, shape):
    with pytest.raises(DomainError, match="2-vector"):
        _model(kind, _SIGMA)(np.arange(float(np.prod(shape))).reshape(shape))


@pytest.mark.parametrize("kind", KINDS)
def test_value_does_not_depend_on_the_batch(kind):
    # a vector's value, bit for bit, alone, in a pair and in a batch of 5000
    x = np.random.default_rng(11).normal(size=(5000, 2)) * 4.0
    v = _model(kind, _SIGMA)
    batch = v(x)
    assert np.array_equal([v(d) for d in x], batch)
    assert np.array_equal(np.concatenate([v(x[i:i + 2]) for i in range(0, 5000, 2)]), batch)

    iso = _model(kind, 2.5 * np.eye(2))
    h = np.abs(x[:, 0])
    radial = iso.radial(h)
    assert np.array_equal([iso.radial(float(t)) for t in h], radial)
    assert np.array_equal(iso(np.column_stack([h, 0.0 * h])), radial)


@pytest.mark.parametrize("kind", ["quadratic_form", "anisotropic_power"])
def test_single_vector_keeps_the_einsum_bits(kind):
    # Earlier versions summed x' Sigma^-1 x with einsum, and a dependence or
    # covariance query inside the binomial table's cancellation band can
    # change its outcome on a last-bit change of gamma; so a single vector
    # keeps einsum's bits (its pairwise order), which the order
    # s00 x x + 2 s01 x y + s11 y y does not.
    rng = np.random.default_rng(12)
    for _ in range(2000):
        a = rng.normal(size=(2, 2))
        d = rng.normal(size=2) * 10.0 ** rng.uniform(-3.0, 3.0)
        if kind == "quadratic_form":
            v = quadratic_form(a @ a.T + 0.1 * np.eye(2))
        else:
            v = anisotropic_power(rng.uniform(0.1, 3.0), a @ a.T + 0.1 * np.eye(2),
                                  rng.uniform(0.1, 2.0))
        quad = np.maximum(np.einsum("ij,jk,ik->i", d[None], v._sigma_inv, d[None]), 0.0)
        want = quad if kind == "quadratic_form" else v.m * quad ** (v.psi / 2.0)
        assert v(d) == want[0]
