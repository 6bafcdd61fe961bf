"""Regions and uniform-pair distance densities."""

import math

import numpy as np
import pytest

from windrisk import (
    DomainError,
    Region,
    area,
    disk,
    disk_distance_density,
    integrate,
    square,
    square_distance_density,
)

def square_distance_density_naive(h: float, R: float) -> float:
    """Second branch of the square's density evaluated term by term as
    displayed (h in (R, R sqrt 2]): the oracle of the stabilized bracket.
    It loses all precision as h -> R."""
    b = h * h / (R * R)
    if not 1.0 < b <= 2.0:
        raise DomainError(f"naive branch requires h in (R, R*sqrt(2)], got h={h}")
    bracket = (
        -2.0
        - b
        + 3.0 * math.sqrt(b - 1.0)
        + (b + 1.0) / math.sqrt(b - 1.0)
        + 2.0 * math.asin((2.0 - b) / b)
        - 4.0 / (b * math.sqrt(1.0 - (2.0 - b) ** 2 / b**2))
    )
    return bracket * 2.0 * h / R**2

# Frozen from the 1e7-pair MC histogram oracle (bin [1.195, 1.205), unit
# square, seed 2024, 2847 hits): empirical density 0.02847, standard error
# 5.3e-4.  The analytic value f_s(1.2, 1) = 0.029161 sits 1.3 SE away.
FS_1_2_MC = 0.02847


class TestDiskDensity:
    def test_endpoints_vanish(self):
        assert disk_distance_density(0.0, 1.0) == 0.0
        assert disk_distance_density(2.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_outside_support_zero(self):
        assert disk_distance_density(2.5, 1.0) == 0.0

    def test_negative_inputs_raise(self):
        with pytest.raises(DomainError):
            disk_distance_density(-0.1, 1.0)
        with pytest.raises(DomainError):
            disk_distance_density(0.5, -1.0)

    @pytest.mark.parametrize("R", [0.5, 1.0, 3.0])
    def test_normalization(self, R):
        res = integrate(lambda h: disk_distance_density(h, R), 0.0, 2.0 * R)
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_positive_inside(self):
        hs = np.linspace(0.05, 1.95, 50)
        assert np.all(disk_distance_density(hs, 1.0) > 0.0)


class TestSquareDensity:
    def test_upper_endpoint_vanishes(self):
        assert square_distance_density(math.sqrt(2.0), 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_branch_point_value(self):
        # first branch at h = R: 2 pi/R - 8/R + 2/R = (2 pi - 6)/R
        for R in (1.0, 2.5):
            assert square_distance_density(R, R) == pytest.approx(
                (2.0 * math.pi - 6.0) / R, rel=1e-13
            )

    def test_naive_matches_stabilized_away_from_seam(self):
        # validation point for the algebraic simplification: b = 1 + 1e-3
        R = 1.0
        h = math.sqrt(1.0 + 1e-3) * R
        assert square_distance_density(h, R) == pytest.approx(
            square_distance_density_naive(h, R), rel=1e-9
        )
        h2 = 1.2
        assert square_distance_density(h2, R) == pytest.approx(
            square_distance_density_naive(h2, R), rel=1e-12
        )

    def test_branch_point_continuity_sequence(self):
        # |f(R-eps) - f(R+eps)| shrinks linearly (the density is C^1)
        R = 1.0
        gaps = []
        for eps in (1e-3, 1e-4, 1e-5):
            gaps.append(abs(square_distance_density(R - eps, R)
                            - square_distance_density(R + eps, R)))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-4
        # centered second difference detects an actual jump; here ~ O(eps^2)
        eps = 1e-5
        jump = abs(square_distance_density(R - eps, R) + square_distance_density(R + eps, R)
                   - 2.0 * square_distance_density(R, R))
        assert jump <= 1e-6

    @pytest.mark.parametrize("R", [1.0, 2.0])
    def test_normalization(self, R):
        spec_val = 0.0
        for lo, hi in ((0.0, R), (R, R * math.sqrt(2.0))):
            spec_val += integrate(lambda h: square_distance_density(h, R), lo, hi).value
        assert spec_val == pytest.approx(1.0, abs=1e-8)

    def test_outside_support_zero(self):
        assert square_distance_density(1.5, 1.0) == 0.0

    def test_mc_histogram_bin(self):
        # the stated oracle for f_s(1.2, 1): 1e7 uniform pairs, bin width 0.01
        rng = np.random.default_rng(2024)
        n = 10_000_000
        count = 0
        for _ in range(10):
            p = rng.uniform(size=(n // 10, 4))
            d = np.hypot(p[:, 0] - p[:, 2], p[:, 1] - p[:, 3])
            count += int(np.sum((d >= 1.195) & (d < 1.205)))
        emp = count / n / 0.01
        assert emp == pytest.approx(FS_1_2_MC, abs=1e-6)
        # analytic bin probability vs the MC frequency, 3 SE
        p_bin = integrate(lambda h: square_distance_density(h, 1.0), 1.195, 1.205).value
        se = math.sqrt(p_bin * (1.0 - p_bin) / n)
        assert abs(count / n - p_bin) <= 3.0 * se


class TestHugeRegions:
    @pytest.mark.parametrize("density", [disk_distance_density, square_distance_density])
    def test_density_is_a_rescaled_unit_density(self, density):
        # f(h, R) = f(h/R, 1)/R; R^2 alone would overflow past R ~ 1.3e154
        t = np.array([0.0, 0.3, 0.9, 1.2, 1.4, 1.9, 2.5])
        for R in (1e200, 1e300):
            got = density(t * R, R)
            assert np.all(np.isfinite(got))
            np.testing.assert_allclose(got * R, density(t, 1.0), rtol=1e-12, atol=1e-300)


class TestRegion:
    def test_areas(self):
        assert area(disk(1.0)) == pytest.approx(math.pi, rel=1e-15)
        assert area(square(2.0)) == pytest.approx(4.0, rel=1e-15)
        assert area(disk(1.0, lam=3.0)) == pytest.approx(9.0 * math.pi, rel=1e-15)

    def test_max_distance(self):
        assert disk(2.0).max_distance() == 4.0
        assert square(2.0, lam=1.5).max_distance() == pytest.approx(3.0 * math.sqrt(2.0))

    def test_validation(self):
        with pytest.raises(DomainError):
            Region("triangle", 1.0)
        with pytest.raises(DomainError):
            Region("disk", 0.0)
        with pytest.raises(DomainError):
            Region("disk", 1.0, lam=-1.0)

    @pytest.mark.parametrize("R, lam", [
        (math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan)])
    def test_non_finite_size_rejected(self, R, lam):
        with pytest.raises(DomainError):
            disk(R, lam)
        with pytest.raises(DomainError):
            square(R, lam)

    def test_contains(self):
        r = disk(1.0)
        pts = np.array([[0.0, 0.0], [0.9, 0.0], [1.1, 0.0], [3.0, 0.0]])
        np.testing.assert_array_equal(r.contains(pts), [True, True, False, False])
        np.testing.assert_array_equal(
            r.contains(pts, extra_scale=2.0), [True, True, True, False]
        )
        s = square(2.0)  # side 2: half-width 1
        np.testing.assert_array_equal(s.contains(pts), [True, True, False, False])
