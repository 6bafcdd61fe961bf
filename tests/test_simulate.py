"""Monte-Carlo generators, estimators, and the binary dump."""

import functools
import math
import warnings

import numpy as np
import pytest
from scipy.special import exprel
from scipy.stats import kstest

from windrisk import (
    DomainError,
    FieldSample,
    GevParams,
    Grid,
    PowerSpec,
    anisotropic_power,
    brown_resnick_at,
    cov_simple,
    extremal_coefficient,
    gaussian_increment_field,
    gev_transform,
    gev_transform_values,
    grid_region_mask,
    mc_normalized_loss,
    mc_risk,
    mean_cost,
    norm_pdf,
    norm_quantile,
    power,
    quadratic_form,
    read_field_samples,
    region_grid,
    simulate_brown_resnick,
    simulate_schlather,
    simulate_smith,
    simulate_tube,
    write_field_samples,
    disk,
)

from windrisk import simulate as sim

from conftest import ETA, TAU, XI, covariance_with_se


class TestGrid:
    def test_points_row_major(self):
        g = Grid(origin=(1.0, 2.0), nx=2, ny=3, spacing=0.5)
        pts = g.points()
        assert pts.shape == (6, 2)
        np.testing.assert_allclose(pts[0], [1.0, 2.0])
        np.testing.assert_allclose(pts[1], [1.0, 2.5])  # index = ix*ny + iy
        np.testing.assert_allclose(pts[3], [1.5, 2.0])

    def test_center(self):
        g = Grid(origin=(0.0, 0.0), nx=3, ny=3, spacing=2.0)
        assert g.center == (2.0, 2.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            Grid(origin=(0, 0), nx=0, ny=1, spacing=1.0)
        with pytest.raises(DomainError):
            Grid(origin=(0, 0), nx=1, ny=1, spacing=0.0)


class TestGaussianIncrementField:
    def test_anchored_at_origin(self):
        g = Grid(origin=(0.0, 0.0), nx=3, ny=3, spacing=1.0)
        w = gaussian_increment_field(power(1.0, 1.0), g, seed=1)
        assert w[0, 0] == 0.0

    def test_empirical_variance_matches_variogram(self):
        g = Grid(origin=(0.0, 0.0), nx=3, ny=3, spacing=1.0)
        v = power(1.0, 1.0)
        draws = np.stack([
            gaussian_increment_field(v, g, seed=s) for s in range(4000)
        ])
        # Var W(x) = gamma(x - origin)
        x_idx, y_idx = 2, 1
        dist = math.hypot(2.0, 1.0)
        sample = draws[:, x_idx, y_idx]
        est = sample.var(ddof=1)
        se = np.std((sample - sample.mean()) ** 2, ddof=1) / math.sqrt(len(sample))
        assert abs(est - v.radial(dist)) <= 3.0 * se
        # E[(W(x)-W(y))^2] = gamma(x-y)
        inc = draws[:, 2, 1] - draws[:, 0, 1]
        est2 = (inc**2).mean()
        se2 = np.std(inc**2, ddof=1) / math.sqrt(len(inc))
        assert abs(est2 - v.radial(2.0)) <= 3.0 * se2

    def test_quadratic_case_is_linear_in_x(self):
        # the Smith-case variogram makes W an exact linear form
        g = Grid(origin=(0.0, 0.0), nx=5, ny=5, spacing=0.7)
        w = gaussian_increment_field(quadratic_form(np.eye(2)), g, seed=3)
        pts = g.points()
        design = np.column_stack([pts, np.ones(len(pts))])
        _, residual, _, _ = np.linalg.lstsq(design, w.ravel(), rcond=None)
        resid = residual[0] if len(residual) else 0.0
        assert resid < 1e-12

    def test_grid_size_guard(self):
        g = Grid(origin=(0.0, 0.0), nx=70, ny=70, spacing=1.0)
        with pytest.raises(DomainError):
            gaussian_increment_field(power(1.0, 1.0), g, seed=1)


class TestBrownResnick:
    @pytest.mark.parametrize("method", ["extremal_functions", "truncated_spectral"])
    def test_replicates_past_any_array_size(self, monkeypatch, method):
        # rejected before a replicate's stream is made
        monkeypatch.setattr(sim, "_replicate_rngs",
                            lambda *args: pytest.fail("the simulator made streams"))
        with pytest.raises(DomainError):
            brown_resnick_at(power(1.0, 1.0), [[0.0, 0.0], [1.0, 0.0]], 10**300, seed=1,
                             method=method)

    def test_frechet_margins(self):
        g = Grid(origin=(0.0, 0.0), nx=3, ny=3, spacing=0.8)
        samples = simulate_brown_resnick(power(1.0, 1.0), g, 10_000, seed=5)
        vals = np.stack([s.values for s in samples])
        assert np.all(vals > 0.0)
        p_emp = (vals[:, 1, 1] <= 1.0).mean()
        se = math.sqrt(math.e**-1 * (1 - math.e**-1) / len(vals))
        assert abs(p_emp - math.exp(-1.0)) <= 3.0 * se
        # goodness of fit at the 1% level
        u = np.exp(-1.0 / vals[:, 0, 2])
        assert kstest(u, "uniform").pvalue > 0.01

    def test_pairwise_extremal_coefficient(self):
        v = power(1.0, 1.0)
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        Z = brown_resnick_at(v, pts, 100_000, seed=6)
        u = 1.5
        emp = ((Z[:, 0] <= u) & (Z[:, 1] <= u)).mean()
        theta = extremal_coefficient(v, pts[0], pts[1])
        exact = math.exp(-theta / u)
        se = math.sqrt(exact * (1 - exact) / len(Z))
        assert abs(emp - exact) <= 3.0 * se

    def test_power_covariance_golden_oracle(self):
        # the covariance cross-check that pins the analytic path
        v = power(1.0, 1.0)
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        Z = brown_resnick_at(v, pts, 100_000, seed=7)
        cov_emp, se = covariance_with_se(Z[:, 0] ** 0.25, Z[:, 1] ** 0.25)
        cov_q = cov_simple(0.25, 0.25, v, pts[0], pts[1])
        assert abs(cov_emp - cov_q) <= 3.0 * se

    def test_reproducible(self):
        g = Grid(origin=(0.0, 0.0), nx=3, ny=2, spacing=1.0)
        a = simulate_brown_resnick(power(1.0, 1.0), g, 50, seed=9)
        b = simulate_brown_resnick(power(1.0, 1.0), g, 50, seed=9)
        for s, t in zip(a, b):
            np.testing.assert_array_equal(s.values, t.values)

    @pytest.mark.slow
    def test_truncated_vs_exact_bivariate_survival(self):
        v = power(1.0, 1.0)
        for d in (0.5, 1.5, 3.0):
            pts = np.array([[0.0, 0.0], [d, 0.0]])
            Ze = brown_resnick_at(v, pts, 40_000, seed=10, method="extremal_functions")
            Zt = brown_resnick_at(v, pts, 40_000, seed=11, method="truncated_spectral",
                                  n_points=1000)
            u = 1.0
            pe = ((Ze[:, 0] > u) & (Ze[:, 1] > u)).mean()
            pt = ((Zt[:, 0] > u) & (Zt[:, 1] > u)).mean()
            joint_se = math.sqrt(pe * (1 - pe) / len(Ze) + pt * (1 - pt) / len(Zt))
            assert abs(pe - pt) <= 3.0 * joint_se

    def test_truncated_reports_bias_diagnostic(self):
        v = power(1.0, 1.0)
        _, meta = brown_resnick_at(
            v, [[0.0, 0.0], [1.0, 0.0]], 200, seed=12,
            method="truncated_spectral", n_points=50, return_meta=True,
        )
        assert 0.0 <= meta["late_update_fraction"] <= 1.0
        assert meta["n_points"] == 50

    def test_max_stability_smoke(self):
        # pointwise max of m rescaled replicates, divided by m, is again
        # standard Frechet
        v = power(1.0, 1.0)
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        Z = brown_resnick_at(v, pts, 10_000, seed=13)
        m = 20
        grouped = Z[: (len(Z) // m) * m, 0].reshape(-1, m)
        maxima = grouped.max(axis=1) / m
        u = np.exp(-1.0 / maxima)
        assert kstest(u, "uniform").pvalue > 0.01

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            brown_resnick_at(power(1.0, 1.0), [[0.0, 0.0]], 5, seed=1, method="spectral")


def _pairwise_variogram(v, points):
    """Dense matrix gamma(x_i - x_j), built in row blocks; ``v`` is a
    variogram or any function of (m, 2) difference vectors that is even.

    Row block i0:i1 is evaluated against columns i0: only and mirrored into
    the transpose, so each pair is evaluated once.  This is exact: x_j - x_i
    is -(x_i - x_j) bit for bit, and every variogram kind is even in its
    argument bit for bit (hypot, and a quadratic form of products)."""
    n = len(points)
    out = np.empty((n, n))
    block = max(1, (1 << 18) // max(n, 1))
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        diff = points[i0:i1, None, :] - points[None, i0:, :]
        vals = v(diff.reshape(-1, 2)).reshape(i1 - i0, n - i0)
        out[i0:i1, i0:] = vals
        out[i0:, i0:i1] = vals.T
    return out


def _full_head_extremal_functions(v, points, n_rep, seed):
    """Reference exact simulator, one replicate at a time: every candidate is
    evaluated at all sites 0..k through the full field matrix before it is
    tested.  Returns the values and the numbers of draws and acceptances."""
    n = len(points)
    gamma_mat = _pairwise_variogram(v, points)
    if v.is_quadratic:
        field, dim = sim._quadratic_projection(v, points), (lambda k: 2)
    else:
        # the covariance of W at points[1:] anchored at points[0], from the
        # dense matrix of gamma
        g0 = gamma_mat[0]
        cov = 0.5 * (g0[1:, None] + g0[None, 1:] - gamma_mat[1:, 1:])
        field, dim = np.zeros((n, n - 1)), (lambda k: k)
        field[1:] = sim._cholesky_with_jitter(cov)
    out = np.empty((n_rep, n))
    draws = accepted = 0
    for r, rng in enumerate(sim._replicate_rngs(seed, n_rep)):
        log_z = np.full(n, -np.inf)
        for k in range(n):
            gam = rng.exponential()
            while -np.log(gam) > log_z[k]:
                z_head = rng.standard_normal(dim(k))
                head = field[: k + 1, : dim(k)] @ z_head
                log_y = head - head[k] - 0.5 * gamma_mat[k, : k + 1]
                draws += 1
                if np.all(log_y[:k] - np.log(gam) < log_z[:k]):
                    accepted += 1
                    w = field @ np.concatenate(
                        [z_head, rng.standard_normal(dim(n - 1) - dim(k))])
                    log_y = w - w[k] - 0.5 * gamma_mat[k]
                    log_y[k] = 0.0
                    np.maximum(log_z, log_y - np.log(gam), out=log_z)
                gam += rng.exponential()
        out[r] = np.exp(log_z)
    return out, draws, accepted


_EQUIVALENCE_SITES = Grid(origin=(0.0, 0.0), nx=12, ny=11, spacing=0.25).points()[:131]


class TestExtremalFunctionsEquivalence:
    """The block-wise early rejection takes the same draws and the same
    decisions as the full-head reference."""

    @pytest.mark.parametrize("psi", [1.0, 2.0])
    @pytest.mark.parametrize("n", [1, 2, 64, 65, 131])
    def test_matches_full_head_reference(self, n, psi):
        self._check(power(1.0, psi), _EQUIVALENCE_SITES[:n], seed=100 + n)

    def test_matches_full_head_reference_shuffled_sites(self):
        order = np.random.default_rng(3).permutation(len(_EQUIVALENCE_SITES))
        self._check(power(1.0, 1.0), _EQUIVALENCE_SITES[order], seed=99)

    def test_matches_full_head_reference_site_zero_in_own_block(self):
        # site 64 lies next to site 0 and far from sites 1..63, so its
        # candidates are mostly rejected by site 0, alone in the last block
        angle = np.linspace(0.0, 2.0 * np.pi, 63, endpoint=False)
        ring = 5.0 * np.column_stack([np.cos(angle), np.sin(angle)])
        points = np.vstack([[0.0, 0.0], ring, [0.05, 0.0]])
        self._check(power(1.0, 1.0), points, seed=64, n_rep=20)

    @staticmethod
    def _check(v, points, seed, n_rep=3):
        ref, draws, accepted = _full_head_extremal_functions(v, points, n_rep, seed)
        values, meta = brown_resnick_at(v, points, n_rep, seed, return_meta=True)
        np.testing.assert_allclose(values, ref, rtol=1e-12, atol=0.0)
        assert (meta["spectral_draws"], meta["accepted"]) == (draws, accepted)

    def test_draw_counters(self):
        n_rep = 4
        _, meta = brown_resnick_at(power(1.0, 1.0), _EQUIVALENCE_SITES[:40], n_rep,
                                   seed=21, return_meta=True)
        assert all(type(meta[key]) is int for key in ("spectral_draws", "accepted"))
        # the first draw at site 0 is always kept
        assert n_rep <= meta["accepted"] <= meta["spectral_draws"]


class TestSmith:
    def test_margins_and_bivariate(self):
        g = Grid(origin=(0.0, 0.0), nx=4, ny=4, spacing=0.8)
        samples = simulate_smith(np.eye(2), g, 10_000, seed=14)
        vals = np.stack([s.values for s in samples])
        u = np.exp(-1.0 / vals[:, 1, 1])
        assert kstest(u, "uniform").pvalue > 0.01
        # bivariate 2 Phi-form: Theta(d) = 2 Phi(d/2) for Sigma = I
        d = 0.8 * math.hypot(3, 3)
        theta = extremal_coefficient(power(1.0, 2.0), [0.0, 0.0], [d, 0.0])
        uu = 1.5
        exact = math.exp(-theta / uu)
        emp = ((vals[:, 0, 0] <= uu) & (vals[:, 3, 3] <= uu)).mean()
        se = math.sqrt(exact * (1 - exact) / len(vals))
        assert abs(emp - exact) <= 3.0 * se

    @pytest.mark.slow
    def test_cross_oracle_with_brown_resnick(self):
        # Smith covariance of powers ~ exact BR with the quadratic variogram
        g = Grid(origin=(0.0, 0.0), nx=2, ny=1, spacing=1.2)
        samples = simulate_smith(np.eye(2), g, 40_000, seed=15)
        vals = np.stack([s.values.ravel() for s in samples])
        cs, se_s = covariance_with_se(vals[:, 0] ** 0.25, vals[:, 1] ** 0.25)
        v2 = power(1.0, 2.0)
        Z = brown_resnick_at(v2, [[0.0, 0.0], [1.2, 0.0]], 40_000, seed=16)
        cb, se_b = covariance_with_se(Z[:, 0] ** 0.25, Z[:, 1] ** 0.25)
        assert abs(cs - cb) <= 3.0 * math.hypot(se_s, se_b)

    def test_anisotropic_sigma(self):
        sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
        g = Grid(origin=(0.0, 0.0), nx=3, ny=3, spacing=1.0)
        samples = simulate_smith(sigma, g, 4000, seed=17)
        vals = np.stack([s.values for s in samples])
        u = np.exp(-1.0 / vals[:, 2, 0])
        assert kstest(u, "uniform").pvalue > 0.01


class TestTube:
    def test_margins(self):
        g = Grid(origin=(0.0, 0.0), nx=4, ny=4, spacing=1.0)
        samples = simulate_tube(1.0, g, 10_000, seed=18)
        vals = np.stack([s.values for s in samples])
        u = np.exp(-1.0 / vals[:, 1, 2])
        assert kstest(u, "uniform").pvalue > 0.01

    def test_independence_beyond_twice_radius(self):
        g = Grid(origin=(0.0, 0.0), nx=4, ny=4, spacing=1.0)
        samples = simulate_tube(1.0, g, 10_000, seed=19)
        vals = np.stack([s.values for s in samples])
        x = vals[:, 0, 0] ** 0.25
        y = vals[:, 3, 3] ** 0.25  # distance 4.24 > 2 R_b
        r = np.corrcoef(x, y)[0, 1]
        assert abs(r) <= 3.0 / math.sqrt(len(x))
        # joint at distance > 2Rb factorizes exactly
        emp = ((vals[:, 0, 0] <= 1.0) & (vals[:, 3, 3] <= 1.0)).mean()
        exact = math.exp(-2.0)
        se = math.sqrt(exact * (1 - exact) / len(vals))
        assert abs(emp - exact) <= 3.0 * se

    def test_radius_validation(self):
        g = Grid(origin=(0.0, 0.0), nx=2, ny=2, spacing=1.0)
        with pytest.raises(DomainError):
            simulate_tube(0.0, g, 10, seed=1)


def _per_storm_m3(grid, n_rep, seed, radius, f_max, shape_fn, storms=None):
    """Reference mixed-moving-maxima loop, one storm at a time, with the
    stopping test before every storm.  Appends each replicate's number of
    storms to ``storms`` when given."""
    pts = grid.points()
    xs = pts[:, 0]
    ys = pts[:, 1]
    lo_x, hi_x = xs.min() - radius, xs.max() + radius
    lo_y, hi_y = ys.min() - radius, ys.max() + radius
    nu_box = (hi_x - lo_x) * (hi_y - lo_y)
    rngs = sim._replicate_rngs(seed, n_rep)
    n = grid.n_points
    out = np.zeros((n_rep, n))
    ny = grid.ny
    x0, y0 = grid.origin
    dx = grid.spacing
    for r, rng in enumerate(rngs):
        Z = out[r]
        gam = 0.0
        count = 0
        while True:
            gam += rng.exponential()
            u = nu_box / gam
            zmin = Z.min()
            if zmin > 0.0 and u * f_max <= zmin:
                break
            count += 1
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
        if storms is not None:
            storms.append(count)
    return out


def _smith(grid, n_rep, seed, sigma=np.eye(2), dilation_sigmas=4.0):
    return simulate_smith(sigma, grid, n_rep, seed, dilation_sigmas=dilation_sigmas)


def _tube(grid, n_rep, seed, r_storm=1.0):
    return simulate_tube(r_storm, grid, n_rep, seed)


class TestMixedMovingMaximaEquivalence:
    """The block-wise Smith and tube simulators give the fields of the
    storm-by-storm reference bit for bit."""

    @staticmethod
    def _check(monkeypatch, simulate, grid, n_rep, seed, **kwargs):
        storms = []
        with monkeypatch.context() as m:
            m.setattr(sim, "_m3_simulate", functools.partial(_per_storm_m3, storms=storms))
            ref = simulate(grid, n_rep, seed, **kwargs)
        got = simulate(grid, n_rep, seed, **kwargs)
        assert len(got) == len(ref) == n_rep
        assert np.array_equal(np.stack([s.values for s in got]),
                              np.stack([s.values for s in ref]))
        return storms

    @pytest.mark.parametrize("simulate", [_smith, _tube])
    def test_clipped_at_every_edge(self, monkeypatch, simulate):
        # nx != ny; storm centers range a radius beyond every edge, so boxes
        # are clipped on all four sides, and the replicates stop in
        # different blocks
        grid = Grid(origin=(-1.0, 2.0), nx=30, ny=20, spacing=0.5)
        storms = self._check(monkeypatch, simulate, grid, 5, seed=41)
        assert max(storms) - min(storms) > sim._STORM_BLOCK

    @pytest.mark.parametrize("simulate", [_smith, _tube])
    def test_one_site_stops_in_the_first_block(self, monkeypatch, simulate):
        grid = Grid(origin=(0.3, -0.2), nx=1, ny=1, spacing=0.7)
        storms = self._check(monkeypatch, simulate, grid, 6, seed=42)
        assert max(storms) < sim._STORM_BLOCK

    def test_anisotropic_sigma(self, monkeypatch):
        sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
        grid = Grid(origin=(0.0, 0.0), nx=3, ny=3, spacing=1.0)
        self._check(monkeypatch, _smith, grid, 20, seed=43, sigma=sigma)

    def test_smith_cut_at_one_sigma(self, monkeypatch):
        # the Gaussian storms are cut where they are still large, so a site
        # just outside a storm's box would change the field
        grid = Grid(origin=(0.0, 0.0), nx=12, ny=9, spacing=0.5)
        self._check(monkeypatch, _smith, grid, 5, seed=46, dilation_sigmas=1.0)

    def test_tube_radius_below_spacing(self, monkeypatch):
        # most storm boxes hold no site at all
        grid = Grid(origin=(0.0, 0.0), nx=6, ny=5, spacing=1.0)
        self._check(monkeypatch, _tube, grid, 4, seed=44, r_storm=0.3)

    @pytest.mark.parametrize("block", [1, 3, 16])
    @pytest.mark.parametrize("simulate", [_smith, _tube])
    def test_any_block_size(self, monkeypatch, simulate, block):
        # small blocks put the stop of most replicates past the first block
        monkeypatch.setattr(sim, "_STORM_BLOCK", block)
        grid = Grid(origin=(0.0, 0.0), nx=4, ny=3, spacing=1.0)
        self._check(monkeypatch, simulate, grid, 200, seed=47)

    @pytest.mark.parametrize("simulate", [_smith, _tube])
    def test_disk_grid(self, monkeypatch, simulate):
        grid = region_grid(disk(1.0), 10.0)
        self._check(monkeypatch, simulate, grid, 3, seed=45)


class TestMixedMovingMaximaValidation:
    """Arguments that would make the storm loop run forever, or fail outside
    windrisk's errors, raise DomainError before any draw.  A storm radius of
    1e-161 gives an infinite storm height, one of 1e-170 a storm area that
    underflows to 0."""

    GRID = Grid(origin=(0.0, 0.0), nx=3, ny=3, spacing=1.0)

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        monkeypatch.setattr(sim, "_replicate_rngs",
                            lambda *args: pytest.fail("the simulator drew storms"))

    @pytest.mark.parametrize("dilation", [0.0, -1.0, math.inf, math.nan, 1e200])
    def test_smith_dilation(self, dilation):
        with pytest.raises(DomainError):
            simulate_smith(np.eye(2), self.GRID, 1, seed=1, dilation_sigmas=dilation)

    @pytest.mark.parametrize("r_storm", [math.inf, math.nan, 1e-161, 1e-170])
    def test_tube_radius(self, r_storm):
        with pytest.raises(DomainError):
            simulate_tube(r_storm, self.GRID, 1, seed=1)

    @pytest.mark.parametrize("n_rep", [0, -1])
    @pytest.mark.parametrize("simulate", [_smith, _tube])
    def test_no_replicates(self, simulate, n_rep):
        with pytest.raises(DomainError):
            simulate(self.GRID, n_rep, 1)

    @pytest.mark.parametrize("simulate", [_smith, _tube])
    def test_replicates_past_any_array_size(self, simulate):
        with pytest.raises(DomainError):
            simulate(self.GRID, 10**300, 1)


_ANISOTROPIC = anisotropic_power(0.7, np.array([[2.0, 0.5], [0.5, 1.0]]), 1.5)


class TestGaussianFactor:
    """One anchored Cholesky factor per (variogram, sites), built without the
    dense variogram matrix and kept in a single-entry cache."""

    SITES = _EQUIVALENCE_SITES[:70]

    @staticmethod
    def _run(v, points, method):
        return brown_resnick_at(v, points, 3, seed=31, method=method, n_points=40,
                                return_meta=True)

    def test_cached_runs_equal_uncached_runs(self, monkeypatch):
        other = _EQUIVALENCE_SITES[40:131]
        calls = [(power(1.0, 1.0), self.SITES, "extremal_functions"),
                 (power(1.0, 1.0), self.SITES, "truncated_spectral"),
                 (power(1.0, 1.0), self.SITES, "extremal_functions"),
                 (power(1.0, 1.5), other, "extremal_functions"),
                 (power(1.0, 1.5), other, "truncated_spectral"),
                 (power(1.0, 1.5), other, "extremal_functions")]
        want = []
        for call in calls:
            monkeypatch.setattr(sim, "_cached_factor", (None, None))
            want.append(self._run(*call))
        monkeypatch.setattr(sim, "_cached_factor", (None, None))
        for call, (values, meta) in zip(calls, want):
            got, got_meta = self._run(*call)
            assert np.array_equal(got, values)
            assert got_meta == meta

    @pytest.mark.parametrize("v", [_ANISOTROPIC, quadratic_form(np.array([[2.0, 0.5],
                                                                           [0.5, 1.0]]))])
    def test_variogram_with_a_sigma_array_twice(self, monkeypatch, v):
        monkeypatch.setattr(sim, "_cached_factor", (None, None))
        first = self._run(v, self.SITES, "extremal_functions")
        again = self._run(v, self.SITES, "extremal_functions")
        assert np.array_equal(first[0], again[0]) and first[1] == again[1]
        assert (sim._cached_factor[0] is None) == v.is_quadratic

    def test_one_read_only_factor_per_variogram_and_sites(self, monkeypatch):
        monkeypatch.setattr(sim, "_cached_factor", (None, None))
        chol = sim._GaussianSampler(power(1.0, 1.0), self.SITES).chol
        assert not chol.flags.writeable
        assert sim._GaussianSampler(power(1.0, 1.0), self.SITES.copy()).chol is chol
        other = sim._GaussianSampler(power(1.0, 1.5), self.SITES).chol
        assert other is not chol and sim._cached_factor[1] is other

    def test_factor_build_peaks_below_three_matrices(self, monkeypatch):
        # the covariance and the factor, and the fill's small blocks; a dense
        # variogram matrix beside them would make three traced n x n arrays
        # (the factorization's work copy is not traced)
        import tracemalloc

        monkeypatch.setattr(sim, "_cached_factor", (None, None))
        grid = Grid(origin=(0.0, 0.0), nx=32, ny=32, spacing=0.1)
        matrix_bytes = 8 * (grid.n_points - 1) ** 2
        tracemalloc.start()
        try:
            gaussian_increment_field(power(1.0, 1.0), grid, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * matrix_bytes

    def test_jitter_retry_for_a_duplicated_site(self, monkeypatch):
        v, points = power(1.0, 1.0), np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [2.0, 1.0]])
        gamma = _pairwise_variogram(v, points)
        cov = 0.5 * (gamma[0, 1:, None] + gamma[0, None, 1:] - gamma[1:, 1:])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(cov)
        jittered = cov.copy()
        jittered[np.diag_indices_from(jittered)] += max(np.trace(cov) / len(cov), 1.0) * 1e-12
        want = np.linalg.cholesky(jittered)
        before = cov.copy()
        assert np.array_equal(sim._cholesky_with_jitter(cov), want)
        assert np.array_equal(cov, before)  # the diagonal is put back
        monkeypatch.setattr(sim, "_cached_factor", (None, None))
        assert np.array_equal(sim._GaussianSampler(v, points).chol, want)


class TestPairwiseVariogram:
    @pytest.mark.parametrize("v", [
        power(1.0, 1.0),
        power(2.0, 2.0),
        _ANISOTROPIC,
    ])
    def test_matches_every_pair_evaluated(self, v):
        # 700 sites make two row blocks, so the mirrored half is checked
        points = np.random.default_rng(8).uniform(-5.0, 5.0, (700, 2))
        full = v((points[:, None, :] - points[None, :, :]).reshape(-1, 2)).reshape(700, 700)
        assert np.array_equal(_pairwise_variogram(v, points), full)

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_short_rows_match_the_matrix(self, length):
        # the simulators evaluate rows of one, two or three vectors, which
        # must round as the matrix's entries do
        v = quadratic_form(np.array([[1.3, -0.4], [-0.4, 0.9]]))
        points = np.random.default_rng(9).uniform(-5.0, 5.0, (200, 2))
        gamma = _pairwise_variogram(v, points)
        for i in range(200 - length):
            cols = slice(i + 1, i + 1 + length)
            assert np.array_equal(v(points[i] - points[cols]), gamma[i, cols])


class TestSchlather:
    @staticmethod
    def correlation(dist):
        return np.exp(-np.asarray(dist) / 2.0)

    def test_margins(self):
        g = Grid(origin=(0.0, 0.0), nx=3, ny=3, spacing=1.0)
        samples = simulate_schlather(self.correlation, g, 10_000, seed=20)
        vals = np.stack([s.values for s in samples])
        u = np.exp(-1.0 / vals[:, 1, 1])
        assert kstest(u, "uniform").pvalue > 0.01

    def test_comonotone_at_zero_distance(self):
        g = Grid(origin=(0.0, 0.0), nx=2, ny=1, spacing=1e-9)
        samples = simulate_schlather(self.correlation, g, 200, seed=21)
        for s in samples:
            a, b = s.values.ravel()
            assert abs(a - b) <= 1e-3 * max(a, b)

    def test_extremal_coefficient_closed_form(self):
        # literature closed form: Theta(h) = 1 + sqrt((1 - rho(h))/2)
        g = Grid(origin=(0.0, 0.0), nx=2, ny=1, spacing=2.0)
        samples = simulate_schlather(self.correlation, g, 20_000, seed=22)
        vals = np.stack([s.values.ravel() for s in samples])
        rho = float(self.correlation(2.0))
        theta = 1.0 + math.sqrt((1.0 - rho) / 2.0)
        u = 1.5
        exact = math.exp(-theta / u)
        emp = ((vals[:, 0] <= u) & (vals[:, 1] <= u)).mean()
        se = math.sqrt(exact * (1 - exact) / len(vals))
        assert abs(emp - exact) <= 3.0 * se

    def test_bias_metadata(self):
        g = Grid(origin=(0.0, 0.0), nx=2, ny=2, spacing=1.0)
        samples = simulate_schlather(self.correlation, g, 100, seed=23, n_points=200)
        assert samples[0].meta["late_update_fraction"] <= 1.0

    def test_no_replicates(self):
        g = Grid(origin=(0.0, 0.0), nx=2, ny=2, spacing=1.0)
        with pytest.raises(DomainError):
            simulate_schlather(self.correlation, g, 0, seed=24)

    @pytest.mark.parametrize("n_points", [0, -1])
    def test_no_spectral_points(self, n_points):
        g = Grid(origin=(0.0, 0.0), nx=2, ny=2, spacing=1.0)
        with pytest.raises(DomainError):
            simulate_schlather(self.correlation, g, 2, seed=24, n_points=n_points)

    def test_factor_is_the_dense_matrix_factor(self, monkeypatch):
        # the blockwise lower-triangle fill gives the factor of the dense
        # correlation matrix bit for bit, so the values are those of it
        g = Grid(origin=(0.3, -0.2), nx=13, ny=17, spacing=0.37)
        dist = _pairwise_variogram(lambda d: np.hypot(d[:, 0], d[:, 1]), g.points())
        factors = []
        factor = sim._cholesky_with_jitter

        def recorded(cov):
            factors.append(factor(cov))
            return factors[-1]

        monkeypatch.setattr(sim, "_cholesky_with_jitter", recorded)
        simulate_schlather(self.correlation, g, 2, seed=25, n_points=10)
        assert np.array_equal(factors[0], np.linalg.cholesky(self.correlation(dist)))

    def test_non_elementwise_correlation_rejected(self):
        g = Grid(origin=(0.0, 0.0), nx=3, ny=3, spacing=1.0)
        with pytest.raises(DomainError, match="elementwise"):
            simulate_schlather(lambda d: 0.5, g, 2, seed=26)

    def test_correlation_build_peaks_below_three_matrices(self):
        # the correlation matrix and its factor, and the fill's small blocks;
        # a dense distance matrix beside them would make three traced n x n
        # arrays (the factorization's work copy is not traced)
        import tracemalloc

        grid = Grid(origin=(0.0, 0.0), nx=44, ny=44, spacing=0.1)
        matrix_bytes = 8 * grid.n_points ** 2
        tracemalloc.start()
        try:
            simulate_schlather(self.correlation, grid, 1, seed=27, n_points=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * matrix_bytes


class TestGevTransform:
    def test_finite_endpoint(self, paper_gev):
        # xi < 0: values approach eta - tau/xi = 45 from below
        assert gev_transform_values(1e9, paper_gev) < 45.0
        assert gev_transform_values(1e9, paper_gev) > 44.0

    def test_unit_maps_to_eta(self):
        for xi in (-0.2, 0.3, 0.0):
            p = GevParams(ETA, TAU, xi)
            assert gev_transform_values(1.0, p) == pytest.approx(ETA, rel=1e-14)

    def test_gumbel_branch(self):
        p = GevParams(ETA, TAU, 0.0)
        z = np.array([0.5, 1.0, 7.0])
        np.testing.assert_allclose(gev_transform_values(z, p), ETA + TAU * np.log(z))

    def test_support_ends(self):
        # the finite endpoint eta - tau/xi at z = 0 (xi > 0) and z = inf
        # (xi < 0), the infinite ones elsewhere, and no warning
        z = np.array([0.0, 0.3, 2.0, np.inf])
        expected_ends = {0.3: (ETA - TAU / 0.3, np.inf), -0.2: (-np.inf, ETA + TAU / 0.2),
                         0.0: (-np.inf, np.inf)}
        for xi, (low, high) in expected_ends.items():
            p = GevParams(ETA, TAU, xi)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = gev_transform_values(z, p)
            assert out[0] == low and out[-1] == high
            # interior values are the formula's, bit for bit
            log_z = np.log(z[1:3])
            assert np.array_equal(out[1:3], ETA + TAU * log_z * exprel(xi * log_z))

    def test_mc_mean_matches_closed_form(self, paper_gev):
        rng = np.random.default_rng(24)
        z = 1.0 / -np.log(rng.uniform(size=1_000_000))
        zg = gev_transform_values(z, paper_gev)
        se = zg.std(ddof=1) / math.sqrt(len(zg))
        assert abs(zg.mean() - mean_cost(PowerSpec.gev(1, paper_gev))) <= 3.0 * se

    def test_sample_level_transform(self, paper_gev):
        g = Grid(origin=(0.0, 0.0), nx=2, ny=2, spacing=1.0)
        samples = simulate_brown_resnick(power(1.0, 1.0), g, 5, seed=25)
        t = gev_transform(samples[0], paper_gev)
        assert t.margin == paper_gev
        assert np.all(t.values < ETA - TAU / XI)
        with pytest.raises(DomainError):
            gev_transform(t, paper_gev)  # already transformed


class TestNormalizedLoss:
    def test_constant_field(self):
        region = disk(1.0)
        lam = 2.0
        grid = region_grid(region, lam)
        c = 3.25
        samples = [
            FieldSample(grid=grid, values=np.full((grid.nx, grid.ny), c), seed=0)
        ]
        losses = mc_normalized_loss(samples, region, lam, beta=1.0)
        assert losses[0] == pytest.approx(c, rel=1e-15)

    def test_spacing_contract(self):
        region = disk(1.0)
        grid = Grid(origin=(-2.0, -2.0), nx=5, ny=5, spacing=1.0)  # too coarse
        samples = [FieldSample(grid=grid, values=np.ones((5, 5)), seed=0)]
        with pytest.raises(DomainError):
            mc_normalized_loss(samples, region, 2.0, beta=1.0)

    def test_coverage_contract(self):
        region = disk(1.0)
        lam = 10.0
        grid = region_grid(region, lam)
        small = Grid(origin=grid.origin, nx=grid.nx // 2, ny=grid.ny, spacing=grid.spacing)
        samples = [
            FieldSample(grid=small, values=np.ones((small.nx, small.ny)), seed=0)
        ]
        with pytest.raises(DomainError):
            mc_normalized_loss(samples, region, lam, beta=1.0)

    def test_region_grid_covers(self):
        region = disk(1.0)
        for lam in (1.0, 7.0):
            grid = region_grid(region, lam)
            assert grid.spacing <= region.max_distance() * lam / 50.0 * (1 + 1e-12)
            mask = grid_region_mask(grid, region, lam)
            assert mask.sum() > 1900  # ~ pi/4 of 51^2


class TestMcRisk:
    def test_constant_losses(self):
        est = mc_risk(np.full(500, 2.5), "var", alpha=0.95)
        assert est.value == 2.5
        assert est.std_error == 0.0
        est_es = mc_risk(np.full(500, 2.5), "es", alpha=0.95)
        assert est_es.value == 2.5

    def test_gaussian_closed_form_oracle(self):
        rng = np.random.default_rng(26)
        x = rng.standard_normal(20_000)
        var_est = mc_risk(x, "var", alpha=0.95)
        assert abs(var_est.value - norm_quantile(0.95)) <= 3.0 * var_est.std_error
        es_est = mc_risk(x, "es", alpha=0.95)
        es_exact = norm_pdf(norm_quantile(0.95)) / 0.05
        assert es_exact == pytest.approx(2.0627, abs=2e-4)
        assert abs(es_est.value - es_exact) <= 3.0 * es_est.std_error

    def test_mean_and_variance(self):
        rng = np.random.default_rng(27)
        x = rng.normal(loc=3.0, scale=2.0, size=5000)
        m = mc_risk(x, "mean")
        assert abs(m.value - 3.0) <= 3.0 * m.std_error
        v = mc_risk(x, "variance")
        assert abs(v.value - 4.0) <= 3.0 * v.std_error

    def test_tail_warning(self):
        rng = np.random.default_rng(28)
        est = mc_risk(rng.standard_normal(100), "var", alpha=0.9)
        assert est.warning is not None

    def test_validation(self):
        with pytest.raises(DomainError):
            mc_risk([], "mean")
        with pytest.raises(DomainError):
            mc_risk([1.0, 2.0], "median")
        with pytest.raises(DomainError):
            mc_risk([1.0, 2.0], "var", alpha=1.5)
        with pytest.raises(DomainError):
            mc_risk([1.0], "variance")


class TestBinaryDump:
    def test_roundtrip(self, tmp_path, paper_gev):
        g = Grid(origin=(0.5, -1.0), nx=3, ny=2, spacing=0.25)
        samples = simulate_brown_resnick(power(1.0, 1.0), g, 4, seed=30)
        samples = [gev_transform(s, paper_gev) for s in samples]
        path = tmp_path / "fields.bin"
        write_field_samples(path, samples)
        back = read_field_samples(path)
        assert len(back) == 4
        for s, t in zip(samples, back):
            np.testing.assert_array_equal(s.values, t.values)
            assert t.grid == g
            assert t.margin == paper_gev
            assert t.seed == s.seed
            assert t.replicate == s.replicate

    def test_simple_margin_roundtrip(self, tmp_path):
        g = Grid(origin=(0.0, 0.0), nx=2, ny=2, spacing=1.0)
        samples = simulate_brown_resnick(power(1.0, 1.0), g, 2, seed=31)
        path = tmp_path / "f.bin"
        write_field_samples(path, samples)
        back = read_field_samples(path)
        assert back[0].margin is None

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(DomainError):
            read_field_samples(path)

    @pytest.mark.parametrize("edit", [lambda b: b[:-1], lambda b: b[:-8 * 4 - 16],
                                      lambda b: b + b"\x00"],
                             ids=["one-byte-short", "one-replicate-short", "trailing-byte"])
    def test_size_other_than_the_header_says_is_rejected(self, tmp_path, edit):
        g = Grid(origin=(0.0, 0.0), nx=2, ny=2, spacing=1.0)
        path = tmp_path / "f.bin"
        write_field_samples(path, simulate_brown_resnick(power(1.0, 1.0), g, 2, seed=31))
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(DomainError, match="bytes"):
            read_field_samples(path)
