"""The three benchmark workloads: inputs from a seed, one timed pass, and
the correctness gate that runs after the timing.

Every workload exposes ``setup()`` (input generation, counted in
``setup_s``), ``run()`` (the timed pass) and ``check(outputs)`` (the gate,
never timed).  ``check`` returns the operations attempted, the failures
by cause and the latency percentiles of the pass's operations; a failure
is a documented library error, a CLI exit code other than 0, or an output
outside its tolerance.  An exception outside windrisk's own error
hierarchy is a crash.

The library is reached only through module attributes (``wr.r2``,
``cli.main``) at call time, so the tracer's rebinding applies.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
import time
from collections import Counter
from pathlib import Path

import numpy as np

import windrisk as wr
from windrisk import cli

DATA = Path(__file__).resolve().parent / "data"

# the absolute part of every tolerance, in units of the quantity's scale
# (1 for a dependence value, the variance of the power for a covariance)
ABS_FLOOR = 1e-9
# a Monte-Carlo estimate may sit this many standard errors from its
# closed-form value
MC_Z_LIMIT = 5.0


class Workload:
    """A pass's inputs come from its input set ``pass_index`` (run.py gives
    every run the same sets, in an order set by the seed) and, where the
    cost of the work does not depend on them, from the seed as well.

    ``study_sweep`` and ``mc_oracle`` take their inputs from the input set
    alone: a study variant, or the simulators' sample paths, whose cost
    varies by a factor of 3 between paths for exact Brown-Resnick.  The
    seed orders them and seeds ``mc_risk``'s bootstrap.  ``one_off_queries``
    draws its queries from the seed and the set: its stratified design
    keeps their cost nearly the same from one seed to the next."""

    def __init__(self, seed: int, pass_index: int, size: str, workdir: Path, tracer=None):
        self.seed = int(seed)
        self.pass_index = int(pass_index)
        self.size = size
        self.workdir = workdir
        self.tracer = tracer

    def span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()


def latency_percentiles(seconds) -> dict:
    """p50 and p99 of one pass's operation latencies, in ms."""
    ms = np.asarray(seconds, dtype=float) * 1e3
    return {"query_p50_ms": float(np.percentile(ms, 50)),
            "query_p99_ms": float(np.percentile(ms, 99))}


# ---------------------------------------------------------------------------
# study_sweep: the closed-form study through the CLI
# ---------------------------------------------------------------------------

STUDY_VARIANTS = 8
STUDY_PSI = (0.5, 1.0, 1.5, 2.0)
STUDY_MAX_BY_PSI = {0.5: 1500.0, 1.0: 100.0, 1.5: 25.0, 2.0: 10.0}
STUDY_REL_TOL = 3e-7
# the references' tolerance: 15x tighter than the study's; the plane
# integral K of the seed does not converge below about 2e-8
REF_REL_TOL = 2e-8


def study_commands(variant: int, size: str = "full", rel_tol: float = STUDY_REL_TOL):
    """(label, CLI command, config) for each CLI call of one sweep pass.

    The variant perturbs eta and tau by up to 5% and the distance and lam
    grid endpoints by up to 10%; xi stays at the study's -0.2.
    """
    u = np.random.default_rng([20240901, variant]).uniform(-1.0, 1.0, size=6)
    gev = {"eta": 30.0 * (1 + 0.05 * u[0]), "tau": 3.0 * (1 + 0.05 * u[1]), "xi": -0.2}
    d_min = 0.1 * (1 + 0.1 * u[2])
    lams = [float(x) for x in np.geomspace(0.5 * (1 + 0.1 * u[4]), 40.0 * (1 + 0.1 * u[5]), 3)]
    psis = STUDY_PSI if size == "full" else (1.0,)
    betas = list(range(1, 13)) if size == "full" else [1, 12]
    cmds = []
    for psi in psis:
        d_max = STUDY_MAX_BY_PSI[psi] * (1 + 0.1 * u[3])
        distances = [0.0] + [float(h) for h in np.geomspace(d_min, d_max, 40)]
        if size != "full":
            distances = distances[::8]
        cmds.append((f"depsurface_psi{psi:g}", "depsurface", {"depsurface": {
            "gev": gev, "kappa": 1.0, "psi": [psi], "beta": betas,
            "distances": distances, "rel_tol": rel_tol}}))
    cmds.append(("r2curves", "r2curves", {"r2curves": {
        "gev": gev, "kappa": 1.0, "psi": list(psis), "beta": 1,
        "shapes": ["disk", "square"] if size == "full" else ["disk"], "R": 1.0,
        "lam": lams if size == "full" else lams[:1], "rel_tol": rel_tol}}))
    regions = [{"shape": "disk", "R": 1.0}, {"shape": "square", "R": 1.0}]
    cmds.append(("riskreport", "riskreport", {"riskreport": {
        "gev": gev, "kappa": 1.0, "psi": 1.0, "beta": 1,
        "regions": regions if size == "full" else regions[:1],
        "lam": [10.0, 25.0, 50.0] if size == "full" else [10.0],
        "alpha": [0.95, 0.99], "rel_tol": rel_tol}}))
    return cmds


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# number of leading key columns of each command's CSV
KEY_COLUMNS = {"depsurface": 3, "r2curves": 3, "riskreport": 2}


def compact_refs(command: str, csv_path) -> dict:
    """A command's CSV as key axes plus value rows in the CLI's row order.

    Every command writes the Cartesian product of its key columns, so the
    axes and the values restore each row without storing its key.
    """
    _, rows = read_csv(csv_path)
    k = KEY_COLUMNS[command]
    axes = [list(dict.fromkeys(row[j] for row in rows)) for j in range(k)]
    if len(rows) != math.prod(len(a) for a in axes):
        raise ValueError(f"{csv_path}: rows are not a product of their keys")
    return {"axes": axes, "values": [[float(f"{float(x):.10g}") for x in row[k:]]
                                     for row in rows]}


def expand_refs(entry: dict) -> dict:
    """The inverse of :func:`compact_refs`: CSV key text to value row."""
    keys = (",".join(combo) for combo in itertools.product(*entry["axes"]))
    return dict(zip(keys, entry["values"]))


def run_cli(command: str, config_path: Path, out_path: Path):
    """cli.main with the benchmark's fixed flags; returns the exit code."""
    return cli.main([command, "--config", str(config_path), "--out", str(out_path),
                     "--threads", "1"])


class StudySweep(Workload):
    """depsurface (one call per psi), r2curves and riskreport, in-process."""

    def setup(self):
        self.variant = self.pass_index % STUDY_VARIANTS
        self.commands = []
        for label, command, config in study_commands(self.variant, self.size):
            path = self.workdir / f"{label}.json"
            path.write_text(json.dumps(config))
            self.commands.append((label, command, path, self.workdir / f"{label}.csv"))
        refs = json.loads((DATA / "study_refs.json").read_text())
        self.refs = {label: expand_refs(entry)
                     for label, entry in refs["variants"][self.variant].items()}

    def run(self):
        """Exit code (or crash cause) and seconds of each command."""
        codes = {}
        for label, command, config_path, out_path in self.commands:
            t0 = time.perf_counter()
            with self.span(f"cli.{command}"):
                try:
                    code = run_cli(command, config_path, out_path)
                except Exception as exc:  # a traceback is a CLI defect: record it
                    code = f"crash:{type(exc).__name__}"
            codes[label] = (code, time.perf_counter() - t0)
        return codes

    def check(self, codes):
        causes = Counter()
        detail = []
        for label, command, _, out_path in self.commands:
            code = codes[label][0]
            if code != 0:
                causes[code if isinstance(code, str) else f"cli_exit_{code}"] += 1
                continue
            _, rows = read_csv(out_path)
            ref = self.refs[label]
            k = KEY_COLUMNS[command]
            problems = []
            if self.size == "full" and len(rows) != len(ref):
                problems.append(f"{len(rows)} rows, {len(ref)} expected")
            for row in rows:
                key = ",".join(row[:k])
                want_row = ref.get(key)
                if want_row is None or len(row) - k != len(want_row):
                    problems.append(f"row {key} has no reference of its shape")
                    continue
                for got, want in zip(row[k:], want_row):
                    if not abs(float(got) - want) <= STUDY_REL_TOL * abs(want) + ABS_FLOOR:
                        problems.append(f"{key}: {got} vs reference {want!r}")
            if problems:
                causes["mismatch"] += 1
                detail += [f"{label} {p}" for p in problems]
        return {"attempted": len(self.commands), "causes": dict(causes),
                "detail": detail[:10], "op_seconds": {k: dt for k, (_, dt) in codes.items()},
                **latency_percentiles([dt for _, dt in codes.values()])}


# ---------------------------------------------------------------------------
# one_off_queries: fresh PowerSpec per query, no reuse
# ---------------------------------------------------------------------------

QUERIES_PER_PASS = {"full": 1000, "tiny": 40}
GATE_SHARE = 0.05
# a gated query is evaluated again at both tolerances; when the two
# disagree by more than a tenth of the gate's tolerance (cancellation in
# the seed's binomial mixture can do that), the reference is not trusted
# and the query counts as unverifiable
GATE_SPEC_REL_TOLS = (3e-9, 1e-9)


def _levels(rng, n, k):
    """n draws of k equally frequent levels in random order (stratified)."""
    return rng.permutation(np.resize(np.arange(k), n))


def _spread(rng, n, lo, hi):
    """n stratified uniforms on [lo, hi] in random order (a Latin hypercube column)."""
    return lo + (hi - lo) * (rng.permutation(n) + rng.uniform(size=n)) / n


def _spd(theta, l1, l2):
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    return rot @ np.diag([l1, l2]) @ rot.T


def draw_queries(seed: int, pass_index: int, n: int):
    """n queries over the documented domain, stratified over their factors.

    A quarter use simple margins with beta in [-1, 0.45], |beta| >= 0.05;
    the rest GEV margins with beta 1..12, of which 1/8 have xi = 0, 2/8 a
    small |xi| in [1e-3, 0.05] and 5/8 xi uniform in [-0.45, 0.45/beta].
    Half the queries ask dep_measure and half the covariance; the four
    variogram kinds are equally frequent; the lag is log-uniform in
    [0.05, 10] in a random direction from a random site.  Levels come in
    exact shares and continuous values are Latin-hypercube columns, so two
    seeds give query sets of nearly the same cost.
    """
    rng = np.random.default_rng([7, seed, pass_index])
    simple = _levels(rng, n, 4) == 3
    xi_class = _levels(rng, n, 8)
    betas = _levels(rng, n, 12) + 1
    ops = _levels(rng, n, 2)
    kinds = _levels(rng, n, 4)
    signs = np.where(_levels(rng, n, 2) == 0, -1.0, 1.0)
    col = {
        "psi": (0.2, 2.0), "scale": (0.5, 2.0), "theta": (0.0, math.pi),
        "l1": (0.5, 2.0), "l2": (0.5, 2.0), "x": (-5.0, 5.0), "y": (-5.0, 5.0),
        "log_dist": (math.log(0.05), math.log(10.0)), "angle": (0.0, 2.0 * math.pi),
        "b": (-1.0, 0.35), "log_small_xi": (-3.0, math.log10(0.05)), "u_xi": (0.0, 1.0),
        "eta": (10.0, 50.0), "tau": (0.5, 5.0),
    }
    col = {name: _spread(rng, n, lo, hi) for name, (lo, hi) in col.items()}
    queries = []
    for i in range(n):
        psi, scale = col["psi"][i], col["scale"][i]
        if kinds[i] == 0:
            v = wr.power(scale, psi)
        elif kinds[i] == 1:
            v = wr.power_m(scale, psi)
        else:
            sigma = _spd(col["theta"][i], col["l1"][i], col["l2"][i])
            v = wr.quadratic_form(sigma) if kinds[i] == 2 else wr.anisotropic_power(scale, sigma, psi)
        x1 = np.array([col["x"][i], col["y"][i]])
        angle = col["angle"][i]
        x2 = x1 + math.exp(col["log_dist"][i]) * np.array([math.cos(angle), math.sin(angle)])
        if simple[i]:
            b = col["b"][i]
            b = b + 0.1 if b >= -0.05 else b
            if ops[i] == 0:
                queries.append(("dep_measure", (wr.PowerSpec.simple(b), v, x1, x2)))
            else:
                queries.append(("cov_simple", (b, b, v, x1, x2)))
            continue
        beta = int(betas[i])
        if xi_class[i] == 0:
            xi = 0.0
        elif xi_class[i] <= 2:
            xi = float(signs[i] * 10.0 ** col["log_small_xi"][i])
        else:
            xi = -0.45 + col["u_xi"][i] * (0.45 / beta + 0.45)
        xi = min(xi, 0.45 / beta)
        p = wr.PowerSpec.gev(beta, wr.GevParams(col["eta"][i], col["tau"][i], xi))
        if ops[i] == 0:
            queries.append(("dep_measure", (p, v, x1, x2)))
        else:
            queries.append(("cov_gev", (p, p, v, x1, x2)))
    return queries


def _scale(name, args):
    """Natural scale of a query's answer, for the absolute floor."""
    if name == "dep_measure":
        return 1.0
    if name == "cov_simple":
        return wr.var_simple(args[0])
    return wr.var_gev(args[0])


class OneOffQueries(Workload):
    def setup(self):
        self.queries = draw_queries(self.seed, self.pass_index, QUERIES_PER_PASS[self.size])

    def run(self):
        results = []
        for name, args in self.queries:
            t0 = time.perf_counter()
            try:
                value = getattr(wr, name)(*args)
                outcome = None
            except wr.WindriskError as exc:
                value, outcome = None, type(exc).__name__
            except Exception as exc:  # outside the documented errors: a crash
                value, outcome = None, f"crash:{type(exc).__name__}"
            results.append((value, outcome, time.perf_counter() - t0))
        return results

    def check(self, results):
        causes = Counter(outcome for _, outcome, _ in results if outcome)
        rng = np.random.default_rng([11, self.seed, self.pass_index])
        n = len(self.queries)
        picked = rng.choice(n, size=max(5, int(GATE_SHARE * n)), replace=False)
        checked = unverifiable = 0
        detail = []
        for i in sorted(picked):
            value, outcome, _ = results[i]
            if outcome:
                continue
            name, args = self.queries[i]
            try:
                loose, ref = (getattr(wr, name)(*args, wr.QuadSpec(rel_tol=rt))
                              for rt in GATE_SPEC_REL_TOLS)
            except wr.WindriskError:
                unverifiable += 1
                continue
            tol = wr.DEFAULT_QUAD.rel_tol * abs(ref) + ABS_FLOOR * _scale(name, args)
            if abs(loose - ref) > 0.1 * tol:
                unverifiable += 1
                continue
            checked += 1
            if not abs(value - ref) <= tol:
                causes["mismatch"] += 1
                detail.append(f"query {i} {name}: {value!r} vs {ref!r} at rel_tol "
                              f"{GATE_SPEC_REL_TOLS[-1]:g}")
        return {"attempted": n, "causes": dict(causes), "detail": detail[:10],
                "gate_checked": checked, "gate_unverifiable": unverifiable,
                **latency_percentiles([dt for _, _, dt in results])}


# ---------------------------------------------------------------------------
# mc_oracle: the Monte-Carlo validation path
# ---------------------------------------------------------------------------

MC_GEV = (30.0, 3.0, -0.2)
MC_LAM = 10.0
MC_ALPHA = 0.9
MC_REPS = {
    "full": {"smith": 16, "tube": 16, "br_psi1": 2, "br_psi2": 10, "br_truncated": 2},
    "tiny": {"smith": 1, "tube": 1, "br_psi1": 1, "br_psi2": 1, "br_truncated": 1},
}
# per simulator: psi of the Brown-Resnick law it samples (Smith with the
# identity matrix is psi = 2; the tube model has no closed-form variance)
# and the estimates checked against the closed forms.  The truncated
# spectral method is biased by design (its late-update fraction is the
# diagnostic), so only its values' range is checked.  The dependence of
# br_psi1 and tube is checked as well (DEP_EXCEEDANCE below).
MC_CHECKS = {
    "smith": (2, ("mean", "variance", "var", "es")),
    "tube": (None, ("mean",)),
    "br_psi1": (1, ("mean",)),
    "br_psi2": (2, ("mean", "variance")),
    "br_truncated": (1, ()),
}
# below this many replicates there is no bootstrap: only the mean is
# checked, against its closed-form standard error
MC_MIN_BOOTSTRAP = 10
# the tiny size simulates Brown-Resnick on the first sites of the disk only
TINY_SITES = 200
TUBE_RADIUS = 1.0

# The dependence check.  For a pair of unit-Frechet sites at lag h, the
# law of the log ratio W = log(Z1 / Z2) follows from the pair's exponent
# function V by homogeneity: P(Z1 <= c Z2) = -V_2(c, 1) / V(c, 1).  The
# check uses q(h) = P(|W| > DEP_LOG_RATIO), the share of pairs whose
# values differ by more than a factor exp(DEP_LOG_RATIO).  Unlike the
# F-madogram, W does not change when the whole field is scaled, so the
# field's overall level, which varies much from one replicate to the next,
# does not enter.  The pairs of simulated in-disk sites are binned by lag,
# in the grid's lam-scaled units (spacing 0.4, disk radius 10).  The gate
# checks the first bin's share and the step from each bin to the next,
# each within DEP_Z_LIMIT standard errors of its closed form.  One
# replicate's standard deviation of each of these statistics is
# calibrated by make_refs.py.
DEP_EDGES = np.geomspace(0.35, 20.1, 9)
DEP_LOG_RATIO = 0.5
# the statistics' tails are a little heavier than normal: in 7140 pairs
# of replicates the largest deviation was 4.5 standard errors
DEP_Z_LIMIT = 6.0


def exceedance_brown_resnick(h: float, v=wr.power(1.0, 1.0)) -> float:
    """q(h) for Brown-Resnick with variogram v, a = sqrt(gamma(h)):
    V(c, 1) = Phi(a/2 + l/a) + Phi(a/2 - l/a) / c, -V_2(c, 1) = Phi(a/2 + l/a)."""
    a, l = math.sqrt(float(v.radial(h))), DEP_LOG_RATIO
    tail = wr.norm_cdf(a / 2.0 - l / a) * math.exp(-l)
    return 2.0 * tail / (wr.norm_cdf(a / 2.0 + l / a) + tail)


def exceedance_tube(h: float) -> float:
    """q(h) for the tube model, whose extremal coefficient is theta =
    2 - (disk overlap) / (disk area): V(c, 1) = 1 + (theta - 1) / c and
    -V_2(c, 1) = 1 for c >= 1."""
    r = TUBE_RADIUS
    overlap = 0.0
    if h < 2.0 * r:
        overlap = 2.0 * r * r * math.acos(h / (2.0 * r)) - 0.5 * h * math.sqrt(4.0 * r * r - h * h)
    theta = 2.0 - overlap / (math.pi * r * r)
    return 2.0 * (theta - 1.0) / (math.exp(DEP_LOG_RATIO) + theta - 1.0)


DEP_EXCEEDANCE = {"br_psi1": exceedance_brown_resnick, "tube": exceedance_tube}


def mc_geometry():
    """The disk, its 51x51 grid and the mask of the grid's in-disk sites."""
    region = wr.disk(1.0)
    grid = wr.region_grid(region, MC_LAM)
    return region, grid, wr.grid_region_mask(grid, region, MC_LAM)


def site_pairs(sites):
    """(i, j, lag, bin) of the site pairs whose lag falls in a DEP_EDGES bin."""
    i, j = np.triu_indices(len(sites), 1)
    lag = np.round(np.hypot(*(sites[i] - sites[j]).T), 9)
    b = np.searchsorted(DEP_EDGES, lag, side="right") - 1
    keep = (b >= 0) & (b < len(DEP_EDGES) - 1)
    return i[keep], j[keep], lag[keep], b[keep]


def _level_and_steps(share):
    return np.concatenate([share[..., :1], np.diff(share, axis=-1)], axis=-1)


def dependence_statistics(values, pairs):
    """The check's statistics for each replicate (row) of simple-margin values."""
    i, j, _, b = pairs
    bins = len(DEP_EDGES) - 1
    count = np.bincount(b, minlength=bins)
    share = [np.bincount(b, np.abs(w[i] - w[j]) > DEP_LOG_RATIO, bins) / count
             for w in np.log(np.atleast_2d(values))]
    return _level_and_steps(np.array(share))


def dependence_theory(exceedance, pairs):
    """The statistics' closed-form values for the pair law q(h) = exceedance(h)."""
    _, _, lag, b = pairs
    bins = len(DEP_EDGES) - 1
    lags, inverse = np.unique(lag, return_inverse=True)
    q = np.array([exceedance(h) for h in lags])[inverse]
    return _level_and_steps(np.bincount(b, q, bins) / np.bincount(b, minlength=bins))


class McOracle(Workload):
    def setup(self):
        self.gev = wr.GevParams(*MC_GEV)
        self.region, self.grid, self.mask = mc_geometry()
        sites = self.grid.points()[self.mask]
        self.sites = sites if self.size == "full" else sites[:TINY_SITES]
        self.reps = MC_REPS[self.size]
        states = np.random.SeedSequence([13, self.pass_index]).generate_state(
            len(self.reps))
        self.seeds = {name: int(s) for name, s in zip(self.reps, states)}
        self.const = json.loads((DATA / "mc_constants.json").read_text())
        self.dump_path = self.workdir / "fields.bin"

    def _brown_resnick(self, name, psi, **kwargs):
        return wr.brown_resnick_at(wr.power(1.0, psi), self.sites, self.reps[name],
                                   self.seeds[name], **kwargs)

    def run(self):
        sims = {
            "smith": lambda: wr.simulate_smith(np.eye(2), self.grid, self.reps["smith"],
                                               self.seeds["smith"]),
            "tube": lambda: wr.simulate_tube(TUBE_RADIUS, self.grid, self.reps["tube"],
                                             self.seeds["tube"]),
            "br_psi1": lambda: self._brown_resnick("br_psi1", 1.0),
            "br_psi2": lambda: self._brown_resnick("br_psi2", 2.0),
            "br_truncated": lambda: self._brown_resnick(
                "br_truncated", 1.0, method="truncated_spectral", return_meta=True)[0],
        }
        out = {name: _attempt(sim) for name, sim in sims.items()}
        out["estimators"] = _attempt(lambda: self._estimate(out))
        if out["estimators"][1] is None:
            out["dump"] = _attempt(lambda: self._dump(out["estimators"][0]["smith_samples"]))
        return out

    def _estimate(self, out):
        """Losses and risk estimates of every simulator that succeeded."""
        est = {}
        for name, (result, outcome, _) in out.items():
            if outcome:
                continue
            if name in ("smith", "tube"):
                samples = [wr.gev_transform(s, self.gev) for s in result]
                losses = wr.mc_normalized_loss(samples, self.region, MC_LAM, 1)
                if name == "smith":
                    est["smith_samples"] = samples
            else:
                losses = np.mean(wr.gev_transform_values(result, self.gev), axis=1)
            est[name] = {"n": len(losses), "mean": wr.mc_risk(losses, "mean", seed=self.seed)}
            if len(losses) >= MC_MIN_BOOTSTRAP:
                for measure in (m for m in MC_CHECKS[name][1] if m != "mean"):
                    alpha = MC_ALPHA if measure in ("var", "es") else None
                    est[name][measure] = wr.mc_risk(losses, measure, alpha=alpha,
                                                    seed=self.seed)
        return est

    def _dump(self, samples):
        wr.write_field_samples(self.dump_path, samples)
        return samples, wr.read_field_samples(self.dump_path)

    def check(self, out):
        causes = Counter(outcome for _, outcome, _ in out.values() if outcome)
        detail = [f"{name}: {outcome}" for name, (_, outcome, _) in out.items() if outcome]
        c = self.const
        est = out["estimators"][0] or {}
        for name, (psi, measures) in MC_CHECKS.items():
            if out[name][1]:
                continue
            result = out[name][0]
            values = np.array([s.values for s in result]) if name in ("smith", "tube") else result
            problems = [] if np.all(np.isfinite(values) & (values > 0.0)) else [
                "simple-margin values outside (0, inf)"]
            full_region = name in ("smith", "tube") or len(self.sites) == c["sites"]
            r2 = c[f"r2_psi{psi}"] if psi and full_region else None
            refs = {"mean": c["mean"]}
            if psi:
                refs.update(variance=c[f"r2_psi{psi}"], var=c[f"var_asym_psi{psi}"],
                            es=c[f"es_asym_psi{psi}"])
            for measure in measures:
                if measure not in est.get(name, {}):
                    continue
                estimate, n = est[name][measure], est[name]["n"]
                if n < MC_MIN_BOOTSTRAP:
                    # a subset of the region's sites has a loss variance of at
                    # most the one-site variance
                    se = _normal_se("mean", n, r2 if r2 else c["site_variance"])
                elif r2:
                    se = max(estimate.std_error, _normal_se(measure, n, r2))
                else:
                    se = estimate.std_error
                if not abs(estimate.value - refs[measure]) <= MC_Z_LIMIT * se:
                    problems.append(f"{measure} {estimate.value:.6g} vs {refs[measure]:.6g} "
                                    f"(SE {se:.3g})")
            if name in DEP_EXCEEDANCE:
                if name == "tube":
                    values = values.reshape(len(values), -1)[:, self.mask]
                problems += self._dependence_problems(name, values)
            if problems:
                causes["mismatch"] += 1
                detail += [f"{name}: {p}" for p in problems]
        if out.get("dump", (None, "skipped", 0.0))[1] is None:
            written, read = out["dump"][0]
            if len(written) != len(read) or any(
                    a.grid != b.grid or a.margin != b.margin or a.replicate != b.replicate
                    or not np.array_equal(a.values, b.values) for a, b in zip(written, read)):
                causes["mismatch"] += 1
                detail.append("dump: the round trip changed the samples")
        return {"attempted": len(MC_CHECKS) + 2, "causes": dict(causes), "detail": detail[:10],
                "op_seconds": {name: dt for name, (_, _, dt) in out.items()},
                **latency_percentiles([dt for _, _, dt in out.values()])}

    def _dependence_problems(self, name, values):
        """The dependence statistics of (n_rep, n_sites) values against their
        closed forms."""
        sites = self.grid.points()[self.mask][: values.shape[1]]
        pairs = site_pairs(sites)
        got = dependence_statistics(values, pairs).mean(axis=0)
        want = dependence_theory(DEP_EXCEEDANCE[name], pairs)
        se = np.array(self.const["dependence_sd"][f"{name}/{len(sites)}"]) / math.sqrt(len(values))
        labels = ["log-ratio exceedance at lag bin 0"] + [
            f"log-ratio exceedance step {k - 1}->{k}" for k in range(1, len(want))]
        return [f"{label} {g:.4g} vs {w:.4g} (SE {e:.2g})"
                for label, g, w, e in zip(labels, got, want, se)
                if not abs(g - w) <= DEP_Z_LIMIT * e]


def _normal_se(measure: str, n: int, r2: float) -> float:
    """Standard error of an estimate from n normal losses of variance r2.

    A bootstrap over ten or twenty losses understates the spread of the
    variance and tail estimates, so the gate takes the larger of the two.
    The ES form is the asymptotic variance [Var(X | X > q) + alpha (ES -
    q)^2] / (n (1 - alpha)) of the empirical ES.
    """
    sd = math.sqrt(r2)
    if measure == "mean":
        return sd / math.sqrt(n)
    if measure == "variance":
        return r2 * math.sqrt(2.0 / (n - 1))
    z = wr.norm_quantile(MC_ALPHA)
    if measure == "var":
        return sd * math.sqrt(MC_ALPHA * (1.0 - MC_ALPHA) / n) / wr.norm_pdf(z)
    lam = wr.norm_pdf(z) / (1.0 - MC_ALPHA)
    tail_var = 1.0 + z * lam - lam * lam + MC_ALPHA * (lam - z) ** 2
    return sd * math.sqrt(tail_var / (n * (1.0 - MC_ALPHA)))


def _attempt(step):
    """(result, None, seconds), or (None, failure cause, seconds) when the
    step raised."""
    t0 = time.perf_counter()
    try:
        result, outcome = step(), None
    except wr.WindriskError as exc:
        result, outcome = None, type(exc).__name__
    except Exception as exc:  # outside the documented errors: a crash
        result, outcome = None, f"crash:{type(exc).__name__}"
    return result, outcome, time.perf_counter() - t0


WORKLOADS = {
    "study_sweep": StudySweep,
    "one_off_queries": OneOffQueries,
    "mc_oracle": McOracle,
}
