"""Command-line front end.

One JSON config document drives all commands; each command reads its own
top-level block and ignores the rest, so a single file can describe a
whole study.  Outputs are CSV ('.' decimal separator, comma delimiter,
header row, 12 significant digits) plus, for ``simulate``, the binary
field dump documented in :mod:`windrisk.simulate`.

Exit codes: 0 success, 2 a config value that cannot be read, a value the
computation rejects or an output path that cannot be written, 3 numerical
non-convergence.

Config schema (defaults shown; any key may be omitted and takes its
default).  An object merges into the default object key by key, and an
unknown key is an error; any other value replaces the default, so a list
may stand for a grid object.  beta, n_rep (>= 2), seed (>= 0) and the grid
counts are integers (3.0 passes, 2.7 does not).  A depsurface distance grid
has a count, or a list length, of at most 10 000 (a count gives 0 and count
geometric steps from min to the psi's max)::

    {
      "depsurface": {
        "gev": {"eta": 30.0, "tau": 3.0, "xi": -0.2}, "kappa": 1.0,
        "psi": [0.5, 1.0, 1.5, 2.0], "beta": [1, 2, ..., 12],
        "distances": {"min": 0.1, "count": 40, "max_by_psi": {"0.5": 1500.0,
                      "1.0": 100.0, "1.5": 25.0, "2.0": 10.0}} | [0.0, 0.5, ...],
        "rel_tol": 3e-7
      },
      "r2curves": {
        "gev": {...}, "kappa": 1.0, "psi": [...], "beta": 1,
        "shapes": ["disk", "square"], "R": 1.0,
        "lam": {"min": 0.1, "max": 50.0, "count": 25} | [0.5, 2.0, ...],
        "rel_tol": 3e-7
      },
      "riskreport": {
        "gev": {...}, "kappa": 1.0, "psi": 1.0, "beta": 1,
        "regions": [{"shape": "disk", "R": 1.0}],
        "lam": [10.0, 25.0, 50.0], "alpha": [0.95, 0.99],
        "rel_tol": 3e-7
      },
      "simulate": {
        "gev": {...} | null (simple margins), "kappa": 1.0, "psi": 2.0, "beta": 1,
        "region": {"shape": "disk", "R": 1.0}, "lam": 10.0,
        "n_rep": 200, "seed": 20240901, "method": "smith" | "brown_resnick",
        "alpha": [0.95], "dump": "fields.bin" | "" | null (no dump)
      }
    }
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import dependence, risk, simulate, variogram
from .dependence import GevParams, PowerSpec
from .errors import ConfigError, ConvergenceError, WindriskError
from .geometry import Region
from .numerics import QuadSpec

__all__ = ["main", "load_config", "normalize_config", "DEFAULT_CONFIG"]

_PAPER_GEV = {"eta": 30.0, "tau": 3.0, "xi": -0.2}
_PAPER_PSI = [0.5, 1.0, 1.5, 2.0]

DEFAULT_CONFIG = {
    "depsurface": {
        "gev": dict(_PAPER_GEV),
        "kappa": 1.0,
        "psi": list(_PAPER_PSI),
        "beta": list(range(1, 13)),
        "distances": {
            "min": 0.1,
            "count": 40,
            "max_by_psi": {"0.5": 1500.0, "1.0": 100.0, "1.5": 25.0, "2.0": 10.0},
        },
        "rel_tol": 3e-7,
    },
    "r2curves": {
        "gev": dict(_PAPER_GEV),
        "kappa": 1.0,
        "psi": list(_PAPER_PSI),
        "beta": 1,
        "shapes": ["disk", "square"],
        "R": 1.0,
        "lam": {"min": 0.1, "max": 50.0, "count": 25},
        "rel_tol": 3e-7,
    },
    "riskreport": {
        "gev": dict(_PAPER_GEV),
        "kappa": 1.0,
        "psi": 1.0,
        "beta": 1,
        "regions": [{"shape": "disk", "R": 1.0}],
        "lam": [10.0, 25.0, 50.0],
        "alpha": [0.95, 0.99],
        "rel_tol": 3e-7,
    },
    "simulate": {
        "gev": dict(_PAPER_GEV),
        "kappa": 1.0,
        "psi": 2.0,
        "beta": 1,
        "region": {"shape": "disk", "R": 1.0},
        "lam": 10.0,
        "n_rep": 200,
        "seed": 20240901,
        "method": "smith",
        "alpha": [0.95],
        "dump": "fields.bin",
    },
}


# objects keyed by a positive number: an override entry replaces the default
# entry whose key has the same value ("1" replaces "1.0") or adds a new one
_NUMERIC_KEYS = {"config.depsurface.distances.max_by_psi"}


def _merge_numeric_keys(defaults, override, path):
    out = dict(defaults)
    for key, value in override.items():
        try:
            number = float(key)
        except ValueError:
            number = math.nan
        if not (math.isfinite(number) and number > 0.0):
            raise ConfigError(f"{path}.{key}: key is not a positive number")
        out = {k: v for k, v in out.items() if float(k) != number}
        out[key] = value
    return json.loads(json.dumps(out))


def _merge(defaults, override, path="config"):
    """``override`` over ``defaults``: an object merges into an object key by
    key and rejects unknown keys; any other value (a list, a scalar, null)
    replaces the default.  The command readers check the types."""
    if not (isinstance(defaults, dict) and isinstance(override, dict)):
        return json.loads(json.dumps(override))
    if path in _NUMERIC_KEYS:
        return _merge_numeric_keys(defaults, override, path)
    for key in override:
        if key not in defaults:
            raise ConfigError(f"{path}.{key}: unknown key")
    # a missing key merges the default into itself, which copies it
    return {key: _merge(dv, override.get(key, dv), f"{path}.{key}")
            for key, dv in defaults.items()}


def normalize_config(raw: dict) -> dict:
    """Fill defaults and reject unknown keys; the result round-trips through
    JSON.  The values are checked when a command reads its block."""
    if not isinstance(raw, dict):
        raise ConfigError("top level of the config must be a JSON object")
    return _merge(DEFAULT_CONFIG, raw)


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} line {exc.lineno}: {exc.msg}") from exc
    return normalize_config(raw)


# the text of a float cell: 12 significant digits, '.' decimal separator.
# Every row format reads it when a CSV is written
_FLOAT_CELL = "%.11e"


def _cell(x) -> str:
    """The text of one value as a CSV cell: an integer as it is, a float
    by _FLOAT_CELL, anything else by str."""
    if isinstance(x, (int, np.integer)):
        return "%d" % x
    if isinstance(x, (float, np.floating)):
        return _FLOAT_CELL % x
    return str(x)


def _write_csv(path, header, cells, rows):
    """Write ``header`` and ``rows``, an iterable of row tuples, each row as
    it is drawn, so a generator of rows is never held whole.  ``cells`` has
    one letter per column: 's' text, 'd' an integer, 'f' a float."""
    row_format = ",".join(_FLOAT_CELL if c == "f" else "%" + c for c in cells) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row_format % row for row in rows)


def _region(block) -> Region:
    return Region(str(block["shape"]), float(block["R"]))


def _gev_params(block) -> GevParams:
    return GevParams(float(block["eta"]), float(block["tau"]), float(block["xi"]))


def _list(values, path) -> list:
    if not isinstance(values, list):
        raise ConfigError(f"{path}: expected a list, got {type(values).__name__}")
    return values


def _numbers(values, path, ok, what) -> list:
    """The list at ``path`` as floats, each one satisfying ``ok``."""
    numbers = []
    for x in _list(values, path):
        try:
            number = float(x)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{path}: {x!r} is not a number") from exc
        if not ok(number):
            raise ConfigError(f"{path}: {x!r} is not {what}")
        numbers.append(number)
    return numbers


def _integer(value, path, least) -> int:
    """An integer >= ``least``; 3.0 passes, 2.7 does not.  An integer value
    is kept exactly (a seed may exceed a double's 53 bits)."""
    number = _numbers([value], path, lambda x: x.is_integer() and x >= least,
                      f"an integer >= {least}")[0]
    return int(value) if isinstance(value, int) else int(number)


def _alphas(values) -> list:
    """Tail levels, each strictly inside (0, 1)."""
    return _numbers(values, "alpha", lambda a: 0.0 < a < 1.0, "in (0, 1)")


def _lams(values, path) -> list:
    """Dilation factors, each finite and > 0."""
    return _numbers(values, path, lambda lam: 0.0 < lam < math.inf, "a finite lam > 0")


def _power(beta, params) -> PowerSpec:
    """The integral damage power ``beta`` of GEV margins."""
    return PowerSpec.gev(_integer(beta, "beta", 1), params)


def _max_distance(max_by_psi, psi: float) -> float:
    """The entry of ``max_by_psi`` whose key equals psi as a number, so
    "1", "1.0" and "1e0" all name psi = 1."""
    if not isinstance(max_by_psi, dict):
        raise ConfigError(f"distances.max_by_psi: expected an object, got {max_by_psi!r}")
    for key, h_max in max_by_psi.items():
        if float(key) == psi:
            return float(h_max)
    raise ConfigError(f"distances.max_by_psi: no entry for psi = {psi:g}")


# the most distances a depsurface grid may hold.  The library evaluates a
# grid's lags in fixed blocks, so its working memory does not grow with
# their number, and the CSV rows are streamed from the result arrays;
# those arrays still grow, a double per distance and power
_MAX_DISTANCES = 10_000


def _distance_grid(block, psi) -> list:
    if isinstance(block, list):
        if len(block) > _MAX_DISTANCES:
            raise ConfigError(f"distances: {len(block)} entries, more than {_MAX_DISTANCES}")
        return _numbers(block, "distances", lambda h: 0.0 <= h < math.inf,
                        "a finite distance >= 0")
    h_min = float(block["min"])
    count = _integer(block["count"], "distances.count", 2)
    if count > _MAX_DISTANCES:
        raise ConfigError(f"distances.count: {count} is more than {_MAX_DISTANCES}")
    h_max = _max_distance(block["max_by_psi"], psi)
    if not 0.0 < h_min < h_max < math.inf:
        raise ConfigError(f"distances: bad grid: min={h_min} max={h_max}")
    return [0.0] + [float(h) for h in np.geomspace(h_min, h_max, count)]


# Each cmd_* reads its whole merged block into library objects and returns
# the computation as run(out_path), so nothing is computed before the block
# has been read.  Messages name a key within the block; main names the block.

def cmd_depsurface(block: dict):
    spec = QuadSpec(rel_tol=float(block["rel_tol"]))
    params = _gev_params(block["gev"])
    powers = tuple(_power(b, params) for b in _list(block["beta"], "beta"))
    # the model the run reads, built here: a power with no finite variance
    # raises DomainError
    dependence.covariance_model(powers, powers, spec)
    kappa = float(block["kappa"])
    variograms = [variogram.power(kappa, float(psi)) for psi in _list(block["psi"], "psi")]
    grids = [_distance_grid(block["distances"], v.psi) for v in variograms]

    def run(out_path):
        # every psi's dependences before the file is opened, so a failing
        # command writes none; the rows are then drawn from the arrays
        surfaces = []
        for v, distances in zip(variograms, grids):
            gammas = v.radial(np.array(distances))
            surfaces.append((v.psi, distances,
                             dependence.dep_measure_from_gamma(powers, gammas, spec)))
        rows = ((psi, p.beta, dist, dep) for psi, distances, deps in surfaces
                for p, series in zip(powers, deps) for dist, dep in zip(distances, series))
        _write_csv(out_path, ["psi", "beta", "distance", "dependence"], "fdff", rows)

    return run


def cmd_r2curves(block: dict):
    spec = QuadSpec(rel_tol=float(block["rel_tol"]))
    power = _power(block["beta"], _gev_params(block["gev"]))
    dependence.covariance_model(power, power, spec)  # as in cmd_depsurface
    lams = block["lam"]
    if isinstance(lams, dict):
        ends = [_lams([lams[end]], f"lam.{end}")[0] for end in ("min", "max")]
        lams = np.geomspace(*ends, _integer(lams["count"], "lam.count", 1)).tolist()
    lams = _lams(lams, "lam")
    regions = [Region(str(shape), float(block["R"])) for shape in _list(block["shapes"], "shapes")]
    psis = _list(block["psi"], "psi")
    kappa = float(block["kappa"])
    variograms = [variogram.power(kappa, float(psi)) for psi in psis]

    def run(out_path):
        # one quadrature call per region; the CSV prints each psi as it was given
        curves = [risk.r2_curves(region, power, variograms, lams, spec) for region in regions]
        rows = [(region.shape, _cell(psi), lam, r2) for region, r2s in zip(regions, curves)
                for psi, row in zip(psis, r2s.tolist()) for lam, r2 in zip(lams, row)]
        _write_csv(out_path, ["shape", "psi", "lam", "r2"], "ssff", rows)

    return run


def cmd_riskreport(block: dict):
    spec = QuadSpec(rel_tol=float(block["rel_tol"]))
    p = _power(block["beta"], _gev_params(block["gev"]))
    dependence.covariance_model(p, p, spec)  # as in cmd_depsurface
    regions = [_region(b) for b in _list(block["regions"], "regions")]
    lams = _lams(block["lam"], "lam")
    for region in regions:
        for lam in lams:
            risk._scaled_area(region, lam)  # an area past the double range fails here, not after K
    v = variogram.power(float(block["kappa"]), float(block["psi"]))
    alphas = _alphas(block["alpha"])

    def run(out_path):
        header = ["region", "lam", "mean", "clt_sd"]
        for a in alphas:
            header += [f"var_asym_{a:g}", f"es_asym_{a:g}"]
        # the plane integral K is the one costly quantity: compute it once and
        # derive every row's law from it
        rows = []
        mu = risk.mean_cost(p)
        k_num = risk.asymptotic_cov_integral(p, v, spec)
        for region in regions:
            for lam in lams:
                clt = risk.CltApprox.from_integral(mu, k_num, region, lam)
                row = [f"{region.shape}_R{region.R:g}", lam, clt.mean, clt.sd]
                for a in alphas:
                    row += [clt.var(a), clt.es(a)]
                rows.append(tuple(row))
        _write_csv(out_path, header, "s" + "f" * (len(header) - 1), rows)

    return run


def cmd_simulate(block: dict):
    beta = _integer(block["beta"], "beta", 1)
    region = _region(block["region"])
    lam = _lams([block["lam"]], "lam")[0]
    grid = simulate.region_grid(region, lam)
    n_rep = _integer(block["n_rep"], "n_rep", 2)  # the loss variance needs two
    seed = _integer(block["seed"], "seed", 0)
    kappa = float(block["kappa"])
    v = variogram.power(kappa, float(block["psi"]))
    alphas = _alphas(block["alpha"])
    margin = None if block["gev"] is None else _gev_params(block["gev"])
    method = block["method"]
    if method not in ("smith", "brown_resnick"):
        raise ConfigError(f"method: unknown simulate method {method!r}")
    if method == "smith" and v.psi != 2.0:
        raise ConfigError("the smith method requires psi = 2")
    # kappa * kappa, not kappa**2: a float power raises on overflow
    if method == "smith" and not math.isfinite(kappa * kappa):
        raise ConfigError(f"kappa: {kappa!r} squared is past the double range")
    dump = block["dump"]
    if not (dump is None or isinstance(dump, str)):
        raise ConfigError(f"dump: expected a file name or null, got {dump!r}")

    def run(out_path):
        if method == "smith":
            sigma = np.eye(2) * (kappa * kappa)
            samples = simulate.simulate_smith(sigma, grid, n_rep, seed)
        else:
            samples = simulate.simulate_brown_resnick(v, grid, n_rep, seed)
        if margin is not None:
            samples = [simulate.gev_transform(s, margin) for s in samples]

        losses = simulate.mc_normalized_loss(samples, region, lam, beta)

        if dump:
            simulate.write_field_samples(Path(out_path).parent / dump, samples)

        rows = []
        mean_est = simulate.mc_risk(losses, "mean", seed=seed)
        var_est = simulate.mc_risk(losses, "variance", seed=seed)
        rows.append(("mean", "", mean_est.value, mean_est.std_error))
        rows.append(("variance", "", var_est.value, var_est.std_error))
        for a in alphas:
            var_a = simulate.mc_risk(losses, "var", alpha=a, seed=seed)
            es_a = simulate.mc_risk(losses, "es", alpha=a, seed=seed)
            rows.append(("var", f"{a:g}", var_a.value, var_a.std_error))
            rows.append(("es", f"{a:g}", es_a.value, es_a.std_error))
        _write_csv(out_path, ["measure", "alpha", "estimate", "std_error"], "ssff", rows)

    return run


_COMMANDS = {
    "depsurface": cmd_depsurface,
    "r2curves": cmd_r2curves,
    "riskreport": cmd_riskreport,
    "simulate": cmd_simulate,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused: parsing
    leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="windrisk",
        description="Dependence of powers of Brown-Resnick fields and spatial "
                    "risk measures for wind losses",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cp = sub.add_parser(name, help=f"run the {name} computation")
        cp.add_argument("--config", type=str, default=None,
                        help="JSON config path (defaults to the built-in study)")
        cp.add_argument("--out", type=str, required=True, help="output CSV path")
        cp.add_argument("--seed", type=int, default=None, help="override the config seed")
        cp.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; has no effect (every "
                             "command runs on one thread)")
    return parser


def main(argv=None) -> int:
    """Run one command; this is the only place an error becomes an exit code."""
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else normalize_config({})
        try:
            if args.seed is not None:
                cfg["simulate"]["seed"] = args.seed
            run = _COMMANDS[args.command](cfg[args.command])
        except (KeyError, TypeError, ValueError) as exc:  # ConfigError and DomainError too
            raise ConfigError(f"config.{args.command}: {exc}") from exc
        run(args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        for name in ("best_estimate", "err_estimate"):
            if getattr(exc, name) is not None:
                print(f"{name}: {getattr(exc, name)!r}", file=sys.stderr)
        return 3
    except (WindriskError, OSError) as exc:  # a value the computation rejects, an unwritable path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
