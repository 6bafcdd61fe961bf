"""Command-line front end.

One JSON config document drives all commands; each command reads its own
top-level block and ignores the rest, so a single file can describe a
whole study.  Outputs are CSV ('.' decimal separator, comma delimiter,
header row, 12 significant digits) plus, for ``simulate``, the binary
field dump documented in :mod:`windrisk.simulate`.

Exit codes: 0 success, 2 config error, 3 numerical non-convergence.

Config schema (defaults shown; any key may be omitted)::

    {
      "depsurface": {
        "gev": {"eta": 30.0, "tau": 3.0, "xi": -0.2},
        "kappa": 1.0,
        "psi": [0.5, 1.0, 1.5, 2.0],
        "beta": [1, 2, ..., 12],
        "distances": {"min": 0.1, "count": 40, "max_by_psi": {"0.5": 1500.0,
                      "1.0": 100.0, "1.5": 25.0, "2.0": 10.0}},
        "rel_tol": 3e-7
      },
      "r2curves": {
        "gev": {...}, "kappa": 1.0, "psi": [...], "beta": 1,
        "shapes": ["disk", "square"], "R": 1.0,
        "lam": {"min": 0.1, "max": 50.0, "count": 25},
        "rel_tol": 3e-7
      },
      "riskreport": {
        "gev": {...}, "kappa": 1.0, "psi": 1.0, "beta": 1,
        "regions": [{"shape": "disk", "R": 1.0}],
        "lam": [10.0, 25.0, 50.0], "alpha": [0.95, 0.99],
        "rel_tol": 3e-7
      },
      "simulate": {
        "gev": {...} | null, "kappa": 1.0, "psi": 2.0, "beta": 1,
        "region": {"shape": "disk", "R": 1.0}, "lam": 10.0,
        "n_rep": 200, "seed": 20240901, "method": "smith" | "brown_resnick",
        "alpha": [0.95], "dump": "fields.bin"
      }
    }
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
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


# keys that accept either an explicit list or the default grid object
_POLYMORPHIC = {"config.depsurface.distances", "config.r2curves.lam"}
# objects keyed by a positive number: an override entry replaces the default
# entry whose key has the same value ("1" replaces "1.0") or adds a new one
_NUMERIC_KEYS = {"config.depsurface.distances.max_by_psi"}


def _merge_numeric_keys(defaults, override, path):
    if not isinstance(override, dict):
        raise ConfigError(f"{path}: expected an object, got {type(override).__name__}")
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
    if override is None:
        return json.loads(json.dumps(defaults))
    if path in _NUMERIC_KEYS:
        return _merge_numeric_keys(defaults, override, path)
    if isinstance(defaults, dict):
        if not isinstance(override, dict):
            if path in _POLYMORPHIC and isinstance(override, list):
                return json.loads(json.dumps(override))
            raise ConfigError(f"{path}: expected an object, got {type(override).__name__}")
        out = {}
        for key, dv in defaults.items():
            out[key] = _merge(dv, override.get(key), f"{path}.{key}")
        for key in override:
            if key not in defaults:
                raise ConfigError(f"{path}.{key}: unknown key")
        return out
    return json.loads(json.dumps(override))


def normalize_config(raw: dict) -> dict:
    """Fill defaults and validate; the result round-trips through JSON."""
    if not isinstance(raw, dict):
        raise ConfigError("top level of the config must be a JSON object")
    known = set(DEFAULT_CONFIG)
    for key in raw:
        if key not in known:
            raise ConfigError(f"config.{key}: unknown command block")
    return {cmd: _merge(DEFAULT_CONFIG[cmd], raw.get(cmd), f"config.{cmd}")
            for cmd in DEFAULT_CONFIG}


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} line {exc.lineno}: {exc.msg}") from exc
    return normalize_config(raw)


def _fmt(x) -> str:
    """12 significant digits, '.' decimal separator."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.11e}"


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, (int, float, np.floating, np.integer))
                              else str(v) for v in row) + "\n")


@contextmanager
def _parsing(path):
    """Turn a config value that cannot be read (a wrong type, a missing key
    or a value the library rejects) into a ConfigError naming the block,
    so every command reads its whole block before it computes anything."""
    try:
        yield
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:  # DomainError is a ValueError
        raise ConfigError(f"{path}: {exc}") from exc


def _region(block) -> Region:
    return Region(str(block["shape"]), float(block["R"]))


def _gev_params(block) -> GevParams:
    try:
        return GevParams(float(block["eta"]), float(block["tau"]), float(block["xi"]))
    except (KeyError, TypeError, ValueError, WindriskError) as exc:
        raise ConfigError(f"invalid gev block {block!r}: {exc}") from exc


def _variogram(kappa, psi) -> variogram.Variogram:
    try:
        return variogram.power(float(kappa), float(psi))
    except (TypeError, ValueError, WindriskError) as exc:
        raise ConfigError(f"invalid variogram kappa={kappa!r} psi={psi!r}: {exc}") from exc


def _numbers(values, path, ok, what) -> list:
    """The list at ``path`` as floats, each one satisfying ``ok``."""
    numbers = []
    for x in values:
        try:
            number = float(x)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: {x!r} is not a number") from exc
        if not ok(number):
            raise ConfigError(f"{path}: {x!r} is not {what}")
        numbers.append(number)
    return numbers


def _alphas(block, path) -> list:
    """The block's tail levels, each strictly inside (0, 1)."""
    return _numbers(block["alpha"], f"{path}.alpha", lambda a: 0.0 < a < 1.0, "in (0, 1)")


def _lams(values, path) -> list:
    """Dilation factors, each finite and > 0."""
    return _numbers(values, path, lambda lam: 0.0 < lam < math.inf, "a finite lam > 0")


def _beta(value, path) -> int:
    """An integral damage power; 1.0 passes, 2.7 does not."""
    return int(_numbers([value], path, float.is_integer, "an integer")[0])


def _max_distance(max_by_psi: dict, psi: float) -> float:
    """The entry of ``max_by_psi`` whose key equals psi as a number, so
    "1", "1.0" and "1e0" all name psi = 1."""
    for key, h_max in max_by_psi.items():
        if float(key) == psi:
            return float(h_max)
    raise ConfigError(f"distances.max_by_psi: no entry for psi = {psi:g}")


def _distance_grid(block, psi) -> list:
    if isinstance(block, list):
        return _numbers(block, "config.depsurface.distances",
                        lambda h: 0.0 <= h < math.inf, "a finite distance >= 0")
    h_min = float(block["min"])
    count = int(block["count"])
    h_max = _max_distance(block["max_by_psi"], psi)
    if not (h_min > 0.0 and h_max > h_min and count >= 2):
        raise ConfigError(f"bad distance grid: min={h_min} max={h_max} count={count}")
    grid = np.geomspace(h_min, h_max, count)
    return [0.0] + [float(h) for h in grid]


def cmd_depsurface(cfg: dict, out_path) -> None:
    block = cfg["depsurface"]
    params = _gev_params(block["gev"])
    with _parsing("config.depsurface"):
        spec = QuadSpec(rel_tol=float(block["rel_tol"]))
        powers = [PowerSpec.gev(_beta(b, "config.depsurface.beta"), params)
                  for b in block["beta"]]
        for power in powers:
            dependence._require_moments(power, 2)
        psis = [float(p) for p in block["psi"]]
        grids = [_distance_grid(block["distances"], psi) for psi in psis]
    variograms = [_variogram(block["kappa"], psi) for psi in psis]

    rows = []
    for psi, v, distances in zip(psis, variograms, grids):
        # one variogram value per distance, as a scalar call gives it: numpy
        # may round a power differently over an array
        gammas = np.array([v.radial(dist) for dist in distances])
        for p in powers:
            deps = dependence.dep_measure_from_gamma(p, gammas, spec)
            rows += [(psi, p.beta, dist, dep) for dist, dep in zip(distances, deps)]
    _write_csv(out_path, ["psi", "beta", "distance", "dependence"], rows)


def cmd_r2curves(cfg: dict, out_path) -> None:
    block = cfg["r2curves"]
    params = _gev_params(block["gev"])
    with _parsing("config.r2curves"):
        spec = QuadSpec(rel_tol=float(block["rel_tol"]))
        power = PowerSpec.gev(_beta(block["beta"], "config.r2curves.beta"), params)
        dependence._require_moments(power, 2)
        lam_block = block["lam"]
        if not isinstance(lam_block, list):
            lam_block = np.geomspace(
                float(lam_block["min"]), float(lam_block["max"]), int(lam_block["count"])
            )
        lams = _lams(lam_block, "config.r2curves.lam")
        regions = [Region(str(shape), float(block["R"])) for shape in block["shapes"]]
    variograms = [_variogram(block["kappa"], psi) for psi in block["psi"]]

    rows = []
    for region in regions:
        for psi, v in zip(block["psi"], variograms):
            q = risk.RiskQuery(region=region, power=power, variogram=v, quad=spec)
            rows += [(region.shape, psi, lam, risk.r2(q, lam)) for lam in lams]
    _write_csv(out_path, ["shape", "psi", "lam", "r2"], rows)


def cmd_riskreport(cfg: dict, out_path) -> None:
    block = cfg["riskreport"]
    params = _gev_params(block["gev"])
    with _parsing("config.riskreport"):
        spec = QuadSpec(rel_tol=float(block["rel_tol"]))
        p = PowerSpec.gev(_beta(block["beta"], "config.riskreport.beta"), params)
        dependence._require_moments(p, 2)
        regions = [_region(b) for b in block["regions"]]
        lams = _lams(block["lam"], "config.riskreport.lam")
    v = _variogram(block["kappa"], block["psi"])
    alphas = _alphas(block, "config.riskreport")

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
            rows.append(row)
    _write_csv(out_path, header, rows)


def cmd_simulate(cfg: dict, out_path, seed_override=None) -> None:
    block = cfg["simulate"]
    with _parsing("config.simulate"):
        beta = _beta(block["beta"], "config.simulate.beta")
        region = _region(block["region"])
        lam = float(block["lam"])
        grid = simulate.region_grid(region, lam)
        n_rep = int(block["n_rep"])
        seed = int(seed_override if seed_override is not None else block["seed"])
        kappa = float(block["kappa"])
        psi = float(block["psi"])
    if n_rep < 2:
        raise ConfigError(f"config.simulate.n_rep: {n_rep} < 2 (the loss variance needs two)")
    v = _variogram(kappa, psi)
    alphas = _alphas(block, "config.simulate")
    margin = None if block["gev"] is None else _gev_params(block["gev"])

    if block["method"] == "smith":
        if psi != 2.0:
            raise ConfigError("the smith method requires psi = 2")
        sigma = np.eye(2) * kappa**2
        samples = simulate.simulate_smith(sigma, grid, n_rep, seed)
    elif block["method"] == "brown_resnick":
        samples = simulate.simulate_brown_resnick(v, grid, n_rep, seed)
    else:
        raise ConfigError(f"unknown simulate method {block['method']!r}")
    if margin is not None:
        samples = [simulate.gev_transform(s, margin) for s in samples]

    losses = simulate.mc_normalized_loss(samples, region, lam, beta)

    dump_path = block["dump"]
    if dump_path:
        simulate.write_field_samples(Path(out_path).parent / dump_path, samples)

    rows = []
    mean_est = simulate.mc_risk(losses, "mean", seed=seed)
    var_est = simulate.mc_risk(losses, "variance", seed=seed)
    rows.append(["mean", "", mean_est.value, mean_est.std_error])
    rows.append(["variance", "", var_est.value, var_est.std_error])
    for a in alphas:
        var_a = simulate.mc_risk(losses, "var", alpha=a, seed=seed)
        es_a = simulate.mc_risk(losses, "es", alpha=a, seed=seed)
        rows.append(["var", f"{a:g}", var_a.value, var_a.std_error])
        rows.append(["es", f"{a:g}", es_a.value, es_a.std_error])
    _write_csv(out_path, ["measure", "alpha", "estimate", "std_error"], rows)


_COMMANDS = {
    "depsurface": cmd_depsurface,
    "r2curves": cmd_r2curves,
    "riskreport": cmd_riskreport,
    "simulate": cmd_simulate,
}


def build_parser() -> argparse.ArgumentParser:
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
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else normalize_config({})
        if args.command == "simulate":
            cmd_simulate(cfg, args.out, seed_override=args.seed)
        else:
            _COMMANDS[args.command](cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        for name in ("best_estimate", "err_estimate"):
            if getattr(exc, name) is not None:
                print(f"{name}: {getattr(exc, name)!r}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
