"""Regenerate the stored references of the correctness gates.

    python3 perfbench/make_refs.py

Writes ``perfbench/data/study_refs.json`` (every study_sweep variant run
through the CLI at ``rel_tol = 2e-8``) and ``perfbench/data/mc_constants.json``
(the closed-form values the mc_oracle estimates are checked against, and
one replicate's standard deviation of each dependence statistic, from
simulations with seeds of their own).  Takes a few minutes on one core.  Run it only when the workloads' inputs
change: the references pin the numbers a later change must reproduce.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import windrisk as wr  # noqa: E402

import workloads as wl  # noqa: E402


def study_refs() -> dict:
    variants = []
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        tmp = Path(tmp)
        for variant in range(wl.STUDY_VARIANTS):
            entry = {}
            for label, command, config in wl.study_commands(variant, rel_tol=wl.REF_REL_TOL):
                cfg, out = tmp / f"{label}.json", tmp / f"{label}.csv"
                cfg.write_text(json.dumps(config))
                code = wl.run_cli(command, cfg, out)
                if code != 0:
                    raise SystemExit(f"variant {variant} {label}: exit {code}")
                entry[label] = wl.compact_refs(command, out)
            variants.append(entry)
            print(f"variant {variant} done", file=sys.stderr)
    return {"rel_tol": wl.REF_REL_TOL, "variants": variants}


# replicates per calibration of the dependence statistics' spread
DEP_CALIBRATION_REPS = {"br_psi1": 300, "tube": 200}


def dependence_sd() -> dict:
    """One replicate's standard deviation of each dependence statistic, per
    simulator and site set (keyed ``name/number of sites``)."""
    _, grid, mask = wl.mc_geometry()
    sites = grid.points()[mask]
    tube = wr.simulate_tube(wl.TUBE_RADIUS, grid, DEP_CALIBRATION_REPS["tube"], 17)
    runs = {f"tube/{len(sites)}": np.array([s.values.ravel()[mask] for s in tube])}
    for n, seed in ((len(sites), 18), (wl.TINY_SITES, 19)):
        runs[f"br_psi1/{n}"] = wr.brown_resnick_at(
            wr.power(1.0, 1.0), sites[:n], DEP_CALIBRATION_REPS["br_psi1"], seed)
    out = {}
    for key, values in runs.items():
        pairs = wl.site_pairs(sites[: values.shape[1]])
        stats = wl.dependence_statistics(values, pairs)
        sd = stats.std(axis=0, ddof=1)
        out[key] = [float(f"{x:.4g}") for x in sd]
        # the calibration's own mean must agree with the closed form
        want = wl.dependence_theory(wl.DEP_EXCEEDANCE[key.split("/")[0]], pairs)
        z = (stats.mean(axis=0) - want) / (sd / math.sqrt(len(values)))
        print(f"dependence {key}: z of the calibration mean {np.round(z, 2)}", file=sys.stderr)
    return out


def mc_constants() -> dict:
    spec = wr.QuadSpec(rel_tol=wl.REF_REL_TOL)
    p = wr.PowerSpec.gev(1, wr.GevParams(*wl.MC_GEV))
    region, _, mask = wl.mc_geometry()
    out = {
        "rel_tol": wl.REF_REL_TOL,
        "mean": wr.mean_cost(p),
        "site_variance": wr.var_gev(p),
        "sites": int(mask.sum()),
    }
    for psi in (1, 2):
        q = wr.RiskQuery(region=region, power=p, variogram=wr.power(1.0, float(psi)),
                         quad=spec, alpha=wl.MC_ALPHA)
        out[f"r2_psi{psi}"] = wr.r2(q, wl.MC_LAM)
        out[f"var_asym_psi{psi}"] = wr.var_asymptotic(q, wl.MC_LAM)
        out[f"es_asym_psi{psi}"] = wr.es_asymptotic(q, wl.MC_LAM)
    out["dependence_sd"] = dependence_sd()
    return out


def main() -> None:
    data = Path(__file__).resolve().parent / "data"
    data.mkdir(exist_ok=True)
    (data / "mc_constants.json").write_text(json.dumps(mc_constants(), indent=1) + "\n")
    (data / "study_refs.json").write_text(json.dumps(study_refs(), separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
