"""Compare the one_off_queries outcomes, the study_sweep CSVs, or the
mc_oracle simulations of two windrisk source trees.

    python tools/oneoff_parity.py PARENT_SRC CHANGE_SRC \
        [--seeds 1 4711 90210 7] [--passes 0 1 2 3] [--rel-tol 3e-9 1e-9] [--oracle]
    python tools/oneoff_parity.py PARENT_SRC CHANGE_SRC --study [--variants 0 1 ...]
    python tools/oneoff_parity.py PARENT_SRC CHANGE_SRC --mc [--seeds 1 4711] [--passes 0 1 2 3]
    python tools/oneoff_parity.py PARENT_SRC CHANGE_SRC --mc --fixtures

PARENT_SRC and CHANGE_SRC are ``src/`` directories, each holding a
``windrisk`` package.  For every seed and pass, the queries of
``perfbench.workloads.draw_queries`` are run against each tree in a fresh
interpreter with BLAS pinned to one thread, the two trees one after the
other, so that their timings do not compete.  ``--rel-tol`` runs the same
queries again under ``QuadSpec(rel_tol=...)``, once per tolerance, as the
benchmark's gate does; the default tolerance always runs.

It prints, per tolerance, the outcome changes, counted on one line by
direction (value -> error, error -> value, error -> another error) and then
listed, the value changes (count and largest
relative difference of the queries that succeed in both trees) and, per
outcome, each tree's query count, median time and total time (a slow
failing tail shows in the total, which the median hides).

``--oracle`` also checks every value the changed tree returns against
``cov_oracle`` of ``tests/conftest.py`` (Hoeffding's nested form at a
quarter of the library's inner step, its outer integral by scipy's
``quad``), run once a query on the changed tree: it prints, per
tolerance, how many values there are, the largest relative gap of a
value to the oracle (the oracle's covariance divided by ``var_gev`` for a
dependence query), how many gaps are within the tolerance, and the
largest few, marking the queries whose outcome went from an error to a
value.

``--study`` runs instead the CLI commands of the study variants of
``perfbench.workloads.study_commands`` (all 8 by default), in-process as the
benchmark runs them, and then depsurface, r2curves and riskreport at their
default config (``*_default``), with every CSV cell written with all 17
significant digits, so that a cell differs exactly where its double does.  It prints,
per command, the exit-code changes, how many cells differ and the largest
relative difference, and each tree's median time; for depsurface, also the
largest relative gap, per psi and over the variants, between each tree's
CLI cells and the same tree's per-power ``dep_measure_from_gamma`` calls,
which the CLI's one batched call per psi must stay within rounding of.

``--mc`` runs each simulator of ``perfbench.workloads.McOracle`` (Smith,
tube, exact Brown-Resnick at psi 1 and 2, truncated Brown-Resnick) on the
inputs of every seed and pass, alone in a fresh interpreter with BLAS
pinned to one thread, so that its peak resident memory is its own; the
two trees take turns on each input.  (The workload takes the simulators'
inputs from the pass alone; the seed only seeds its bootstrap, so a
second seed repeats the runs.)  It prints, per
simulator, the runs whose counters differ (``spectral_draws`` and
``accepted`` of the exact method, ``late_update_fraction`` of the
truncated one), the runs whose values are bit-identical and the largest
relative value change, and each tree's median peak RSS (``ru_maxrss``,
which includes the interpreter and the imports) and time.

``--mc --fixtures`` runs instead the exact Brown-Resnick samples of the
``loss25`` and ``loss50`` fixtures of ``tests/test_acceptance.py`` (1961
disk sites, 500 replicates, the fixtures' seeds), the largest
simulations of the test suite, once per tree in a fresh interpreter, and
prints the same lines for them: their counters, value changes, peak RSS
and time are measured directly, not through the spread of mc_oracle.

The exit status is 1 when an outcome or a value changed, or with ``--mc``
when a counter changed.  ``perfbench/`` is read from this repository and
is not changed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent

# one tree's run: a JSON line (seed, pass, tolerance, outcome, value, seconds)
# per query, on stdout
_RUNNER = r"""
import json, sys, time
from pathlib import Path
import windrisk as wr
from perfbench.workloads import QUERIES_PER_PASS, draw_queries

if not Path(wr.__file__).resolve().is_relative_to(sys.argv[2]):
    raise SystemExit(f"imported windrisk from {wr.__file__}, not from {sys.argv[2]}")
seeds, passes, tols = json.loads(sys.argv[1])
for seed in seeds:
    for k in passes:
        queries = draw_queries(seed, k, QUERIES_PER_PASS["full"])
        for tol in tols:
            extra = () if tol is None else (wr.QuadSpec(rel_tol=tol),)
            for name, args in queries:
                t0 = time.perf_counter()
                try:
                    value, outcome = float(getattr(wr, name)(*args, *extra)), "ok"
                except wr.WindriskError as exc:
                    value, outcome = None, type(exc).__name__
                dt = time.perf_counter() - t0
                print(json.dumps([seed, k, tol, outcome, value, dt]))
"""


# the oracle of the queries given as (seed, pass, index) in a JSON list on
# stdin (too many for the command line): the default rel_tol, then a JSON
# line (seed, pass, index, oracle value) per query, on stdout
_ORACLE_RUNNER = r"""
import json, math, sys
from pathlib import Path
import numpy as np
import windrisk as wr
from perfbench.workloads import QUERIES_PER_PASS, draw_queries

if not Path(wr.__file__).resolve().is_relative_to(sys.argv[2]):
    raise SystemExit(f"imported windrisk from {wr.__file__}, not from {sys.argv[2]}")
sys.path.insert(0, "tests")
from conftest import cov_oracle

print(json.dumps(wr.DEFAULT_QUAD.rel_tol))
drawn = {}
for seed, k, i in json.load(sys.stdin):
    if (seed, k) not in drawn:
        drawn[seed, k] = draw_queries(seed, k, QUERIES_PER_PASS["full"])
    name, args = drawn[seed, k][i]
    if name == "cov_simple":
        p1 = p2 = wr.PowerSpec.simple(args[0])
        v, x1, x2 = args[2:]
    elif name == "cov_gev":
        p1, p2, v, x1, x2 = args
    else:
        p1, v, x1, x2 = args
        p2 = p1
    reference = cov_oracle(p1, p2, math.sqrt(float(v(np.asarray(x2) - np.asarray(x1)))))
    if name == "dep_measure":
        reference /= wr.var_gev(p1)
    print(json.dumps([seed, k, i, reference]))
"""


# one tree's study run: a JSON line (variant, label, exit code, CSV rows
# split into key and value cells, seconds, and for depsurface the largest
# relative gap of each psi's cells to the per-power library calls) per CLI
# command, on stdout
_STUDY_RUNNER = r"""
import json, sys, tempfile, time
from collections import defaultdict
from pathlib import Path
import numpy as np
import windrisk as wr
from windrisk import cli
from perfbench.workloads import KEY_COLUMNS, read_csv, run_cli, study_commands

if not Path(wr.__file__).resolve().is_relative_to(sys.argv[2]):
    raise SystemExit(f"imported windrisk from {wr.__file__}, not from {sys.argv[2]}")
if hasattr(cli, "_FLOAT_CELL"):
    cli._FLOAT_CELL = "%.16e"
else:  # a tree that formats its CSVs cell by cell
    fmt = cli._fmt
    cli._fmt = lambda x: fmt(x) if isinstance(x, int) else f"{float(x):.16e}"
# every study variant's commands, then each command at its default config
runs = [(variant, label, command, config) for variant in json.loads(sys.argv[1])
        for label, command, config in study_commands(variant)]
runs += [("default", command + "_default", command, {}) for command in KEY_COLUMNS]
with tempfile.TemporaryDirectory() as tmp:
    for variant, label, command, config in runs:
        config_path, out_path = Path(tmp, label + ".json"), Path(tmp, label + ".csv")
        config_path.write_text(json.dumps(config))
        t0 = time.perf_counter()
        code = run_cli(command, config_path, out_path)
        dt = time.perf_counter() - t0
        k = KEY_COLUMNS[command]
        rows = [[r[:k], r[k:]] for r in read_csv(out_path)[1]] if code == 0 else []
        gaps = {}
        if code == 0 and command == "depsurface":
            block = cli.normalize_config(config)["depsurface"]
            params = cli._gev_params(block["gev"])
            spec = wr.QuadSpec(rel_tol=float(block["rel_tol"]))
            series = defaultdict(list)
            for (psi, beta, distance), (dep,) in rows:
                series[float(psi), int(beta)].append((float(distance), float(dep)))
            for (psi, beta), cells in series.items():
                v = wr.power(float(block["kappa"]), psi)
                alone = wr.dep_measure_from_gamma(
                    cli._power(beta, params), np.array([v.radial(d) for d, _ in cells]), spec)
                batch = np.array([dep for _, dep in cells])
                gap = np.abs(batch - alone) / np.maximum(np.abs(alone), 1e-300)
                gaps[f"{psi:g}"] = max(gaps.get(f"{psi:g}", 0.0), float(gap.max()))
        print(json.dumps([variant, label, code, rows, dt, gaps]))
        out_path.unlink(missing_ok=True)
"""


# one simulator's run on one tree: a JSON line (counters, seconds, peak RSS
# in MB) on stdout, and the (n_rep, sites) values in an .npy file
_MC_RUNNER = r"""
import json, resource, sys, time
from pathlib import Path
import numpy as np
import windrisk as wr
from perfbench.workloads import TUBE_RADIUS, McOracle

if not Path(wr.__file__).resolve().is_relative_to(sys.argv[2]):
    raise SystemExit(f"imported windrisk from {wr.__file__}, not from {sys.argv[2]}")
seed, k, name, values_path = json.loads(sys.argv[1])
oracle = McOracle(seed, k, "full", Path(values_path).parent)
oracle.setup()
n_rep, sim_seed = oracle.reps[name], oracle.seeds[name]
t0 = time.perf_counter()
# the calls of McOracle.run, with the Brown-Resnick counters returned
if name in ("smith", "tube"):
    simulate = wr.simulate_smith if name == "smith" else wr.simulate_tube
    shape = np.eye(2) if name == "smith" else TUBE_RADIUS
    samples = simulate(shape, oracle.grid, n_rep, sim_seed)
    values, meta = np.stack([s.values.ravel() for s in samples]), {}
else:
    psi = 2.0 if name == "br_psi2" else 1.0
    method = "truncated_spectral" if name == "br_truncated" else "extremal_functions"
    values, meta = wr.brown_resnick_at(wr.power(1.0, psi), oracle.sites, n_rep, sim_seed,
                                       method=method, return_meta=True)
dt = time.perf_counter() - t0
np.save(values_path, values)
print(json.dumps([meta, dt, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]))
"""

MC_SIMULATORS = ("smith", "tube", "br_psi1", "br_psi2", "br_truncated")

# one acceptance fixture's exact sample on one tree, as _MC_RUNNER prints
# and saves a simulator's run
_FIXTURE_RUNNER = r"""
import json, resource, sys, time
from pathlib import Path
import numpy as np
import windrisk as wr

if not Path(wr.__file__).resolve().is_relative_to(sys.argv[2]):
    raise SystemExit(f"imported windrisk from {wr.__file__}, not from {sys.argv[2]}")
lam, n_rep, seed, values_path = json.loads(sys.argv[1])
# the sites of tests/test_acceptance.py::_br_disk_losses
disk = wr.disk(1.0)
grid = wr.region_grid(disk, lam)
sites = grid.points()[wr.grid_region_mask(grid, disk, lam)]
t0 = time.perf_counter()
values, meta = wr.brown_resnick_at(wr.power(1.0, 1.0), sites, n_rep, seed, return_meta=True)
dt = time.perf_counter() - t0
np.save(values_path, values)
print(json.dumps([meta, dt, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]))
"""

# the loss samples of tests/test_acceptance.py: (lam, replicates, seed)
FIXTURES = {"loss25": (25.0, 500, 202525), "loss50": (50.0, 500, 202550)}


def _run(runner, src: Path, arg, stdin=None):
    """The JSON lines a runner prints in a fresh interpreter on ``src``,
    given ``arg`` on its command line and ``stdin`` on its input."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(REPO)]),
               PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, "-c", runner, json.dumps(arg), str(src)]
    out = subprocess.run(cmd, env=env, cwd=REPO, check=True, capture_output=True,
                         text=True, input=stdin).stdout
    return [json.loads(line) for line in out.splitlines()]


def run_tree(src: Path, seeds, passes, tols):
    """{(seed, pass, tol): [(outcome, value, seconds), ...]} for one tree."""
    runs = defaultdict(list)
    for seed, k, tol, outcome, value, dt in _run(_RUNNER, src, [seeds, passes, tols]):
        runs[seed, k, tol].append((outcome, value, dt))
    return runs


def run_study(src: Path, variants):
    """{(variant, label): (exit code, [key cells, value cells] per CSV row,
    seconds, {psi: largest relative gap to the per-power calls})} for one
    tree."""
    return {(variant, label): (code, rows, dt, gaps)
            for variant, label, code, rows, dt, gaps in _run(_STUDY_RUNNER, src, variants)}


def mc_jobs(seeds, passes, fixtures: bool):
    """(key, runner, argument) of each run: (simulator, seed, pass) with
    the mc_oracle simulators, or (fixture, seed, 0) with ``fixtures``; the
    runner's argument takes the path of the values last."""
    if fixtures:
        return [((name, seed, 0), _FIXTURE_RUNNER, [lam, n_rep, seed])
                for name, (lam, n_rep, seed) in FIXTURES.items()]
    return [((name, seed, k), _MC_RUNNER, [seed, k, name])
            for name in MC_SIMULATORS for seed in seeds for k in passes]


def run_mc(srcs, jobs, tmp: Path):
    """{tree: {key: (counters, values, seconds, peak RSS MB)}}, one fresh
    interpreter per tree and job; the trees take turns on each job, so
    that their timings see the same host."""
    runs = {tree: {} for tree in srcs}
    for key, runner, arg in jobs:
        for tree, src in srcs.items():
            path = tmp / f"{tree}-{'-'.join(map(str, key))}.npy"
            (meta, dt, rss), = _run(runner, src, arg + [str(path)])
            meta.pop("method", None)
            runs[tree][key] = (meta, np.load(path), dt, rss)
            path.unlink()
    return runs


def compare_mc(parent, change):
    """Counter changes, value changes, peak RSS and time of each simulator
    or fixture."""
    counters_changed = False
    for name in dict.fromkeys(key[0] for key in parent):
        keys = [key for key in parent if key[0] == name]
        moved = [key for key in keys if parent[key][0] != change[key][0]]
        same = sum(np.array_equal(parent[key][1], change[key][1]) for key in keys)
        max_rel = max(float(np.max(np.abs(change[key][1] - parent[key][1])
                                   / np.maximum(np.abs(parent[key][1]), 1e-300)))
                      for key in keys)
        cells = [f"{tree} {statistics.median(runs[key][3] for key in keys):.1f} MB, "
                 f"{statistics.median(runs[key][2] for key in keys):.3f} s"
                 for tree, runs in (("parent", parent), ("change", change))]
        print(f"{name}: {len(keys)} runs, counters differ in {len(moved)}, values "
              f"bit-identical in {same} (max relative change {max_rel:.3g}); "
              f"median peak RSS and time: {'; '.join(cells)}")
        for key in moved[:10]:
            print(f"    seed {key[1]} pass {key[2]}: {parent[key][0]} -> {change[key][0]}")
        counters_changed = counters_changed or bool(moved)
    return counters_changed


def compare_study(parent, change):
    """Exit-code changes, differing cells and times of each study command."""
    changed = False
    labels = list(dict.fromkeys(label for _, label in parent))
    for label in labels:
        keys = [key for key in parent if key[1] == label]
        codes = [f"variant {key[0]}: exit {parent[key][0]} -> {change[key][0]}"
                 for key in keys if parent[key][0] != change[key][0]]
        n_cells = n_diff = 0
        max_rel = 0.0
        for key in keys:
            rows_p, rows_c = parent[key][1], change[key][1]
            if parent[key][0] != 0 or change[key][0] != 0:
                continue
            if [r[0] for r in rows_p] != [r[0] for r in rows_c]:
                codes.append(f"variant {key[0]}: the CSV keys differ")
                continue
            for (_, cells_p), (_, cells_c) in zip(rows_p, rows_c):
                for xp, xc in zip(cells_p, cells_c):
                    n_cells += 1
                    if xp != xc:
                        n_diff += 1
                        vp, vc = float(xp), float(xc)
                        max_rel = max(max_rel, abs(vc - vp) / max(abs(vp), 1e-300))
        times = [f"{tree} {statistics.median(runs[key][2] for key in keys):.3f} s"
                 for tree, runs in (("parent", parent), ("change", change))]
        print(f"{label}: {len(keys)} variants, exit-code changes {len(codes)}, "
              f"cells differing {n_diff} of {n_cells} (max relative {max_rel:.3g}); "
              f"median time {', '.join(times)}")
        for line in codes[:10]:
            print(f"    {line}")
        if label.startswith("depsurface"):
            for tree, runs in (("parent", parent), ("change", change)):
                gaps = defaultdict(float)
                for key in keys:
                    for psi, gap in runs[key][3].items():
                        gaps[psi] = max(gaps[psi], gap)
                print(f"    {tree}: largest relative gap to the per-power calls: "
                      + ", ".join(f"psi {psi} {gap:.3g}" for psi, gap in gaps.items()))
        changed = changed or bool(codes) or n_diff > 0
    return changed


def check_oracle(src: Path, parent, change, tols):
    """The relative gap of every value of the changed tree to the oracle,
    per tolerance, the oracle run once a query on the changed tree; the
    error -> value queries are marked."""
    values = {tol: [(key[0], key[1], i, c[1], p[0] != "ok")
                    for key in sorted(k for k in change if k[2] == tol)
                    for i, (p, c) in enumerate(zip(parent[key], change[key])) if c[0] == "ok"]
              for tol in tols}
    queries = sorted({(seed, k, i) for found in values.values() for seed, k, i, *_ in found})
    default_tol, *references = _run(_ORACLE_RUNNER, src, None, json.dumps(queries))
    oracle = {(seed, k, i): reference for seed, k, i, reference in references}
    print("oracle gaps of every value:")
    for tol, found in values.items():
        rel_tol = default_tol if tol is None else tol
        gaps = sorted(((abs(value - oracle[seed, k, i]) / max(abs(oracle[seed, k, i]), 1e-300),
                        seed, k, i, new) for seed, k, i, value, new in found), reverse=True)
        largest = f"{gaps[0][0]:.3g}" if gaps else "-"
        print(f"  rel_tol {'default' if tol is None else tol}: {len(gaps)} values, largest "
              f"relative gap {largest}, {sum(g <= rel_tol for g, *_ in gaps)} within rel_tol "
              f"({sum(new for *_, new in gaps)} error -> value)")
        for gap, seed, k, i, new in gaps[:5]:
            print(f"    seed {seed} pass {k} query {i}: {gap:.3g}"
                  + (" (error -> value)" if new else ""))


def compare(parent, change, tol):
    """Outcome changes, value changes and per-outcome times at one tolerance."""
    outcome_changes = []
    directions = Counter()
    n_values = n_value_changes = 0
    max_rel = 0.0
    times = {"parent": defaultdict(list), "change": defaultdict(list)}
    for key in sorted(k for k in parent if k[2] == tol):
        for i, (p, c) in enumerate(zip(parent[key], change[key])):
            times["parent"][p[0]].append(p[2])
            times["change"][c[0]].append(c[2])
            if p[0] != c[0]:
                directions["value -> error" if p[0] == "ok" else
                           "error -> value" if c[0] == "ok" else "error -> another error"] += 1
                outcome_changes.append(f"seed {key[0]} pass {key[1]} query {i}: {p[0]} -> {c[0]}")
            elif p[0] == "ok":
                n_values += 1
                if p[1] != c[1]:
                    n_value_changes += 1
                    max_rel = max(max_rel, abs(c[1] - p[1]) / max(abs(p[1]), 1e-300))
    print(f"rel_tol {'default' if tol is None else tol}:")
    counts = ", ".join(f"{d} {directions[d]}" for d in
                       ("value -> error", "error -> value", "error -> another error"))
    print(f"  outcome changes: {len(outcome_changes)} ({counts})")
    for line in outcome_changes[:10]:
        print(f"    {line}")
    print(f"  value changes: {n_value_changes} of {n_values} (max relative {max_rel:.3g})")
    for outcome in sorted(set(times["parent"]) | set(times["change"])):
        cells = []
        for tree in ("parent", "change"):
            t = times[tree].get(outcome, [])
            median = f"{1e3 * statistics.median(t):.2f} ms" if t else "-"
            cells.append(f"{tree} {len(t)} at {median} (total {sum(t):.3f} s)")
        print(f"  {outcome}: " + ", ".join(cells))
    return bool(outcome_changes) or n_value_changes > 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path, help="src/ directory of the parent tree")
    parser.add_argument("change_src", type=Path, help="src/ directory of the changed tree")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 4711, 90210, 7],
                        help="draw_queries seeds (default: 1 4711 90210 7)")
    parser.add_argument("--passes", type=int, nargs="+", default=[0, 1, 2, 3],
                        help="input sets per seed (default: 0 1 2 3)")
    parser.add_argument("--rel-tol", type=float, nargs="*", default=[],
                        help="QuadSpec rel_tol values to run besides the default")
    parser.add_argument("--study", action="store_true",
                        help="compare the study_sweep CLI outputs instead")
    parser.add_argument("--variants", type=int, nargs="+", default=list(range(8)),
                        help="study variants for --study (default: 0 .. 7)")
    parser.add_argument("--oracle", action="store_true",
                        help="check every value of the changed tree against tests' cov_oracle")
    parser.add_argument("--mc", action="store_true",
                        help="compare the mc_oracle simulators' counters and values instead")
    parser.add_argument("--fixtures", action="store_true",
                        help="with --mc, the acceptance tests' loss samples instead")
    args = parser.parse_args(argv)
    if args.study and args.mc:
        parser.error("--study and --mc exclude each other")
    if args.fixtures and not args.mc:
        parser.error("--fixtures needs --mc")
    tols = [None] + args.rel_tol
    for src in (args.parent_src, args.change_src):
        if not (src / "windrisk" / "__init__.py").is_file():
            parser.error(f"{src} holds no windrisk package")
    if args.mc:
        srcs = {"parent": args.parent_src.resolve(), "change": args.change_src.resolve()}
        with tempfile.TemporaryDirectory() as tmp:
            runs = run_mc(srcs, mc_jobs(args.seeds, args.passes, args.fixtures), Path(tmp))
        print(", ".join(FIXTURES) if args.fixtures else
              f"{len(args.seeds)} seeds x {len(args.passes)} passes")
        return 1 if compare_mc(runs["parent"], runs["change"]) else 0
    trees = {}
    for tree, src in (("parent", args.parent_src), ("change", args.change_src)):
        trees[tree] = (run_study(src.resolve(), args.variants) if args.study else
                       run_tree(src.resolve(), args.seeds, args.passes, tols))
    if args.study:
        return 1 if compare_study(trees["parent"], trees["change"]) else 0
    print(f"{len(args.seeds)} seeds x {len(args.passes)} passes")
    changed = [compare(trees["parent"], trees["change"], tol) for tol in tols]
    if args.oracle:
        check_oracle(args.change_src.resolve(), trees["parent"], trees["change"], tols)
    return 1 if any(changed) else 0


if __name__ == "__main__":
    sys.exit(main())
