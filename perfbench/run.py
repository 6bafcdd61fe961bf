"""windrisk benchmark driver.

    python3 perfbench/run.py --workload study_sweep --seed 1 --seconds 30 --trace 0

Runs passes of one workload, one at a time, each in a fresh interpreter
(``worker.py``).  A CLI user pays import and cache warm-up on every
invocation, so nothing is carried from one pass to the next.  BLAS is
pinned to one thread in every pass.  The number of passes n follows from
``--seconds`` and the workload's pass time at the seed (PASS_SECONDS), not
from the speed of the program measured.  Pass k takes input set
(seed + k) mod n, so every run goes once through the same n input sets,
in an order the seed sets; see ``workloads.py`` for what the seed adds.
A faster or slower program, and a run with another seed, therefore
measure the same work.

``--trace 0`` reports the end-to-end metrics, means over the passes: the
passes go through the same input sets in every run, so the mean is the
time of the same work, where a median would pick one input set.  The
times are raw wall-clock times.  As a diagnostic of the shared host's
speed, which drifts between a fast and a slow state over minutes, the
run also times a fixed probe (``hostprobe.py``, no windrisk code) before
every pass and after the last, outside the passes, and prints the
median over PROBE_REFERENCE_S as the host factor; it changes no metric.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones plus the tracing overhead.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give the environment, every metric with its unit and sample count, and
the failures by cause.  The full record, including per-span totals of
the last traced pass, is written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("study_sweep", "one_off_queries", "mc_oracle")
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "op_ok_frac": "frac",
}
# one full pass, from spawn to exit, of each workload at the seed on a
# 2-vCPU x86 virtual machine; sets how many passes a run makes
PASS_SECONDS = {"study_sweep": 7.5, "one_off_queries": 7.5, "mc_oracle": 7.5}
# study_sweep has stored references for this many input sets
MAX_PASSES = 8
# workloads whose inputs are chosen so that every operation completes:
# any failed operation there makes the result incorrect
MUST_NOT_FAIL = ("study_sweep", "mc_oracle")
PASS_TIMEOUT_S = 170
BLAS_THREADS = "1"
# median time of hostprobe.py, spawn to exit, over the ten-seed runs of
# the baseline in README.md: host factor 1
PROBE_REFERENCE_S = 0.64


def _environment() -> dict:
    git = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            git = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_commit": git or None,
        "src_sha256": digest.hexdigest()[:16],
    }


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _probe() -> float:
    """Seconds of one run of the host-speed probe, from spawn to exit."""
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-s", str(HERE / "hostprobe.py")], env=_child_env(),
                   capture_output=True, check=True, cwd=ROOT, timeout=60)
    return time.monotonic() - t0


def _run_pass(workload, seed, pass_index, size, traced, workdir) -> dict:
    env = _child_env()
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-s", str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--pass-index", str(pass_index), "--size", size,
         "--trace", str(int(traced)),
         "--spawned-at", repr(spawned_at), "--workdir", str(workdir)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{workload} pass exited with code {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["pass_s"] = time.monotonic() - spawned_at
    return record


def pass_count(workload, seconds, size) -> int:
    """Passes that fill ``seconds`` at the seed: a fixed number per
    workload and budget, so that every program runs the same inputs."""
    if size != "full":
        return 1
    return min(MAX_PASSES, max(1, round(seconds / PASS_SECONDS[workload])))


def run_passes(workload, seed, seconds, trace, size):
    """The run's passes on input sets (seed + k) mod n, and the probe
    times taken before every pass and after the last.  With tracing,
    untraced and traced passes alternate and come in pairs on the same
    input set."""
    workdir = OUT / f"work-{os.getpid()}"
    count = pass_count(workload, seconds, size)
    inputs = [(seed + k) % count for k in range(count)]
    if trace:
        runs = [(i, traced) for i in inputs[:max(1, count // 2)] for traced in (False, True)]
    else:
        runs = [(i, False) for i in inputs]
    passes, probes = [], []
    try:
        for n, (input_set, traced) in enumerate(runs):
            probes.append(_probe())
            passes.append(_run_pass(workload, seed, input_set, size, traced, workdir / str(n)))
        probes.append(_probe())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return passes, probes


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(workload, passes, probes, trace):
    """(result object, human-readable lines, failures by cause)."""
    timed = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    causes = {}
    for p in passes:
        for cause, n in p["causes"].items():
            causes[cause] = causes.get(cause, 0) + n
    failed = sum(causes.values())
    correct = not any(c == "mismatch" or c.startswith("crash:") for c in causes)
    if workload in MUST_NOT_FAIL and failed:
        correct = False

    host = statistics.median(probes) / PROBE_REFERENCE_S
    lines = [f"{workload}: {len(timed)} untraced + {len(traced)} traced passes, "
             f"{timed[0]['attempted']} operations per pass",
             f"  host factor {host:.4f} (diagnostic): probe median "
             f"{statistics.median(probes):.4f} s of {len(probes)} over {PROBE_REFERENCE_S} s"]
    metrics = {}
    # the query percentiles are per pass, over the pass's operations
    for name, unit in END_TO_END.items():
        if name == "op_ok_frac":
            continue
        vals = [p[name] for p in timed]
        mean = statistics.fmean(vals)
        q1, q3 = _quartiles(vals)
        metrics[name] = {"value": mean, "unit": unit}
        lines.append(f"  {name:<14} {mean:12.6g} {unit:<5} n={len(vals)} q1={q1:.6g} q3={q3:.6g}")
    metrics["op_ok_frac"] = {"value": 1.0 - failed / attempted, "unit": "frac"}
    lines.append(f"  {'op_ok_frac':<14} {1.0 - failed / attempted:12.6g} frac  "
                 f"n={attempted} operations")
    lines.append(f"  {'op_fail_frac':<14} {failed / attempted:12.6g} frac  "
                 f"failed={failed} attempted={attempted} by cause {json.dumps(causes)}")
    for p in passes:
        for d in p.get("detail", []):
            lines.append(f"  gate: {d}")
    if workload == "one_off_queries":
        lines.append(f"  gate: {sum(p['gate_checked'] for p in passes)} re-evaluated at a "
                     f"tighter spec, {sum(p['gate_unverifiable'] for p in passes)} "
                     f"unverifiable (a tighter evaluation failed or the two disagreed)")

    if trace:
        import tracing

        metrics = {}
        for name, unit in tracing.LAYER_METRICS.items():
            vals = [p["layers"][name] for p in traced]
            metrics[name] = {"value": statistics.fmean(vals), "unit": unit}
            lines.append(f"  {name:<44} {metrics[name]['value']:14.6g} {unit:<5} n={len(vals)}")
        overhead = (statistics.fmean(p["wall_s"] for p in traced)
                    / statistics.fmean(p["wall_s"] for p in timed) - 1.0)
        metrics["bench.trace_overhead_frac"] = {"value": overhead, "unit": "frac"}
        lines.append(f"  {'bench.trace_overhead_frac':<44} {overhead:14.6g} frac")

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines, causes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the harness self-check's minimal inputs")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "windrisk" / "__init__.py").is_file():
        print(f"no windrisk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = _environment()
    passes, probes = run_passes(args.workload, args.seed, args.seconds, args.trace, args.size)
    env.update(passes[0]["env"])
    env["blas_threads_requested"] = int(BLAS_THREADS)
    result, lines, causes = summarize(args.workload, passes, probes, args.trace)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "env": env, "result": result,
              "failures_by_cause": causes, "probe_s": probes,
              "host_factor": statistics.median(probes) / PROBE_REFERENCE_S,
              "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes]}
    traced = [p for p in passes if p["traced"]]
    if traced:
        record["spans_last_traced_pass"] = traced[-1]["spans"]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))

    print("env " + json.dumps(env))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
