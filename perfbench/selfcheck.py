"""Fast self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Runs every workload once at its minimal size, untraced and traced, with
its correctness gate, and checks that each result line carries exactly
the metrics ``BENCHMARK.json`` declares.  Takes seconds; run it before
the long runs to confirm the benchmark still works.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                capture_output=True, text=True, cwd=ROOT, timeout=300,
            )
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if set(result["metrics"]) != expected[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(result['metrics']) ^ expected[trace])}")
            if not result["correct"]:
                problems.append(f"{label}: correctness gate failed\n{proc.stdout}")
            print(f"{label}: attempted={result['attempted']} failed={result['failed']} "
                  f"correct={result['correct']}")
    for p in problems:
        print("PROBLEM " + p)
    print("selfcheck " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
