"""Smoke test of the benchmark: every workload at a tiny size, both modes.

    python3 perfbench/smoke.py

Run from the repository root.  Checks that each run exits 0 and ends with a
result line holding every metric that ``BENCHMARK.json`` names, with its
unit, and that every metric name is well formed.  It reports, but does not
judge, the checked operations that failed: at these sizes they show program
behaviour the full-size workloads may not reach.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = [f"bad metric name {name!r}" for mode in expected.values() for name in mode
                if not NAME.match(name)]
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{tag}: metrics {got} differ from BENCHMARK.json {expected[trace]}")
            bad = [name for name, m in result["metrics"].items()
                   if not isinstance(m["value"], (int, float))]
            if bad:
                problems.append(f"{tag}: non-numeric values for {bad}")
            print(f"{tag}: {len(got)} metrics, {result['attempted']} operations, "
                  f"{result['failed']} failed")
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
