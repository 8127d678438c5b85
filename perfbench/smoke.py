#!/usr/bin/env python3
"""Tiny-size smoke run of the benchmark.

Runs every workload at tiny sizes, untraced and traced, and asserts that each
run is correct and reports exactly the metrics that BENCHMARK.json names,
each with its unit.  Run from the repository root:

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all",
                "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.exit(f"smoke: trace={trace} exited {proc.returncode}:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            sys.exit(f"smoke: trace={trace} incorrect run:\n{proc.stderr}")
        expected = {f"{w['name']}/{m['name']}": m["unit"]
                    for w in bench["workloads"] for m in bench[section]}
        got = {name: metric["unit"] for name, metric in result["metrics"].items()}
        if got != expected:
            sys.exit(f"smoke: trace={trace} metrics differ from BENCHMARK.json: "
                     f"missing {sorted(expected.keys() - got.keys())}, "
                     f"extra {sorted(got.keys() - expected.keys())}, "
                     f"unit mismatch {sorted(k for k in got.keys() & expected.keys() if got[k] != expected[k])}")
        bad = [n for n, m in result["metrics"].items()
               if not isinstance(m["value"], (int, float)) or m["value"] != m["value"]]
        if bad:
            sys.exit(f"smoke: trace={trace} non-numeric values: {bad}")
        print(f"smoke: trace={trace} ok, {len(got)} metrics, "
              f"{result['attempted']} commands")


if __name__ == "__main__":
    main()
