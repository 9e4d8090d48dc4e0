#!/usr/bin/env python3
"""The benchmark's own test: every workload at its smoke size.

Run from the repository root:

    python3 repairbench/smoke_test.py

For each workload, untraced and traced, it runs run.py --smoke and checks
that the run exits 0, that its last stdout line is the result object with
exactly the keys correct/attempted/failed/metrics, that every metric
BENCHMARK.json names for that mode appears with its unit, that timings
are positive, and that nothing failed (failed_ratio = 0).
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def check_run(spec, workload, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    result = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    errors = []
    if result.returncode != 0:
        return [f"exit code {result.returncode}: {result.stderr[-2000:]}"]
    lines = result.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        return [f"last stdout line is not JSON ({e})"]
    if sorted(out) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(out)}")
    if out.get("correct") is not True:
        errors.append("correct is not true")
    if not isinstance(out.get("attempted"), int) or out["attempted"] < 1:
        errors.append(f"attempted = {out.get('attempted')}")
    if out.get("failed") != 0:
        errors.append(f"failed = {out.get('failed')} (failed_ratio != 0)")
    expected = spec["per_layer" if trace else "end_to_end"]
    metrics = out.get("metrics", {})
    names = {m["name"] for m in expected}
    if set(metrics) != names:
        errors.append(f"missing {sorted(names - set(metrics))}, "
                      f"unexpected {sorted(set(metrics) - names)}")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: unit {got.get('unit')} != {m['unit']}")
        value = got.get("value")
        if not isinstance(value, (int, float)):
            errors.append(f"{m['name']}: value {value!r}")
        elif not trace and value <= 0:
            errors.append(f"{m['name']}: value {value} is not positive")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            errors = check_run(spec, workload, trace)
            status = "ok" if not errors else "FAIL"
            print(f"{workload} trace={trace}: {status}")
            for e in errors:
                print(f"  {e}")
            failures += bool(errors)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
