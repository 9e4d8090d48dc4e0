#!/usr/bin/env python3
"""Times a change against its parent with the repair benchmark, in pairs.

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --workload evacuate_loaded --pairs 10 --seed 3
    python3 tools/bench_pairs.py --diff BENCH_a.json BENCH_b.json

The first form runs `repairbench/run.py` in both checkouts, alternating
which side goes first, and prints every end-to-end metric BENCHMARK.json
names: each side's median and quartiles and how many pairs the change
won. It writes BENCH_<workload>.json at the change's root with those
figures, the same summary of every per-layer metric the runs report,
each side's `meta:` line and each side's git commit. With --trace the
runs are traced, so the per-layer metrics are reported, and the file is
BENCH_<workload>_traced.json. The --diff
form compares the change medians of two such files and flags moves above
10 %. The tool only reports; its exit code says nothing about a gain.
Standard library only.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

FLAG_THRESHOLD = 0.10


def fail(message):
    print(f"bench_pairs: {message}", file=sys.stderr)
    sys.exit(2)


def git_state(root):
    """(commit, dirty) of a checkout, or ("unknown", None) outside git."""
    def git(*args):
        result = subprocess.run(["git", "-C", root, *args],
                                capture_output=True, text=True)
        return result.stdout.strip() if result.returncode == 0 else None
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown", None
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return sha or "unknown", None if status is None else bool(status)


def run_once(root, workload, seed, trace):
    """One benchmark run at run.py's own length: (meta dict, result dict)."""
    cmd = [sys.executable, os.path.join("repairbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0"]
    result = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = result.stdout.strip().splitlines()
    meta = next((json.loads(l[len("meta:"):]) for l in lines
                 if l.startswith("meta:")), {})
    if not lines or not lines[-1].startswith("{"):
        fail(f"{root}: no result (exit {result.returncode}):\n"
             f"{result.stderr[-2000:]}")
    return meta, json.loads(lines[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs, metric):
    values = [r["metrics"][metric]["value"] for r in runs
              if metric in r["metrics"]]
    if not values:
        return None
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def measure(args):
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench.get("run_seconds")  # reported only; run.py sets it
    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    metas = {}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            meta, result = run_once(sides[side], args.workload, args.seed,
                                    args.trace)
            metas.setdefault(side, meta)
            runs[side].append(result)
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)",
              file=sys.stderr)

    out = {"workload": args.workload, "seed": args.seed,
           "seconds": seconds, "pairs": args.pairs,
           "host": {"machine": platform.machine(),
                    "cpus": os.cpu_count(),
                    "system": platform.platform()},
           "metrics": {}, "per_layer": {}}
    for side, root in sides.items():
        sha, dirty = git_state(root)
        out[side] = {"git_sha": sha, "dirty": dirty, "meta": metas[side],
                     "failed": [r["failed"] for r in runs[side]],
                     "attempted": [r["attempted"] for r in runs[side]],
                     "correct": [r["correct"] for r in runs[side]]}

    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs "
          f"({seconds} s each)")
    print(f"{'metric':22s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'delta':>8s} {'wins':>6s}")
    for spec in bench["end_to_end"]:
        name = spec["name"]
        parent = summarize(runs["parent"], name)
        change = summarize(runs["change"], name)
        if parent is None or change is None:
            continue
        lower = spec.get("better", "lower") == "lower"
        wins = sum(1 for p, c in zip(parent["values"], change["values"])
                   if (c < p if lower else c > p))
        delta = ((change["median"] - parent["median"]) / parent["median"]
                 if parent["median"] else 0.0)
        out["metrics"][name] = {
            "unit": spec.get("unit"), "better": spec.get("better"),
            "bound": spec.get("bound"), "parent": parent, "change": change,
            "delta": delta, "change_wins": wins}

        def fmt(s):
            return f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"
        print(f"{name:22s} {fmt(parent):>34s} {fmt(change):>34s} "
              f"{delta:+8.1%} {wins:>3d}/{len(change['values'])}")
    for spec in bench.get("per_layer", []):
        name = spec["name"]
        parent = summarize(runs["parent"], name)
        change = summarize(runs["change"], name)
        if parent is not None and change is not None:
            out["per_layer"][name] = {"unit": spec.get("unit"),
                                      "better": spec.get("better"),
                                      "parent": parent, "change": change}
    failed = {side: sum(out[side]["failed"]) for side in sides}
    print(f"failed operations: parent {failed['parent']}, "
          f"change {failed['change']}")

    suffix = "_traced" if args.trace else ""
    path = os.path.join(args.change, f"BENCH_{args.workload}{suffix}.json")
    with open(path, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {path}")


def diff(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    print(f"change medians: {path_a} → {path_b} "
          f"(flagged: moves above {FLAG_THRESHOLD:.0%})")
    for name, spec in b["metrics"].items():
        if name not in a["metrics"]:
            continue
        before = a["metrics"][name]["change"]["median"]
        after = spec["change"]["median"]
        move = (after - before) / before if before else 0.0
        flag = "  <-- moved" if abs(move) > FLAG_THRESHOLD else ""
        print(f"{name:22s} {before:12.6g} {after:12.6g} {move:+8.1%}{flag}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true",
                        help="traced runs, which report per-layer metrics")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"),
                        help="compare two BENCH_<workload>.json files")
    args = parser.parse_args()
    if args.diff:
        diff(*args.diff)
        return
    if not (args.parent and args.change and args.workload):
        fail("--parent, --change and --workload are required")
    if args.pairs < 1:
        fail("--pairs must be at least 1")
    measure(args)


if __name__ == "__main__":
    main()
