#!/usr/bin/env python3
"""Builds the repair benchmark from source and runs one workload.

Run from the repository root:

    python3 repairbench/run.py --workload evacuate_loaded --seed 1 \
        --seconds 33 --trace 0

The build (CMake, RelWithDebInfo, the repository's src/ libraries plus
repairbench.cpp) goes to .bench_build/ under the root and is reused by
later runs. Build output goes to stderr; the benchmark's own output goes to
stdout, whose last line is the JSON result. The exit code is the
benchmark's: 0 when every repair, plan and client check passed.
"""

import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "repairbench")
WORKLOADS = ("evacuate_unshaped", "evacuate_loaded", "plan_large")


def fail(message):
    print(f"repairbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then lets CMake rebuild whatever changed."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no FastPR sources under {ROOT}/src")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    # Concurrent runs in one checkout share the build directory.
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja") is not None:
                configure += ["-G", "Ninja"]
            run_quietly(configure)
        jobs = str(min(4, os.cpu_count() or 1))
        run_quietly(["cmake", "--build", BUILD_DIR, "-j", jobs])


def run_child(cmd, **kwargs):
    """Runs `cmd` in its own process group until it exits, passing a
    SIGTERM or SIGINT on to the whole group; returns its exit status."""
    child = subprocess.Popen(cmd, start_new_session=True, **kwargs)

    def forward(signum, _frame):
        os.killpg(child.pid, signum)

    stops = (signal.SIGTERM, signal.SIGINT)
    previous = [signal.signal(s, forward) for s in stops]
    try:
        return child.wait()
    finally:
        for s, handler in zip(stops, previous):
            signal.signal(s, handler)


def run_quietly(cmd):
    code = run_child(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if code != 0:
        fail(f"build step failed ({code}): {' '.join(cmd)}")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or \
            shutil.which("git") is None:
        return "unknown"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=33)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own test")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha()]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(BUILD_DIR, f"trace_{args.workload}.json")]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    code = run_child(cmd)
    sys.exit(code if code >= 0 else 128 - code)


if __name__ == "__main__":
    main()
