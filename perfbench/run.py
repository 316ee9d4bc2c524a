#!/usr/bin/env python3
"""Build and run the SmartSAGE repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first call configures and
builds perfbench/ (and the library sources under src/) with CMake into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
reuse the build. Build output goes to stderr, so the last line of
stdout is the benchmark's one-line JSON result. A traced run also writes
Chrome trace-event JSON to <build root>/traces/<workload>-seed<n>.json.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def git_commit():
    """HEAD of the checkout, or "unknown" outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    """Configure (once) and build; returns the binary path or None."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    binary = build(os.path.join(build_root, "perfbench"))
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-commit", git_commit()]
    if args.trace:
        trace_dir = os.path.join(build_root, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    # Stopping this script stops the benchmark too.
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda *_: proc.terminate())
    return proc.wait()


if __name__ == "__main__":
    sys.exit(main())
