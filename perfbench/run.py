#!/usr/bin/env python3
"""Runs one workload of the S1LISP benchmark.

    python3 perfbench/run.py --workload {compile,run,service,oracle} \
        --seed N --seconds S --trace {0,1}

Run it from the repository root. The first run builds the program from
the repository's sources into .bench_build/ (an -O2 CMake build of
perfbench/CMakeLists.txt); later runs only check that the build is
current. The build log goes to stderr. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones of the traced run, whose Chrome trace and span summary
are written to .bench_build/traces/.
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
WORKLOADS = ("compile", "run", "service", "oracle")
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return False
    made = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr)
    return made.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")
    if not os.path.isfile(os.path.join("perfbench", "CMakeLists.txt")):
        log("run from the repository root")
        return 2

    os.makedirs(os.path.join(BUILD_DIR, "traces"), exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        # One build at a time in a checkout.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not build():
            log("build failed")
            return 1
        fcntl.flock(lock, fcntl.LOCK_UN)

    cmd = [os.path.join(BUILD_DIR, "s1bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--bin-dir", BUILD_DIR,
           "--out-dir", os.path.join(BUILD_DIR, "traces")]
    # s1bench and the s1lispd daemons it starts share a new process
    # group, so a run that overstays can be stopped as a whole.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        log("s1bench did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    stop_group(proc)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("s1bench failed with status %d" % proc.returncode)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("s1bench printed a malformed result")
        return 1
    print("\n".join(lines))
    return 0


def stop_group(proc):
    """Kills whatever is left of the run's process group and waits for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(1000):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


if __name__ == "__main__":
    sys.exit(main())
