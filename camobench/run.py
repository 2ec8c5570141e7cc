#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

    python3 camobench/run.py --workload busy-sweep --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to .bench_build/camobench
(Release, reconfigured only when missing); the build log goes to
stderr so the last line of stdout stays the result JSON the camobench
binary prints. Workloads, metrics and their meaning: BENCHMARK.json
and camobench/workloads.json.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(REPO, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "camobench")
# Relative to REPO: camosimd's socket path must stay short.
WORK_DIR = os.path.join(".bench_build", "run")
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print("camobench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_digest():
    """sha256 over the sources the benchmark builds, for provenance
    where no git metadata exists."""
    h = hashlib.sha256()
    roots = ["src", "cmake", "camobench", os.path.join("tools", "camosimd.cc")]
    for root in roots:
        path = os.path.join(REPO, root)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, _, names in os.walk(path) for f in names)
        for f in sorted(files):
            h.update(os.path.relpath(f, REPO).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")) or \
            not os.path.isfile(os.path.join(REPO, "tools", "camosimd.cc")):
        fail("simulator sources (src/, tools/camosimd.cc) not found next "
             "to camobench/", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd), 3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test size (camobench/smoke_test.py)")
    args = ap.parse_args()

    build()
    os.makedirs(os.path.join(REPO, WORK_DIR), exist_ok=True)
    cmd = [os.path.join(BUILD, "camobench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--daemon-bin", os.path.join(BUILD, "camosimd"),
           "--work-dir", WORK_DIR, "--benchmark-json", "BENCHMARK.json"]
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ, CAMOBENCH_SOURCE_DIGEST=source_digest())
    sys.stdout.flush()
    # Own session, so a timeout can take down camosimd and its
    # workers along with camobench.
    proc = subprocess.Popen(cmd, cwd=REPO, env=env, start_new_session=True)
    try:
        sys.exit(proc.wait(timeout=RUN_TIMEOUT_S))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)


if __name__ == "__main__":
    main()
