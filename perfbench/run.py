#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the simulator's libraries from the parent
directory) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls rebuild only what changed. The
benchmark's output is passed through unchanged: its last line is the
JSON result. Build failures exit non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, log=""):
    if log:
        sys.stderr.write(log[-4000:])
    sys.stderr.write(f"perfbench/run.py: {msg}\n")
    sys.exit(1)


def run_step(cmd, timeout):
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(cmd)}", done.stdout)


def build(build_dir):
    run_step(["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_step(["cmake", "--build", build_dir, "--target", "perfbench",
              "-j", "4"], BUILD_TIMEOUT_S)


def main(argv):
    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "perfbench")
    build(build_dir)
    args = list(argv)
    if "--self-test" not in args:
        workload = args[args.index("--workload") + 1] \
            if "--workload" in args else "none"
        seed = args[args.index("--seed") + 1] if "--seed" in args else "1"
        args += ["--span-file",
                 os.path.join(build_dir, f"spans-{workload}-{seed}.json")]
    try:
        done = subprocess.run([os.path.join(build_dir, "perfbench")] + args,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
