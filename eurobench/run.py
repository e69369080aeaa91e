#!/usr/bin/env python3
"""Build and run the EuroChip benchmark.

    python3 eurobench/run.py --workload <flow_small|fed_course> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. The benchmark and the program's
libraries (../src) are built in Release mode under $CARGO_TARGET_DIR
(default .bench_build)/eurobench, the metric self-tests are run, and then
the benchmark itself. Build output goes to stderr; the benchmark's report
goes to stdout and ends with one JSON line. A traced run writes its
Perfetto JSON under the build directory's traces/.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"eurobench: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kwargs):
    try:
        return subprocess.run(cmd, timeout=timeout, check=False, **kwargs).returncode
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"program sources not found under {ROOT}/src")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") is not None:
        configure += ["-G", "Ninja"]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if run(configure, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    if run(["cmake", "--build", build_dir, "-j", jobs], BUILD_TIMEOUT_S,
           stdout=sys.stderr) != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["flow_small", "fed_course"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "eurobench")
    build(build_dir)

    if run([os.path.join(build_dir, "eurobench_selftest")], RUN_TIMEOUT_S,
           stdout=sys.stderr) != 0:
        fail("metric self-tests failed")

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    env = dict(os.environ)
    # The program's shared thread pool sizes itself from this; the
    # benchmark sets every thread count itself.
    env.pop("EUROCHIP_THREADS", None)
    sys.stdout.flush()
    code = run([os.path.join(build_dir, "eurobench"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", args.trace,
                "--trace-dir", trace_dir], RUN_TIMEOUT_S, env=env)
    sys.exit(code)


if __name__ == "__main__":
    main()
