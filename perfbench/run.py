#!/usr/bin/env python3
"""Build the perfbench driver from this checkout and run one workload.

    python3 perfbench/run.py --workload <social|road|out_of_core|serving> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The graphbig library is compiled from
src/ into the build directory ($CARGO_TARGET_DIR/perfbench when that is
set, else .bench_build/perfbench); the first call builds, later calls
only re-check. Build output goes to standard error, so the last line of
standard output is the driver's JSON result. Exits 2 without a result
when the sources are missing or the build fails.
"""
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: graphbig sources not found under src/", file=sys.stderr)
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4", "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, "perfbench")


def main():
    binary = build()
    if binary is None:
        return 2
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(binary, [binary] + sys.argv[1:])
    return 2  # not reached


if __name__ == "__main__":
    sys.exit(main())
