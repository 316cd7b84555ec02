#!/usr/bin/env python3
"""Builds and runs the serve-path benchmark from the root of a checkout.

    python3 servebench/run.py --workload phttp_hot --seed 1 --seconds 8 --trace 0
    python3 servebench/run.py --selftest

The build goes to .bench_build/servebench (CMake + Ninja, RelWithDebInfo, as
the repository's own build). Build output goes to stderr; the benchmark's last
stdout line is its JSON result.
Exits non-zero, without a result, when the build fails (for instance when
the program sources are absent).
"""
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "servebench")


def build():
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD_DIR, "build.ninja")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator
        if subprocess.call(configure, stdout=sys.stderr, env=env) != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(["cmake", "--build", BUILD_DIR, "-j", jobs],
                           stdout=sys.stderr, env=env) == 0


def main():
    if not build():
        print("servebench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if args == ["--selftest"]:
        return subprocess.call([os.path.join(BUILD_DIR, "servebench_selftest")])
    return subprocess.call([os.path.join(BUILD_DIR, "servebench")] + args)


if __name__ == "__main__":
    sys.exit(main())
