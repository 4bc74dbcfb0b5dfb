#!/usr/bin/env python3
"""Builds and runs the goodput benchmark from the root of a checkout.

    python3 perfbench/run.py --workload cold_mix|warm_serve|exec_feedback \
        --seed N --seconds S --trace 0|1

Configures perfbench/CMakeLists.txt (which compiles ../src) into the build
directory named by CARGO_TARGET_DIR, or .bench_build, builds the benchmark
binary there and runs it with the same arguments. Build output goes to
stderr; the binary's last stdout line is the JSON result. Exits non-zero
without a result when the sources are missing or the build fails.
"""
import hashlib
import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build):
        build = os.path.join(root, build)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build],
        ["cmake", "--build", build, "--target", "lsg_perfbench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    binary = os.path.join(build, "lsg_perfbench")
    with open(binary, "rb") as f:
        code_id = hashlib.sha256(f.read()).hexdigest()[:16]
    cmd = [binary] + sys.argv[1:] + ["--state-dir", build, "--code-id", code_id]
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
