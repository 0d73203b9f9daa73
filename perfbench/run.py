#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload lenet_sweep --seed 1 --seconds 20 --trace 0

Builds the compiler library and the benchmark program (hida_perfbench)
from source into .bench_build/perfbench (CMake, Release), then runs it.
All build output goes to stderr; the program's last stdout line is the
JSON result. Exits non-zero without a result when the build fails (for
instance when the compiler sources are absent); hida_perfbench itself
refuses to run when any HIDA_* variable is set.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "hida_perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr, env=env) != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("configure failed")
    if subprocess.call(["cmake", "--build", BUILD_DIR, "-j", jobs],
                       stdout=sys.stderr, env=env) != 0:
        fail("build failed")


def main():
    build()
    child = subprocess.Popen([BINARY, "--root", ROOT] + sys.argv[1:],
                             cwd=ROOT)

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    sys.exit(child.wait())


if __name__ == "__main__":
    main()
