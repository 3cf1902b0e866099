#!/usr/bin/env python3
"""Build and run the end-to-end simulator benchmark.

Run from the repository root:

    python3 e2e_bench/run.py --workload paper-8x8 --seed 1 --seconds 25 --trace 0

The first call configures and builds a Release copy of the simulator
libraries plus the benchmark program under .bench_build/e2e_bench (build
logs go to stderr); later calls rebuild incrementally. Every argument
is forwarded to that program, whose last stdout line is the JSON result.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = Path(".bench_build") / "e2e_bench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("e2e_bench: simulator sources (src/) not found next to "
              "e2e_bench/", file=sys.stderr)
        return False
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if _have("ninja") else []
        cfg = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD), "--target", "e2e_bench",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def _have(tool):
    return any((Path(p) / tool).is_file()
               for p in os.environ.get("PATH", "").split(os.pathsep) if p)


def main():
    if not build():
        print("e2e_bench: build failed", file=sys.stderr)
        return 2
    cmd = [str(BUILD / "e2e_bench"),
           "--reference", str(HERE / "reference.txt"),
           "--work-dir", str(BUILD / "work")] + sys.argv[1:]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
