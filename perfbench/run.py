#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

    python3 perfbench/run.py --workload infer_longformer --seed 2022 \\
        --seconds 20 --trace 0

Run from the root of a checkout. The harness (perfbench/mgbench.cc) and
the multigrain libraries under src/ are configured and built into
.bench_build/ (RelWithDebInfo, so NDEBUG is set), then mgbench runs with
the same arguments. Build output goes to stderr; the last line of
standard output is mgbench's JSON result. Traces from --trace 1 land in
.bench_out/. Exits non-zero without a result when the build fails, for
example in a directory that holds only the benchmark and not the sources.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = ROOT / ".bench_out"
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def build() -> Path:
    """Configures (once) and builds mgbench; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no multigrain sources under {ROOT}")
    BUILD_DIR.mkdir(exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                         f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                       check=True, stdout=sys.stderr)
    return BUILD_DIR / "mgbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["infer_longformer", "plan_cold",
                                 "serve_steady"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", str(OUT_DIR), "--repo-root", str(ROOT)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: mgbench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
