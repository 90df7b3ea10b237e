#!/usr/bin/env python3
"""Build secflow's benchmark from source and run one workload.

Usage, from the repository root:

    python3 secbench/run.py --workload des_flow --seed 1 --seconds 30 --trace 0

The first call configures and builds the library and the benchmark in
Release mode under .bench_build/ (later calls rebuild incrementally), then
runs the benchmark binary with the given arguments plus the source
revision.  Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result.  Traces, per-layer tables
and scratch files go under .bench_out/.
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "secbench"
BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = ROOT / ".bench_out"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("secbench: no secflow sources at %s" % (ROOT / "src"))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target", "secbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def revision():
    """The git commit, or a digest of the sources when there is no git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha1()
    for top in ("src", "secbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return "src-" + h.hexdigest()[:12]


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("secbench: build failed: %s" % e)
    sys.stdout.flush()
    cmd = [str(BUILD_DIR / "secbench"), *sys.argv[1:],
           "--commit", revision(), "--out", str(OUT_DIR)]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
