#!/usr/bin/env python3
"""Builds and runs the spidey repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cold-open|edit-loop|query-mix \
        --seed N --seconds S --trace 0|1 [--cycles N] [--log FILE] \
        [--plant-wrong]

The first run configures and builds perfbench/ (which compiles ../src) in
Release mode under .bench_build/perfbench; later runs rebuild only what
changed. Build output goes to stderr, so the last line of stdout is always
the benchmark's JSON result. See perfbench/README.md for the workloads and
metrics.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "spidey_perfbench"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no spidey sources under {ROOT / 'src'}; run from a full checkout")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "spidey_perfbench", "-j", jobs])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return BINARY


def source_id():
    """The git commit, or outside a git checkout a digest of the sources."""
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            return result.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
                digest.update(path.read_bytes() + b"\0")
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    binary = build()
    cmd = [str(binary), *sys.argv[1:], "--commit", source_id()]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
