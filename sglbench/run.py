#!/usr/bin/env python3
"""Build the sglbench program from this checkout's sources, run one workload.

Run from the root of a checkout:

    python3 sglbench/run.py --workload fig10-indexed --seed 1 --seconds 20 --trace 0

The program is configured and built (Release) under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs only bring the build up to
date. Build output goes to standard error, so the last line of standard
output is the program's JSON result. A checkout without the engine sources
fails to build, and the script then exits non-zero without printing a
result.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("fig10-indexed", "fig10-naive", "durable-sessions")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else root / target) / "sglbench"

    def step(cmd):
        result = subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            print("sglbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            sys.exit(2)

    step(["cmake", "-S", str(root / "sglbench"), "-B", str(build_dir),
          "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", str(build_dir), "-j", "4"])

    work_dir = build_dir / "work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = subprocess.run(
            [str(build_dir / "sglbench"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--work-dir", str(work_dir)],
            cwd=root)
    finally:
        # sglbench removes its world directories itself; this also covers
        # a run that crashed. A traced run's trace-event file is kept.
        for entry in work_dir.iterdir():
            if entry.is_dir():
                shutil.rmtree(entry, ignore_errors=True)
        if not any(work_dir.iterdir()):
            work_dir.rmdir()
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
