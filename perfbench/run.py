#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload hot_serve --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) with CMake in Release, then runs the
isaac_ledger binary with the same arguments. The binary's standard output is
passed through: its last line is the result JSON. Every file a run writes goes
under .bench_build/runs/. Exits non-zero, without a result, when the build
fails; with the binary's code otherwise.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("hot_serve", "cold_tune")
RUN_TIMEOUT_S = 175


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out: Path) -> Path:
    """Configure, then build incrementally; logs go to stderr.

    Configuring on every run is cheap. It picks up sources added to or
    removed from src/, and CMake refuses a cache made for another source tree.
    """
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = [
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"build step failed ({done.returncode}): {' '.join(cmd)}")
    binary = out / "isaac_ledger"
    if not binary.exists():
        raise RuntimeError(f"build produced no {binary}")
    return binary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be ≥ 0 and --seconds in [1, 600]")

    try:
        binary = build(build_dir())
    except (OSError, RuntimeError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    outdir = ROOT / ".bench_build" / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outdir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--outdir", str(outdir)]
    with subprocess.Popen(cmd, cwd=outdir, stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 1
    lines = stdout.splitlines()
    if proc.returncode == 0 and (not lines or not lines[-1].startswith("{\"correct\"")):
        print("perfbench: the run printed no result line", file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
