#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload stream_small|video_4k|cpu_photo \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and
builds perfbench/CMakeLists.txt (Release, simcl validation compiled out)
into .bench_build/ under the checkout, or $CARGO_TARGET_DIR when set;
later runs only re-check the build. Build output goes to stderr. The
benchmark's stdout is passed through: its last line is the result object
{"correct", "attempted", "failed", "metrics"}. A traced run (--trace 1)
also writes its spans to <build dir>/traces/<workload>-seed<N>.json.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out: Path) -> Path:
    if not (ROOT / "src" / "sharpen" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   stderr=sys.stderr)
    return out / "perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["stream_small", "video_4k", "cpu_photo"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}")
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           args.trace]
    if args.trace == "1":
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-file",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    return 2


if __name__ == "__main__":
    sys.exit(main())
