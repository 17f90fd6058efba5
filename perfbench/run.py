#!/usr/bin/env python3
"""Schema changes under live load: build the benchmark and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The engine sources under src/ and the benchmark
under perfbench/src/ are built with CMake (Release) into $CARGO_TARGET_DIR,
or .bench_build when that is unset. The run's WAL directories live in a
work directory under the build directory and are removed when the run
ends. With --trace 1 the spans are written to
<build dir>/traces/trace-<workload>.json (Chrome trace-event format).

With --peak 1 it instead measures the workload mix's unpaced peak, the
calibration behind each workload's offered rate (see WORKLOADS.md).

The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the exit code is non-zero when
the build, the run or any correctness check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    if not (ROOT / "src" / "engine" / "database.h").is_file():
        log("engine sources not found under %s/src" % ROOT)
        return None
    cmake_dir = build_dir / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(cmake_dir), "-j", jobs],
    ):
        # Build chatter goes to stderr; stdout is reserved for the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: %s" % " ".join(cmd))
            return None
    binary = cmake_dir / "morph_perfbench"
    return binary if binary.is_file() else None


def check_trace(path):
    """The traced run's file must load as Chrome trace-event JSON."""
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        log("trace file %s does not load: %s" % (path, e))
        return False
    complete = [e for e in events if e.get("ph") == "X"]
    ok = bool(complete) and all(
        isinstance(e.get("ts"), (int, float)) and isinstance(e.get("dur"), (int, float))
        for e in complete)
    if not ok:
        log("trace file %s has no well-formed complete events" % path)
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--peak", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    binary = build(build_dir)
    if binary is None:
        return 2

    work_dir = build_dir / ("run-%d" % os.getpid())
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir), "--peak", str(args.peak)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.strip().split("\n")
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except ValueError:
            log("no result line from the benchmark (exit %d)" % proc.returncode)
            return proc.returncode or 3
        if args.trace and not args.peak:
            trace = work_dir / ("trace-%s-seed%d.json" % (args.workload, args.seed))
            if not check_trace(trace):
                result["correct"] = False
            else:
                kept = build_dir / "traces" / ("trace-%s.json" % args.workload)
                kept.parent.mkdir(exist_ok=True)
                shutil.move(str(trace), str(kept))
                print("trace: %s" % os.path.relpath(kept, ROOT))
        print(json.dumps(result), flush=True)
        if proc.returncode != 0:
            return proc.returncode
        return 0 if result.get("correct") else 1
    except subprocess.TimeoutExpired:
        log("benchmark exceeded %d s" % RUN_TIMEOUT_S)
        return 4
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
