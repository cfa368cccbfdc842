#!/usr/bin/env python3
"""Runs the repository benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

Builds the benchmark binary from source (CMake, Release) into the directory
named by CARGO_TARGET_DIR, default .bench_build, then runs one workload.
The last line of standard output is the result object with the keys
correct, attempted, failed and metrics; --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics of BENCHMARK.json. Exits non-zero,
printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170  # a whole invocation must end within 180 s


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")
    return out / "perfbench"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(binary, workload, args):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run.py: {workload} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"run.py: {workload}: malformed result")
    expected = declared_metrics(args.trace)
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    if emitted != expected:
        sys.exit(f"run.py: {workload}: metrics differ from BENCHMARK.json: "
                 f"{sorted(set(emitted.items()) ^ set(expected.items()))}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if args.workload != "all":
        print(json.dumps(run_one(binary, args.workload, args)))
        return
    names = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        start = time.monotonic()
        result = run_one(binary, name, args)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
            print(f"{name:22} {metric:34} {value['value']:>16.6g} "
                  f"{value['unit']}")
        print(f"{name:22} {'(correct)':34} {str(result['correct']):>16} "
              f"in {time.monotonic() - start:.1f} s")
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
