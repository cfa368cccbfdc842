#!/usr/bin/env python3
"""Quick self-test of the benchmark at reduced sizes.

    python3 perfbench/selftest.py              # all workloads, reduced sizes
    python3 perfbench/selftest.py --shares 2   # full-size layer-share checks

At reduced sizes it asserts, for every workload:
  * every metric BENCHMARK.json names is emitted, with its unit, in both
    the untraced (end-to-end) and the traced (per-layer) mode;
  * the traced run's result digest equals Experiment::run()'s, at one
    thread and at the workload's thread count; for the synchronous
    workloads the traced run is the benchmark's own replay of the round
    loop, so this proves the replay is the program; every kernel-by-kernel
    re-execution matched the node's own step bit for bit;
  * spans nest (no child outside its parent, no overlapping siblings), and
    the self times of all spans sum to the root spans' duration within
    SELF_TOLERANCE, so no time is counted twice. A span's self time is its
    duration minus the union of its children's intervals clipped to it, so
    overlapping or escaping children make the sum exceed the root spans;
  * on the JWINS workloads the replay counted wavelet transforms inside
    share/aggregate (the kernel call counts are measured at the kernels'
    symbols, so a count of zero means the counting hooks are not attached).

--shares SEED runs the full-size traced runs at SEED, prints each
workload's layer shares and checks that they show what it is for
(README.md, "Layer shares").
Exits non-zero on the first failed assertion.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run

SELF_TOLERANCE = 1e-6


def invoke(binary, workload, trace, out, extra):
    cmd = [str(binary), "--workload", workload, "--seed", "3", "--seconds",
           "1", "--trace", str(trace), "--trace-out", str(out)] + extra
    proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise AssertionError(f"{workload}: exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], f"{workload}: incorrect:\n{proc.stderr}"
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    return json.loads(Path(out).read_text())


def check_metrics(workload, emitted, trace):
    expected = run.declared_metrics(trace)
    units = {k: v["unit"] for k, v in emitted.items()}
    missing = sorted(set(expected) - set(units))
    extra = sorted(set(units) - set(expected))
    wrong = sorted(k for k in expected if k in units and units[k] != expected[k])
    assert not (missing or extra or wrong), (
        f"{workload}: missing {missing}, undeclared {extra}, wrong unit {wrong}")


def check_trace(workload, trace):
    assert trace["digest_traced"] == trace["digest_untraced"], trace
    if trace["digest_threads"]:
        assert trace["digest_threads"] == trace["digest_untraced"], trace
    assert trace["kernel_mismatches"] == 0, trace
    assert trace["nesting_violations"] == 0, trace
    root = trace["root_s"]
    assert abs(trace["self_sum_s"] - root) <= SELF_TOLERANCE * root, trace


def share(metrics, *layers):
    return sum(metrics[f"layer.{layer}_pct"]["value"] for layer in layers)


# The layer shares that confirm what each workload is for.
SHARE_CHECKS = {
    "fig5_cifar_jwins": lambda m: (
        share(m, "nn") >= 70
        and share(m, "algo", "dwt", "compress", "core") <= 15),
    "comm_movielens_jwins": lambda m: (
        share(m, "nn") <= 20
        and share(m, "algo", "dwt", "compress", "core") >= 70),
    "async_free_scale": lambda m: (
        m["sim.engine_self_s"]["value"] >= 0.6 * m["trace.wall_s"]["value"]),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shares", type=int, metavar="SEED",
                        help="check the full-size layer shares at SEED")
    args = parser.parse_args()
    binary = run.build()
    scratch = run.build_dir() / "selftest"
    scratch.mkdir(parents=True, exist_ok=True)
    names = [w["name"] for w in
             json.loads((run.ROOT / "BENCHMARK.json").read_text())["workloads"]]
    for name in names:
        if args.shares is not None:
            out = scratch / f"{name}-shares.json"
            cmd = [str(binary), "--workload", name, "--seed", str(args.shares),
                   "--seconds", "1", "--trace", "1", "--trace-out", str(out)]
            proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=600)
            assert proc.returncode == 0, f"{name}: failed:\n{proc.stderr}"
            traced = json.loads(out.read_text())
            assert traced["correct"], f"{name}: incorrect:\n{proc.stderr}"
            metrics = traced["metrics"]
            shares = {k: round(v["value"], 2) for k, v in metrics.items()
                      if k.startswith("layer.") or k in (
                          "sim.engine_self_s", "trace.wall_s")}
            check = SHARE_CHECKS.get(name)
            assert check is None or check(metrics), f"{name}: {shares}"
            print(f"{'PASS' if check else 'INFO'} {name} shares at seed "
                  f"{args.shares}: {shares}")
            continue
        untraced = invoke(binary, name, 0, scratch / f"{name}-0.json",
                          ["--small"])
        check_metrics(name, untraced["metrics"], trace=False)
        traced = invoke(binary, name, 1, scratch / f"{name}-1.json",
                        ["--small"])
        check_metrics(name, traced["metrics"], trace=True)
        check_trace(name, traced["trace"])
        if "jwins" in name and traced["trace"]["replay"]:
            calls = traced["metrics"]["dwt.calls_per_node_round"]["value"]
            assert calls > 0, f"{name}: no wavelet transforms counted"
        print(f"PASS {name}: {len(untraced['metrics'])} end-to-end and "
              f"{len(traced['metrics'])} per-layer metrics; digests agree "
              f"(replay: {traced['trace']['replay']}); "
              f"{traced['trace']['spans']} spans nest; self times sum to "
              f"{traced['trace']['self_sum_s']:.6f} of "
              f"{traced['trace']['root_s']:.6f} s")


if __name__ == "__main__":
    main()
