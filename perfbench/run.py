#!/usr/bin/env python3
"""Builds and runs the hompres end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (which compiles the library from src/) into .bench_build/;
later runs rebuild only what changed. Each workload runs in a fresh
process confined to one CPU.

--trace 0 prints the end-to-end metrics. --trace 1 runs the workload
twice on the same op stream, capped at TRACE_MAX_OPS ops: untraced, then
traced with an in-process replay of every op under spans; it prints the
per-layer metrics plus trace.overhead_frac, the traced run's throughput
shortfall against the untraced one. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("serve_cold", "serve_warm", "serve_live_view", "pipeline_thm31")
TRACE_MAX_OPS = 2000
BUILD_TIMEOUT_S = 850
# A run must end within 180 s: one process may take RUN_TIMEOUT_S, each
# of the two a traced run starts half of it.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            log(f"run.py: {' '.join(step)}: {error}")
            return False
        if done.returncode != 0:
            log(f"run.py: {' '.join(step)} exited {done.returncode}")
            return False
    return True


def run_binary(args, timeout_s):
    """Runs one workload process; returns (exit code, result dict or None)."""
    command = [BINARY] + args
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        log(f"run.py: {' '.join(command)} timed out")
        return 1, None
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(lines[-1])
    return done.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in 1..600")

    if not build():
        return 1
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    if args.trace == 0:
        code, result = run_binary(common + ["--trace", "0"], RUN_TIMEOUT_S)
        if result is None:
            return code or 1
        print(json.dumps(result))
        return code

    cap = ["--max-ops", str(TRACE_MAX_OPS)]
    print("-- untraced run")
    code, untraced = run_binary(common + cap + ["--trace", "0"],
                                RUN_TIMEOUT_S / 2)
    if untraced is None:
        return code or 1
    print("-- traced run")
    traced_code, traced = run_binary(common + cap + ["--trace", "1"],
                                     RUN_TIMEOUT_S / 2)
    if traced is None:
        return traced_code or 1
    metrics = traced["metrics"]
    traced_throughput = metrics.pop("throughput_ops_s")["value"]
    untraced_throughput = untraced["metrics"]["throughput_ops_s"]["value"]
    metrics["trace.overhead_frac"] = {
        "value": 1.0 - traced_throughput / untraced_throughput,
        "unit": "ratio",
    }
    print(f"trace.overhead_frac {metrics['trace.overhead_frac']['value']:.4f} "
          f"(traced {traced_throughput:.1f} vs untraced "
          f"{untraced_throughput:.1f} ops/s)")
    print(json.dumps({
        "correct": untraced["correct"] and traced["correct"],
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "metrics": metrics,
    }))
    return code or traced_code


if __name__ == "__main__":
    sys.exit(main())
