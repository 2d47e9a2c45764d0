#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md in this directory).

Run from the repository root:

    python3 perfbench/run.py --workload csv_suite --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

The first run configures and builds perfbench/CMakeLists.txt (the engine
libraries from src/ plus the benchmark binary) into .bench_build/perfbench; later
runs rebuild incrementally. Build output goes to stderr, so the last line
of stdout is the binary's JSON result. The exit code is the binary's: 0
only when every output check passed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("csv_suite", "lfc_suite", "serve_mix")
# Per-layer metrics each workload is designed to exercise: the self-test
# requires them nonzero, so a renamed counter or a layer the workload
# stopped using fails it.
ENGINE_LAYERS = (
    "script.analyze_ms", "optimizer.pass_ms", "lazy.rounds",
    "lazy.node_execs", "io.round_read_ms", "dataframe.kernel_ms",
    "dataframe.morsels", "dataframe.filter_ns_row", "dataframe.groupby_ns_row",
    "dataframe.join_ns_row", "dataframe.sort_ns_row", "exec.other_ms",
    "shard.calls", "shard.bytes_shipped", "bench.round_ms", "bench.requests")
DESIGNED_LAYERS = {
    "csv_suite": ENGINE_LAYERS + ("script.rewrites", "io.csv_parse_ms",
                                  "io.csv_mb_s", "io.csv_peak_ratio"),
    "lfc_suite": ENGINE_LAYERS + ("script.rewrites", "io.lfc_read_ms",
                                  "io.lfc_convert_ms"),
    "serve_mix": ENGINE_LAYERS + ("io.csv_parse_ms", "lazy.cache_hit_ratio",
                                  "lazy.cache_hits", "lazy.cache_inserts",
                                  "serve.dispatch_ms", "serve.healthz_ms"),
}
# A run's own time limit: it measures for --seconds plus set-up.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def binary_args(workload, seed, seconds, trace, extra=()):
    return [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), *extra]


def run_captured(workload, seed, seconds, trace, extra=()):
    """Runs the benchmark binary; returns (exit code, parsed last stdout line or None)."""
    proc = subprocess.run(binary_args(workload, seed, seconds, trace, extra),
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def selftest():
    """Smoke-runs every workload on tiny inputs: each run must pass its
    output check and print exactly the metrics BENCHMARK.json names, with
    their units, the workload's designed layers nonzero; a corrupted
    reference checksum must fail the check."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run_captured(workload, 7, 2, trace, ["--smoke"])
            label = f"{workload} --trace {trace}"
            if code != 0 or result is None or result["correct"] is not True:
                errors.append(f"{label}: exit {code}, result {result}")
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                errors.append(f"{label}: metrics {got} != {want}")
            if trace == 1:
                zero = [name for name in DESIGNED_LAYERS[workload]
                        if not result["metrics"].get(name, {}).get("value")]
                if zero:
                    errors.append(f"{label}: designed layers read 0: {zero}")
        code, result = run_captured(workload, 7, 1, 0,
                                    ["--smoke", "--corrupt-reference"])
        if code == 0 or result is None or result["correct"] is not False:
            errors.append(f"{workload}: corrupted reference not caught "
                          f"(exit {code}, result {result})")
    for error in errors:
        print("selftest: FAIL " + error, file=sys.stderr)
    print("selftest: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1
    if args.selftest:
        return selftest()
    try:
        proc = subprocess.run(binary_args(args.workload, args.seed,
                                          args.seconds, args.trace),
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark binary timed out", file=sys.stderr)
        return 1
    return 0 if proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
