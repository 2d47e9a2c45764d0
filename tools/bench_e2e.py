#!/usr/bin/env python3
"""Record end-to-end perfbench runs in BENCH_e2e.json.

Runs the repository benchmark (perfbench/run.py) in a checkout, this one
by default or any other such as a clone of a parent commit, and appends
one record per run to BENCH_e2e.json at the root of this repository:

    python3 tools/bench_e2e.py --workload lfc_suite --seed 1 --seconds 25
    python3 tools/bench_e2e.py --checkout ../parent --workload csv_suite

A record is {"sha", "dirty", "workload", "seed", "seconds", "metrics"}:
the checkout's HEAD, whether its tracked files differ from HEAD, the run's
arguments, and each end-to-end metric's value. A run whose output check
failed ("correct" false or a nonzero exit) is not recorded, and the script
exits 1. To compare two commits, alternate their runs, half of the pairs
in each order, so that a slow spell of the machine hits both sides.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDS = os.path.join(ROOT, "BENCH_e2e.json")
WORKLOADS = ("csv_suite", "lfc_suite", "serve_mix")


def git(checkout, *args):
    return subprocess.run(["git", "-C", checkout, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run(checkout, workload, seed, seconds):
    """Runs perfbench in `checkout`; returns (exit code, parsed result)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def append(record):
    records = []
    if os.path.exists(RECORDS):
        with open(RECORDS) as f:
            records = json.load(f)
    records.append(record)
    # One record per line, so that appending a run is a one-line diff.
    body = ",\n".join(json.dumps(r) for r in records)
    with open(RECORDS + ".tmp", "w") as f:
        f.write("[\n" + body + "\n]\n")
    os.replace(RECORDS + ".tmp", RECORDS)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", default=ROOT,
                        help="repository to run (default: this one)")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args()
    checkout = os.path.abspath(args.checkout)

    code, result = run(checkout, args.workload, args.seed, args.seconds)
    if code != 0 or result is None or result.get("correct") is not True:
        print(f"bench_e2e: not recorded: exit {code}, result {result}",
              file=sys.stderr)
        return 1
    record = {
        "sha": git(checkout, "rev-parse", "HEAD"),
        "dirty": git(checkout, "status", "--porcelain",
                     "--untracked-files=no") != "",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }
    append(record)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
