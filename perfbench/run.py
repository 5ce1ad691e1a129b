#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (the dmt library from src/
plus the benchmark binary) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs only rebuild what changed. Build output
goes to stderr. The binary's last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; it is printed only when its
metric names are exactly the ones BENCHMARK.json lists for the mode. The
exit code is non-zero when the build fails, an output check fails or the
metric names disagree.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("preq-agrawal-dmt", "serve-glm-wide", "serve-dmt-durable")
# Each run must end well inside 180 seconds.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the binary; returns its path or None."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(step))
            return None
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this mode, or None without it."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.join(target, "perfbench"))
    if binary is None:
        return 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--work-dir", os.path.join(target, "perfbench-work")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = run.stdout.splitlines()
    if not lines:
        log(f"perfbench printed no result (exit {run.returncode})")
        return 1
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("last line is not a JSON result: " + lines[-1])
        return 1
    expected = expected_metrics(args.trace == "1")
    if expected is not None and list(result["metrics"]) != expected:
        log("metric names differ from BENCHMARK.json: "
            f"{sorted(set(result['metrics']) ^ set(expected))}")
        return 1
    print(lines[-1], flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
