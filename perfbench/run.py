#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload dt-serial --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a source tree. The first run configures the
repository's own CMake build with perfbench/build.cmake injected and builds
the benchmark under .bench_build/; later runs rebuild incrementally.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1). A human-readable table of everything measured
goes to standard error. The exit code is non-zero when the run could not be
made or its outputs are wrong: a trajectory digest that differs from the
pin in perfbench/pins.json (default seeds) or from an earlier run of the
same workload and seed in this tree, a traced run whose trajectories differ
from the untraced ones, or a job that did not commit its budget.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DIGEST_CACHE = os.path.join(ROOT, ".bench_build", "perfbench-digests.json")
RUN_TIMEOUT_S = 170
WORKLOADS = ("dt-serial", "dt-warm")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("no source tree (CMakeLists.txt and src/) next to perfbench/")
    log = os.path.join(ROOT, ".bench_build", "perfbench-build.log")
    os.makedirs(os.path.dirname(log), exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append([
            "cmake", "-S", ROOT, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release",
            "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "build.cmake"),
        ])
    steps.append([
        "cmake", "--build", BUILD_DIR, "--target", "wf_perfbench", "perfbench_selftest",
        "-j", str(min(4, os.cpu_count() or 1)),
    ])
    with open(log, "a") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                fail("build failed; see " + os.path.relpath(log, ROOT))


def load_json(path, default):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return default


def check_digest(measured, problems):
    """Pins for the default seeds; agreement with earlier runs otherwise."""
    workload, seed, digest = measured["workload"], measured["seed"], measured["digest"]
    pin = load_json(os.path.join(HERE, "pins.json"), {}).get(workload)
    if pin is not None and pin["seed"] == seed and pin["digest"] != digest:
        problems.append(f"digest {digest} != pinned {pin['digest']} (seed {seed})")
    cache = load_json(DIGEST_CACHE, {})
    key = f"{workload}/{seed}"
    if cache.get(key, digest) != digest:
        problems.append(f"digest {digest} != {cache[key]} of an earlier run with seed {seed}")
    elif key not in cache and measured["correct"]:
        cache[key] = digest
        with open(DIGEST_CACHE, "w") as f:
            json.dump(cache, f, indent=1, sort_keys=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"), None)
    if spec is None:
        fail("BENCHMARK.json missing or unreadable")
    build()
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")]).returncode)

    command = [
        os.path.join(BUILD_DIR, "wf_perfbench"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"wf_perfbench exited {proc.returncode}")
    measured = json.loads(lines[-1])
    problems = list(measured["problems"])
    check_digest(measured, problems)

    metrics = {}
    for entry in spec["per_layer"] if args.trace else spec["end_to_end"]:
        name = entry["name"]
        if name in measured["metrics"]:
            value = measured["metrics"][name]["value"]
        elif args.trace:
            value = 0  # A layer this workload bypasses: no waves, no bytes.
        else:
            problems.append(f"metric {name} not measured")
            continue
        metrics[name] = {"value": value, "unit": entry["unit"]}

    print(f"{args.workload} seed {args.seed} trace {args.trace}: digest {measured['digest']}",
          file=sys.stderr)
    for name, metric in sorted(measured["metrics"].items()):
        print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)
    for problem in problems:
        print("  FAILED: " + problem, file=sys.stderr)

    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
