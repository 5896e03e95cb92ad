#!/usr/bin/env python3
"""Builds and runs the fmtk benchmark binary.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The benchmark binary is compiled from this checkout's src/ tree into
$CARGO_TARGET_DIR (default .bench_build/) on first use and reused after.
Human-readable lines go to stdout first; the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics, holding exactly
the metrics BENCHMARK.json declares for the mode: end_to_end with --trace 0,
per_layer with --trace 1.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd, timeout):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
        fail("command failed: " + " ".join(cmd))


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no fmtk sources next to the benchmark (expected src/CMakeLists.txt)")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", out, "-j", jobs, "--target", target],
              BUILD_TIMEOUT_S)
    return os.path.join(out, target)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        sys.exit(subprocess.run([binary], cwd=ROOT,
                                timeout=RUN_TIMEOUT_S).returncode)
    if not args.workload:
        fail("--workload is required")
    names = declared_metrics(args.trace)
    binary = build("fmtk_perfbench")
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.decode(errors="replace").rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write("\n".join(lines) + "\n")
        fail("fmtk_perfbench exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("fmtk_perfbench did not report " + ", ".join(missing))
    for line in lines[:-1]:
        print(line)
    metrics = {n: {"value": result["metrics"][n]["value"],
                   "unit": result["metrics"][n]["unit"]} for n in names}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
