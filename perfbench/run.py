#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result line.

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout; it works on the checkout that
holds this file. Each invocation

  1. builds perfbench/ (CMake, Release) into .bench_build/cmake,
  2. writes the workload's edge file for the seed with `flowbench gen`
     in its own process, cached in .bench_build/data by preset, scale and
     seed, so neither generation time nor its memory lands in a run,
  3. runs `flowbench run`, which sets the workload up from that file,
     measures it for --seconds and checks its outputs afterwards.

flowbench's report lines are passed through. The last line is one JSON
object with the keys correct, attempted, failed and metrics: every
end_to_end metric of BENCHMARK.json with --trace 0, every per_layer
metric with --trace 1 (0 for a layer the workload does not exercise).
A traced run also prints the tracing overhead against the untraced run
of the same workload, seed and length, when this checkout has one.

Exits non-zero, without a result line, when the sources are missing or
the build fails, and with correct=false when an output check fails.
--scale shrinks the datasets (smoke_test.py runs at 0.05).
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "cmake", "flowbench")

# Workload -> (dataset preset, scale at --scale 1).
WORKLOADS = {
    "serve_mixed": ("bitcoin", 1.0),
    "live_ingest": ("bitcoin", 1.0),
    "batch_study": ("passenger", 8.0),
}

BUILD_TIMEOUT_S = 800
GEN_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150


def call(cmd, timeout, stdout):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"run.py: {cmd[0]} timed out after {timeout} s")
    return proc.returncode, out


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        raise SystemExit("run.py: no flowmotif sources next to perfbench/")
    cmake_dir = os.path.join(BUILD, "cmake")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        code, _ = call(["cmake", "-S", HERE, "-B", cmake_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       BUILD_TIMEOUT_S, sys.stderr)
        if code != 0:
            raise SystemExit("run.py: cmake configure failed")
    code, _ = call(["cmake", "--build", cmake_dir, "--target", "flowbench",
                    "-j", jobs], BUILD_TIMEOUT_S, sys.stderr)
    if code != 0:
        raise SystemExit("run.py: build failed")


def edge_file(preset, scale, seed):
    data = os.path.join(BUILD, "data")
    os.makedirs(data, exist_ok=True)
    path = os.path.join(data, f"{preset}-x{scale:g}-seed{seed}.edges")
    if not os.path.isfile(path):
        code, _ = call([BINARY, "gen", "--preset", preset, "--scale",
                        repr(scale), "--seed", str(seed), "--out", path],
                       GEN_TIMEOUT_S, sys.stderr)
        if code != 0:
            raise SystemExit("run.py: edge file generation failed")
    return path


def result_line(report, spec, trace):
    """The contract's result line from flowbench's report."""
    metrics = {}
    if trace:
        known = {m["name"] for m in spec["per_layer"]}
        unknown = set(report["layers"]) - known
        if unknown:
            raise SystemExit(f"run.py: layers not in BENCHMARK.json: {unknown}")
        for m in spec["per_layer"]:
            got = report["layers"].get(m["name"], {"value": 0.0,
                                                   "unit": m["unit"]})
            metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            got = report["end_to_end"].get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                raise SystemExit(f"run.py: end-to-end metric {m['name']} "
                                 "missing or in another unit")
            metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0 or not args.scale > 0:
        parser.error("--seed must be >= 0; --seconds and --scale > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    preset, scale = WORKLOADS[args.workload]
    edges = edge_file(preset, scale * args.scale, args.seed)

    tag = f"{args.workload}-seed{args.seed}-s{args.seconds:g}-x{args.scale:g}"
    results = os.path.join(BUILD, "results")
    traces = os.path.join(BUILD, "traces")
    os.makedirs(results, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    cmd = [BINARY, "run", "--workload", args.workload, "--edges", edges,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(traces, tag + ".spans.tsv")]
    code, out = call(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    lines = out.rstrip("\n").split("\n")
    try:
        report = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stderr.write(out)
        raise SystemExit(f"run.py: flowbench exited {code} without a report")
    for line in lines[:-1]:
        print(line)

    untraced = os.path.join(results, tag + ".json")
    if not args.trace:
        with open(untraced, "w") as f:
            json.dump(report, f)
    elif os.path.isfile(untraced):
        with open(untraced) as f:
            base = json.load(f)["end_to_end"]
        for name, traced in report["end_to_end"].items():
            if name in base:
                diff = traced["value"] - base[name]["value"]
                print(f"overhead {name}: traced {traced['value']:.6g} - "
                      f"untraced {base[name]['value']:.6g} = {diff:.6g} "
                      f"{traced['unit']}")
    else:
        print("overhead (no untraced run of this workload, seed and length "
              "in this checkout; run it with --trace 0 first)")

    line = result_line(report, spec, args.trace)
    for m in line["metrics"].values():
        if not math.isfinite(m["value"]):
            raise SystemExit("run.py: non-finite metric")
    print(json.dumps(line), flush=True)
    return 0 if report["correct"] and code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
