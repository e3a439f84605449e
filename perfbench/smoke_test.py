#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, untraced and traced, at
tiny scale, with all output checks; then the refusal to run without the
repository's sources.

    python3 perfbench/smoke_test.py

Takes about a minute after the first build. Exits non-zero on failure.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def result(args, cwd=ROOT):
    proc = subprocess.run([sys.executable] + args, cwd=cwd, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=900)
    return proc.returncode, proc.stdout, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, out, err = result([RUN, "--workload", workload, "--seed",
                                     "11", "--seconds", "2", "--trace",
                                     str(trace), "--scale", "0.05"])
            tag = f"{workload} trace={trace}"
            lines = out.strip().split("\n")
            try:
                line = json.loads(lines[-1])
            except (json.JSONDecodeError, IndexError):
                failures.append(f"{tag}: no result line (exit {code})\n{err}")
                continue
            names = [m["name"] for m in
                     spec["per_layer" if trace else "end_to_end"]]
            problems = []
            if code != 0:
                problems.append(f"exit {code}")
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"keys {sorted(line)}")
            if line.get("correct") is not True:
                problems.append("an output check failed")
            if line.get("attempted", 0) < 1 or line.get("failed") != 0:
                problems.append(f"attempted {line.get('attempted')}, "
                                f"failed {line.get('failed')}")
            if sorted(line.get("metrics", {})) != sorted(names):
                problems.append("metric names differ from BENCHMARK.json")
            if not trace and any(m["value"] <= 0
                                 for m in line["metrics"].values()):
                problems.append("an end-to-end metric is not positive")
            if problems:
                failures.append(f"{tag}: {'; '.join(problems)}\n{out}")
            print(f"{tag}: {'ok' if not problems else 'FAILED'}", flush=True)

    # Without the repository around it the benchmark must refuse to run.
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out, _ = result([os.path.join("perfbench", "run.py"), "--workload",
                           "serve_mixed", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or out.strip():
        failures.append(f"bare directory: exit {code}, stdout {out!r}")
    print(f"bare directory refused: {'ok' if code != 0 else 'FAILED'}")

    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
