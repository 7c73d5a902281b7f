#!/usr/bin/env python3
"""Self-test of the repo benchmark.

    python3 perfbench/selftest.py [--seed N]

Run from the root of a checkout. For every workload in BENCHMARK.json it
runs perfbench/run.py untraced under a seed other than the ones used while
the benchmark was tuned (default 9), and one workload traced, and checks
that every run passes its own correctness checks with zero failed
operations and prints exactly the metrics BENCHMARK.json names, each a
positive number for the end-to-end ones. It then copies BENCHMARK.json and
perfbench/ alone into .bench_out/bare/ and checks that the benchmark
refuses to run there (non-zero exit, no result line).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, trace, cwd=ROOT):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
               str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=900)


def check_result(spec, workload, seed, trace):
    done = run(workload, seed, trace)
    lines = done.stdout.strip().splitlines()
    errors = []
    if done.returncode != 0 or not lines:
        return [f"{workload} seed {seed} trace {trace}: exit {done.returncode}"]
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{workload}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{workload}: correct={result.get('correct')} failed={result.get('failed')}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        missing = sorted({m["name"] for m in wanted} - set(metrics))
        extra = sorted(set(metrics) - {m["name"] for m in wanted})
        errors.append(f"{workload} trace {trace}: missing {missing}, extra {extra}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            errors.append(f"{workload}: {m['name']} unit {got.get('unit')} != {m['unit']}")
        if not trace and not got.get("value", 0) > 0:
            errors.append(f"{workload}: {m['name']} = {got.get('value')}")
    print(f"{workload} seed {seed} trace {trace}: "
          f"{'ok' if not errors else 'FAILED'} ({result.get('attempted')} operations)")
    return errors


def check_bare():
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"))
    done = run("ingest", 1, 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    printed_result = any(line.startswith('{"correct"') for line in done.stdout.splitlines())
    ok = done.returncode != 0 and not printed_result
    print(f"bare directory: {'refused' if ok else 'NOT refused'} (exit {done.returncode})")
    return [] if ok else ["benchmark ran without the engine sources"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=9)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for workload in spec["workloads"]:
        errors += check_result(spec, workload["name"], args.seed, 0)
    errors += check_result(spec, spec["workloads"][0]["name"], args.seed, 1)
    errors += check_bare()
    for error in errors:
        print(f"  {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
