#!/usr/bin/env python3
"""Runs one workload of the repo benchmark.

    python3 perfbench/run.py --workload ingest|query --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (and the engine library
from src/) in Release mode into .bench_build/perfbench, then runs the
perfbench binary with its database on a RAM-backed filesystem: a private
tmpfs mounted on .bench_db inside a user+mount namespace, so nothing is
written outside the checkout and the mount vanishes with the process. Where
namespaces are unavailable it falls back to a fresh directory under
/dev/shm, removed afterwards. Spans of traced runs go to .bench_out/.

The binary's standard output is passed through; its last line is the JSON
result. The exit code is the binary's (0 = ran and every check passed).
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DB_DIR = os.path.join(ROOT, ".bench_db")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 175
MOUNT_SCRIPT = 'mount -t tmpfs -o size=2g,mode=0700 perfbench "$0" && exec "$@"'


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def private_tmpfs_works():
    """True if a tmpfs can be mounted on DB_DIR in a private namespace."""
    if shutil.which("unshare") is None:
        return False
    probe = subprocess.run(
        ["unshare", "--user", "--map-root-user", "--mount", "sh", "-c",
         'mount -t tmpfs -o size=1m perfbench "$0"', DB_DIR],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return probe.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 1

    os.makedirs(DB_DIR, exist_ok=True)
    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--out-dir", OUT_DIR]
    fallback_dir = None
    if private_tmpfs_works():
        command = ["unshare", "--user", "--map-root-user", "--mount", "sh", "-c",
                   MOUNT_SCRIPT, DB_DIR, binary] + bench_args + ["--db-dir", DB_DIR]
    else:
        fallback_dir = tempfile.mkdtemp(prefix="perfbench-", dir="/dev/shm")
        log(f"no private tmpfs; using {fallback_dir}")
        command = [binary] + bench_args + ["--db-dir", fallback_dir]
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        if fallback_dir is not None:
            shutil.rmtree(fallback_dir, ignore_errors=True)
    sys.stdout.buffer.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
