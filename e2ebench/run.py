#!/usr/bin/env python3
"""End-to-end benchmark of the OSCAR pipeline: one command per run.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --self-test

Run from the root of a source checkout. The first run configures and
builds the library, the worker and the benchmark binary under
.bench_build/e2ebench (later runs rebuild only what changed), then runs
one workload. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json when --trace 0 and the
per-layer metrics when --trace 1; a run whose metric names differ from
BENCHMARK.json fails without a result. A provenance line (host cores, kernel
ISA, build, compiler, commit, source digest, seed, and why the workload
exists) precedes it; the full report, with the benchmark's spans and a
Chrome trace of the program's own spans, lands in
.bench_build/e2ebench/reports/.

--self-test builds and runs the tests of the metric arithmetic.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = "e2ebench"
BUILD_DIR = os.path.join(".bench_build", "e2ebench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over the program and benchmark sources (the checkout is
    not necessarily a git repository)."""
    digest = hashlib.sha256()
    roots = ["CMakeLists.txt", "src", "tools", BENCH_DIR]
    for root in roots:
        paths = [root]
        if os.path.isdir(root):
            paths = sorted(
                os.path.join(d, f)
                for d, _, files in os.walk(root)
                for f in files
            )
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def commit_id():
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build(target):
    configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", target, "-j",
         str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)


def clean_env():
    """The program's OSCAR_* switches are the benchmark's to set."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("OSCAR_")}
    env["OSCAR_WORKER_BIN"] = os.path.abspath(
        os.path.join(BUILD_DIR, "oscar-worker"))
    return env


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"] for m in bench[key]}


def run_workload(args):
    cmd = [
        os.path.join(BUILD_DIR, "oscar_e2e"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", BUILD_DIR, "--commit", commit_id(),
        "--source-digest", source_digest(),
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=clean_env(), process_group=0)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if set(result.get("metrics", {})) != declared_metrics(args.trace):
        fail("the run's metrics differ from BENCHMARK.json")
    sys.stdout.write(out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        fail("run from the root of an OSCAR source checkout")
    if args.self_test:
        build("test_bench_math")
        sys.exit(subprocess.run(
            [os.path.join(BUILD_DIR, "test_bench_math")]).returncode)
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    build("oscar_e2e")
    run_workload(args)


if __name__ == "__main__":
    main()
