#!/usr/bin/env python3
"""Builds and runs the TeamNet end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload overload_k8 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The C++ benchmark is built from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), its models are
trained once into that tree's own cache by a separate, untimed process, and
the timed process is then started. Its last stdout line is the result JSON.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # the contract allows 180 s per run
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
EXIT_HAD_TO_TRAIN = 3  # perfbench's refusal to time a process that trained


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    """Configures (once) and builds perfbench; build output goes to stderr."""
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr)


def revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "bench", "cmake", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def prepare(binary, cache, ready):
    """Trains missing models in a process of their own, never timed."""
    subprocess.run([binary, "prepare", "--cache", cache], check=True,
                   stdout=sys.stderr, timeout=600)
    with open(ready, "w") as f:
        f.write("models trained by perfbench prepare\n")


def run_once(cmd):
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    return proc


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the arithmetic self-tests only")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    out = build_dir()
    try:
        build(out)
        selftest = subprocess.run([os.path.join(out, "perfbench_selftest")],
                                  capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.SubprocessError) as e:
        log(f"build failed: {e}")
        return 1
    sys.stderr.write(selftest.stdout)
    if selftest.returncode != 0:
        log("arithmetic self-test failed")
        return 1
    if args.self_test:
        print(selftest.stdout.strip())
        return 0

    binary = os.path.join(out, "perfbench")
    cache = os.path.join(out, "model-cache")
    ready = os.path.join(cache, "READY")
    os.makedirs(os.path.join(out, "spans"), exist_ok=True)
    cmd = [binary, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--cache", cache,
           "--revision", revision()]
    if args.trace:
        cmd += ["--spans", os.path.join(
            out, "spans", f"{args.workload}-seed{args.seed}.json")]
    try:
        if not os.path.exists(ready):
            prepare(binary, cache, ready)
        proc = run_once(cmd)
        if proc.returncode == EXIT_HAD_TO_TRAIN:
            log("model cache was incomplete; preparing it and running again")
            os.remove(ready)
            prepare(binary, cache, ready)
            proc = run_once(cmd)
    except (OSError, subprocess.SubprocessError) as e:
        log(f"benchmark failed: {e}")
        return 1
    if proc.returncode != 0:
        log(f"perfbench exited with {proc.returncode}")
        return 1

    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench printed no result line")
        return 1
    if set(result) != RESULT_KEYS:
        log(f"unexpected result keys {sorted(result)}")
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
