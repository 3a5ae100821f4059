#!/usr/bin/env python3
"""Cross-build byte-identity check for behaviour-preserving changes.

A refactor of the serving path is behaviour-preserving only if every
same-seed machine-readable output of the two builds is byte-identical
(ROADMAP "Quality of design"). This tool runs one fixed output set from
two build trees, each with its own model cache, and compares each pair
byte for byte:

  * --quick --json of table1_jetson_mnist, table2_jetson_cifar,
    chaos_degradation, resilience_sweep and loadgen_sweep;
  * latency_breakdown --quick --json --breakdown;
  * table1_jetson_mnist --quick --trace;
  * the stdout of fig5_rpi_mnist --quick (it has no --json, and its
    stdout is byte-stable);
  * the stdout of schedule_explore --seed=1 --schedules=50 for the
    teamnet, sg-moe, chaos and resilience scenarios.

Exit status: 0 when every pair is identical, 1 naming the first output
that differs (or a run that failed), 2 usage error. --self-test runs the
comparison over stub builds, once identical and once with one planted
differing byte, and exits 0 only if both verdicts are right.

Usage:
  identity_check.py --parent PARENT_BUILD --change CHANGE_BUILD [--work DIR]
  identity_check.py --self-test
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

QUICK_JSON = ["table1_jetson_mnist", "table2_jetson_cifar",
              "chaos_degradation", "resilience_sweep", "loadgen_sweep"]
EXPLORE = ["teamnet", "sg-moe", "chaos", "resilience"]


def run_set():
    """(binary relative to the build dir, arguments, output names). "{0}",
    "{1}" in an argument stand for the paths of the run's outputs; a run
    without them writes its one output to stdout. "{cache}" is the side's
    model cache."""
    cache = ["--cache-dir", "{cache}"]
    runs = [(f"bench/{b}", ["--quick", "--json", "{0}"] + cache,
             [f"{b}.json"]) for b in QUICK_JSON]
    runs.append(("bench/latency_breakdown",
                 ["--quick", "--json", "{0}", "--breakdown", "{1}"] + cache,
                 ["latency_breakdown.json",
                  "latency_breakdown.breakdown.json"]))
    runs.append(("bench/table1_jetson_mnist",
                 ["--quick", "--trace", "{0}"] + cache,
                 ["table1_jetson_mnist.trace.json"]))
    runs.append(("bench/fig5_rpi_mnist", ["--quick"] + cache,
                 ["fig5_rpi_mnist.stdout"]))
    runs += [("tools/schedule_explore",
              [f"--scenario={s}", "--seed=1", "--schedules=50"],
              [f"schedule_explore.{s}.stdout"]) for s in EXPLORE]
    return runs


def output_names():
    return [name for _, _, names in run_set() for name in names]


def run_side(build, side_dir):
    """Runs the whole set from `build` into `side_dir`. Returns None on
    success, or a message naming the run that failed."""
    cache = os.path.join(side_dir, "cache")
    os.makedirs(cache, exist_ok=True)
    for binary, args, names in run_set():
        paths = [os.path.join(side_dir, n) for n in names]
        to_stdout = not any("{0}" in a for a in args)
        argv = [os.path.join(build, binary)] + [
            a.format(*paths, cache=cache) for a in args]
        with open(paths[0] if to_stdout else os.devnull, "wb") as stdout:
            status = subprocess.run(argv, stdout=stdout,
                                    stderr=subprocess.DEVNULL).returncode
        if status != 0:
            return f"{' '.join(argv)} exited with {status}"
    return None


def first_difference(parent_dir, change_dir):
    """Name of the first output whose bytes differ, or None."""
    for name in output_names():
        with open(os.path.join(parent_dir, name), "rb") as a, \
                open(os.path.join(change_dir, name), "rb") as b:
            if a.read() != b.read():
                return name
    return None


def check(parent, change, work):
    sides = {}
    for label, build in (("parent", parent), ("change", change)):
        sides[label] = os.path.join(work, label)
        failure = run_side(build, sides[label])
        if failure:
            print(f"FAILED ({label}): {failure}")
            return 1
    differing = first_difference(sides["parent"], sides["change"])
    if differing:
        print(f"DIFFERS: {differing} ({sides['parent']}/{differing} vs "
              f"{sides['change']}/{differing})")
        return 1
    print(f"identical: all {len(output_names())} outputs")
    return 0


# ---------------------------------------------------------------------------
# self-test

STUB = """#!{python}
import sys
args = sys.argv[1:]
body = ("{name} " + " ".join(a for a in args if "/" not in a)).encode()
body += {planted!r}
paths = [args[i + 1] for i, a in enumerate(args)
         if a in ("--json", "--trace", "--breakdown")]
for path in paths:
    open(path, "wb").write(body + path.rsplit("/", 1)[-1].encode())
if not paths:
    sys.stdout.buffer.write(body)
"""


def make_stub_build(root, planted_in=None):
    """A build tree whose binaries write their name and flags; the binary
    named `planted_in` appends one extra byte to its output."""
    for binary in {binary for binary, _, _ in run_set()}:
        path = os.path.join(root, binary)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        planted = b"!" if binary == planted_in else b""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(STUB.format(python=sys.executable,
                                 name=os.path.basename(binary),
                                 planted=planted))
        os.chmod(path, 0o755)


def self_test():
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        parent = os.path.join(tmp, "parent")
        same = os.path.join(tmp, "same")
        planted = os.path.join(tmp, "planted")
        make_stub_build(parent)
        make_stub_build(same)
        make_stub_build(planted, planted_in="bench/chaos_degradation")
        cases = [("identical builds pass", same, 0, None),
                 ("one planted byte fails and is named", planted, 1,
                  "chaos_degradation.json")]
        for i, (name, change, want_status, want_name) in enumerate(cases):
            work = os.path.join(tmp, f"work{i}")
            status = check(parent, change, work)
            named = first_difference(os.path.join(work, "parent"),
                                     os.path.join(work, "change"))
            ok = status == want_status and named == want_name
            print(f"{'PASS' if ok else 'FAIL'}: {name}")
            failures += 0 if ok else 1
    if failures:
        print(f"self-test: {failures} case(s) misbehaved")
        return 1
    print("self-test: all 2 cases behaved")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="run one fixed output set from two builds and require "
                    "every pair to be byte-identical")
    parser.add_argument("--parent", help="build dir of the reference tree")
    parser.add_argument("--change", help="build dir of the changed tree")
    parser.add_argument("--work", help="scratch dir for outputs and model "
                                       "caches (default: a fresh temp dir)")
    parser.add_argument("--self-test", action="store_true",
                        help="check the comparison on stub builds and exit")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if not args.parent or not args.change:
        parser.error("need --parent and --change")
    work = args.work or tempfile.mkdtemp(prefix="identity_check.")
    print(f"outputs in {work}")
    return check(os.path.abspath(args.parent), os.path.abspath(args.change),
                 work)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
