#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. Builds the benchmark (perfbench/, which
compiles the library from src/) into .bench_build/, runs one workload
and passes its report through. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics;
its metrics are exactly the end_to_end (--trace 0) or per_layer
(--trace 1) metrics that BENCHMARK.json names. When the build or the
run fails, or the report does not match BENCHMARK.json, the script
exits non-zero without printing a result. Full records, and for a
traced run the spans and library counters, go to .bench_out/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 850
# A run takes its --seconds plus set-up, an overrun of at most one
# operation and the checks and probes after the window.
RUN_MARGIN_S = 120
SELF_TEST_TIMEOUT_S = 60


def fail(message):
    print("perfbench: error: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build(target):
    """Configure once, then build @target; build output goes to stderr."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if ("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE) not in f.read():
                shutil.rmtree(BUILD)  # configured from another tree
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", target])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if done.returncode != 0:
            fail("build step %s exited %d" % (cmd[:2], done.returncode))
    return os.path.join(BUILD, target)


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def tree_sha():
    """Content hash of the sources the benchmark builds (src/, perfbench/)."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        binary = build("perfbench_selftest")
        sys.exit(subprocess.run([binary],
                                timeout=SELF_TEST_TIMEOUT_S).returncode)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (BENCHMARK.json has %s)"
             % (args.workload, ", ".join(names)))
    binary = build("perfbench")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--tree-sha", tree_sha()]
    timeout = args.seconds + RUN_MARGIN_S
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish in %g s" % (args.workload, timeout))
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail("perfbench exited %d" % done.returncode)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("perfbench printed no result line")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = result.get("metrics", {})
    if set(got) != set(units):
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(units) - set(got)), sorted(set(got) - set(units))))
    for name, metric in got.items():
        if metric.get("unit") != units[name]:
            fail("metric %s has unit %r, BENCHMARK.json says %r"
                 % (name, metric.get("unit"), units[name]))
    if result.get("attempted", 0) < 1:
        fail("no operation was attempted")

    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": got}))


if __name__ == "__main__":
    main()
