#!/usr/bin/env python3
"""The repo benchmark: build, run one workload, print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The driver and the optdm_served daemon are built from the checkout's
sources into .bench_build/perfbench (CMake, RelWithDebInfo).  With
--trace 0 the last stdout line is a JSON object carrying every end-to-end
metric of BENCHMARK.json; with --trace 1 it carries every per-layer metric.
setup_s is the median of several set-ups, each in a fresh driver process.
Workloads and metrics are described in perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
SERVED = os.path.join(BUILD, "optdm", "tools", "optdm_served")
WORKLOADS = ("serve_warm", "serve_mixed", "compile_cold", "simulate_scale")
# setup_s is the median of at least five set-ups, each in a fresh driver
# process; quick set-ups repeat until two seconds are spent (at most nine).
SETUP_RUNS = (5, 9)
SETUP_BUDGET_S = 2.0
# Seed whose slots_total is recorded in expected.json.
DEFAULT_SEED = 1


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no optdm sources under " + ROOT + "; run from a checkout's root")
    os.makedirs(BUILD, exist_ok=True)
    # One build at a time per checkout.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            ["cmake", "--build", BUILD, "-j4"],
        ]
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
            if done.returncode != 0:
                sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
                fail("build failed: " + " ".join(step))


def drive(args):
    """Runs the driver once and returns its JSON result."""
    done = subprocess.run([DRIVER, "--served=" + SERVED] + args, stdout=subprocess.PIPE)
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("driver failed (exit %d): %s" % (done.returncode, " ".join(args)))
    return json.loads(lines[-1])


def selftest():
    """Tiny run of every workload, untraced and traced: each must pass its
    own output checks and print exactly the metrics BENCHMARK.json names.
    Then the driver's negative cases: corrupted outputs must be caught."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = {
        0: {m["name"] for m in bench["end_to_end"]} - {"setup_s"},
        1: {m["name"] for m in bench["per_layer"]},
    }
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = drive(["--workload=" + workload, "--tiny", "--seconds=1",
                            "--trace=%d" % trace])
            names = set(result["metrics"])
            ok = (result["failed"] == 0 and result["attempted"] > 0
                  and not result["problems"] and names == wanted[trace])
            failures += 0 if ok else 1
            print("%s %s trace=%d: %d ops, %d failed, problems %s, metrics missing %s extra %s" % (
                "PASS" if ok else "FAIL", workload, trace, result["attempted"],
                result["failed"], result["problems"], sorted(wanted[trace] - names),
                sorted(names - wanted[trace])), flush=True)
    failures += subprocess.run([DRIVER, "--selftest"]).returncode
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="tiny run of every workload plus negative checks")
    opts = parser.parse_args()
    if not opts.selftest and not opts.workload:
        parser.error("--workload is required")

    build()
    if opts.selftest:
        sys.exit(selftest())

    common = ["--workload=" + opts.workload, "--seed=%d" % opts.seed]
    run = common + ["--seconds=%g" % opts.seconds, "--trace=%d" % opts.trace]
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)
    if opts.seed == DEFAULT_SEED and not opts.trace:
        run.append("--expect-slots=%d" % expected["slots_total"][opts.workload])
    if opts.trace:
        run.append("--trace-out=" + os.path.join(BUILD, "spans_%s.jsonl" % opts.workload))
    result = drive(run)

    metrics = result["metrics"]
    if not opts.trace:
        setups = [result["setup_s"]]
        started = time.monotonic()
        while len(setups) < SETUP_RUNS[1] and (
                len(setups) < SETUP_RUNS[0] or time.monotonic() - started < SETUP_BUDGET_S):
            setups.append(drive(common + ["--setup-only"])["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}

    for problem in result["problems"]:
        print("perfbench: check failed: " + problem, file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
