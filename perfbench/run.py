#!/usr/bin/env python3
"""Build and run the jitise end-to-end benchmark (perfbench/e2e.ml).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is registry-cold, dse-warm, online-phased, or `all` (every workload in
turn).  The script builds perfbench/e2e.exe from the sources in this
checkout with dune, runs it, and checks that its result names exactly
the metrics BENCHMARK.json lists for the mode: the end-to-end metrics
with --trace 0, the per-layer ones with --trace 1.  The last line of
standard output is the result object; progress and failures go to
standard error.

    python3 perfbench/run.py --self-test

regenerates the VM oracle with the Reference engine and compares it with
perfbench/oracle.tsv, runs every workload briefly and traced under seed 1
and dse-warm (the one workload the seed changes) again under seed 2, and
fails unless each run is correct.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["registry-cold", "dse-warm", "online-phased"]
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "e2e.exe")
ORACLE = os.path.join(HERE, "oracle.tsv")
WORK = os.path.join(ROOT, ".perfbench")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for needed in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no %s beside perfbench/: run from a full jitise checkout" % needed, 2)
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/e2e.exe"],
        stdout=sys.stderr, stderr=sys.stderr, timeout=880)
    if proc.returncode != 0:
        fail("build failed", 3)


def run_exe(args, timeout=RUN_TIMEOUT_S):
    """Run e2e.exe; return (exit code, stdout lines).  Kills it on timeout."""
    proc = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("e2e.exe %s timed out after %d s" % (" ".join(args), timeout), 4)
    return proc.returncode, out.splitlines()


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload, seed, seconds, trace):
    """Run one workload; print its report; return the parsed result."""
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        code, lines = run_exe([
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--oracle", ORACLE, "--work-dir", WORK])
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if code != 0 or not lines:
        fail("e2e.exe exited with code %d on %s" % (code, workload), 5)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("unexpected result keys %s" % sorted(result), 6)
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: got %s, want %s" % (got, want), 6)
    return result


def self_test():
    code, lines = run_exe(["--check-oracle", ORACLE], timeout=600)
    print("\n".join(lines))
    if code != 0:
        fail("the oracle has drifted from the Reference engine")
    runs = [(w, 1, 1) for w in WORKLOADS] + [("dse-warm", 2, 0)]
    for workload, seed, trace in runs:
        result = run_workload(workload, seed, 1, trace)
        if not result["correct"] or result["failed"]:
            fail("%s seed %d trace %d: incorrect" % (workload, seed, trace))
    print("perfbench: self-test passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    build()
    if args.self_test:
        self_test()
    elif args.workload == "all":
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in WORKLOADS}
        print(json.dumps(results))
    else:
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))


if __name__ == "__main__":
    main()
