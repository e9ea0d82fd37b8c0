#!/usr/bin/env python3
"""Build and run the NVGAS benchmark (see README.md in this directory).

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload gups-net|churn-sw|kv-net|all \\
        --seed N --seconds S --trace 0|1 [--heldout-seed M]

The simulator and the benchmark binary are built from the checkout's
sources into $CARGO_TARGET_DIR (default .bench_build) on first use; later
runs rebuild only what changed. The binary's output is passed through,
and the last line printed is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Each run's result, with the host's core count, compiler and build type, is
also written under <build dir>/results/. With --trace 1 the traced
repetition's spans go to <build dir>/traces/<workload>.json (Chrome
trace-event format). --heldout-seed also measures the workload at a second
seed and records both, so a claim can be checked on a seed nobody tuned
on. The exit code is nonzero when the build, any output check, or the
benchmark's own sanity checks fail.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["gups-net", "churn-sw", "kv-net"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_root):
    """Configure (once) and build the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "world.hpp")):
        fail(f"no simulator sources under {ROOT}/src; run from a full checkout")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found")
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    # One build at a time per build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                shutil.rmtree(build_dir, ignore_errors=True)
                fail(f"cmake configure failed (see {log_path})")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        cmd = ["cmake", "--build", build_dir, "-j", jobs]
        if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
            with open(log_path) as f:
                sys.stderr.write("".join(f.readlines()[-30:]))
            fail(f"build failed (see {log_path})")
    return os.path.join(build_dir, "nvgas_perfbench")


def run_one(binary, build_root, workload, seed, seconds, trace):
    """Run one workload; returns (exit code, parsed result, header facts)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        trace_dir = os.path.join(build_root, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--chrome", os.path.join(trace_dir, f"{workload}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} ran past {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode < 0 or not lines:
        print("\n".join(lines))
        fail(f"{workload} seed {seed} crashed (exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} seed {seed}: last line is not a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} seed {seed}: result has unexpected keys")
    facts = {}
    for line in lines[:2]:
        for word in line.replace('"', "").split():
            key, _, value = word.partition("=")
            if key in ("host_cores", "build_type"):
                facts[key] = value
    compiler = [l for l in lines[:2] if "compiler=" in l]
    if compiler:
        facts["compiler"] = compiler[0].split('compiler="')[1].split('"')[0]
    return proc.returncode, result, facts


def record(build_root, workload, seed, trace, facts, result, heldout=None):
    out_dir = os.path.join(build_root, "results")
    os.makedirs(out_dir, exist_ok=True)
    doc = dict(facts)
    doc.update({"workload": workload, "seed": seed, "trace": trace,
                "result": result})
    if heldout is not None:
        doc["heldout"] = heldout
    path = os.path.join(out_dir, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--heldout-seed", type=int, default=None)
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be 1..60")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)
    binary = build(build_root)

    names = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    final = None
    for name in names:
        heldout = None
        if args.heldout_seed is not None:
            print(f"== {name}: held-out seed {args.heldout_seed}")
            code, held, _ = run_one(binary, build_root, name,
                                    args.heldout_seed, args.seconds, args.trace)
            print(json.dumps(held))
            status = status or code
            heldout = {"seed": args.heldout_seed, "result": held}
        print(f"== {name}: seed {args.seed}")
        code, result, facts = run_one(binary, build_root, name, args.seed,
                                      args.seconds, args.trace)
        status = status or code
        record(build_root, name, args.seed, args.trace, facts, result, heldout)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
        final = result
        if len(names) > 1:
            print(json.dumps(result))
    print(json.dumps(final if len(names) == 1 else merged))
    return status


if __name__ == "__main__":
    sys.exit(main())
