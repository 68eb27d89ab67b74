#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload verify|faults|load|relax \
        --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a checkout.  It builds perfbench/bench.exe
with dune into .bench_build/, runs it, passes its human-readable lines
through, and prints as the last line one JSON object with the keys
correct, attempted, failed and metrics.  The metrics are exactly the
end-to-end metrics of BENCHMARK.json with --trace 0, and exactly its
per-layer metrics with --trace 1; a per-layer metric of a layer the
workload does not exercise reads 0.  Spans of a traced run go to
.bench_out/spans-<workload>.jsonl.

Exit codes: 0 correct result; 1 result printed but a correctness gate
failed; 2 bad arguments or the program cannot be built; 3 the program
failed or timed out; 4 its output does not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "bench.exe")
WORKLOADS = ["verify", "faults", "load", "relax"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(2, f"{need} is missing: run this from the root of a full checkout")
    if shutil.which("dune") is None:
        fail(2, "dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "./perfbench/bench.exe"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(2, "build timed out")
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(proc.stdout)
        fail(2, "build failed")


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def shape(result, trace):
    """The program's metrics, checked against and filled to BENCHMARK.json."""
    want = declared(trace)
    got = result["metrics"]
    extra = sorted(set(got) - set(want))
    if extra:
        fail(4, f"metrics not declared in BENCHMARK.json: {', '.join(extra)}")
    metrics, idle = {}, []
    for name, unit in want.items():
        if name in got:
            m = got[name]
            if m["unit"] != unit:
                fail(4, f"{name}: unit {m['unit']!r}, BENCHMARK.json says {unit!r}")
            metrics[name] = {"value": m["value"], "unit": unit}
        elif trace:
            idle.append(name)
            metrics[name] = {"value": 0, "unit": unit}
        else:
            fail(4, f"end-to-end metric {name} missing")
    if idle:
        print(f"not exercised by this workload (reported as 0): {', '.join(idle)}")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--smoke", action="store_true", help="tiny sizes (the benchmark's own tests)")
    args = ap.parse_args()
    if args.seconds < 1:
        fail(2, "--seconds must be at least 1")
    trace = args.trace == "1"

    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.smoke:
        cmd.append("--smoke")
    if trace:
        os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
        cmd += ["--spans-out", os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(3, f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        fail(3, f"bench.exe exited with {proc.returncode} and no result")
    for line in lines[:-1]:
        print(line)
    result = shape(json.loads(lines[-1]), trace)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
