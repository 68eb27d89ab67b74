#!/usr/bin/env python3
"""The benchmark's own tests: every workload at smoke size, untraced and
traced, through run.py, plus the shape of BENCHMARK.json.

    python3 perfbench/test_smoke.py      (from the root of a checkout)

Each run must print as its last line exactly the contract's keys, emit
every metric BENCHMARK.json declares with its declared unit, and pass its
correctness gates.  The human report must name the workload's
end-to-end metrics with their units, every per-layer metric must be
exercised by some workload, and run.py must refuse, without a result,
in a directory that holds only BENCHMARK.json and perfbench/.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# The end-to-end metrics each workload's report names, beside setup_s,
# unit_s, peak_heap_mb and failed_share.
NAMED = {
    "verify": ["verify_s"],
    "faults": ["search_s", "history_s"],
    "load": ["sim_ops_per_s"],
    "relax": ["queue_mops", "locked_mops"],
}
COMMON = ["setup_s", "unit_s", "peak_heap_mb", "failed_share"]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

_runs = {}


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)


def smoke(workload, trace):
    if (workload, trace) not in _runs:
        _runs[(workload, trace)] = run(workload, trace)
    return _runs[(workload, trace)]


class Spec(unittest.TestCase):
    def test_shape(self):
        self.assertEqual(
            set(SPEC), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        self.assertLessEqual(os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")), 64 * 1024)
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        self.assertTrue(1 <= len(SPEC["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(SPEC["per_layer"]) <= 128)
        names = [w["name"] for w in SPEC["workloads"]]
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["name"], NAME_RE)
            self.assertRegex(m["unit"], UNIT_RE)
            self.assertIn(m["better"], ("lower", "higher"))
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in SPEC["end_to_end"]))


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        proc = smoke(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr + proc.stdout[-2000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
        if not trace:
            for m in SPEC["end_to_end"]:
                self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])
        report = "\n".join(lines[:-1])
        for name in COMMON + NAMED[workload]:
            self.assertRegex(report, rf"(?m)^{re.escape(name)} +\S+ +\S+", name)
        self.assertNotIn("GATE FAILED", report)
        self.assertNotIn("does not repeat", report)
        return report

    def test_untraced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, 0)

    def test_traced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                report = self.check(w, 1)
                self.assertIn("reconciliation", report)
                self.assertTrue(os.path.exists(os.path.join(ROOT, ".bench_out", f"spans-{w}.jsonl")))

    def test_every_layer_metric_is_exercised(self):
        exercised = set()
        for w in WORKLOADS:
            proc = smoke(w, 1)
            idle = set()
            for line in proc.stdout.splitlines():
                if line.startswith("not exercised by this workload"):
                    idle = {n.strip() for n in line.split(":", 1)[1].split(",")}
            exercised |= {m["name"] for m in SPEC["per_layer"]} - idle
        self.assertEqual(exercised, {m["name"] for m in SPEC["per_layer"]})


class Isolated(unittest.TestCase):
    def test_refuses_without_the_program(self):
        where = os.path.join(ROOT, ".bench_out", "isolated")
        shutil.rmtree(where, ignore_errors=True)
        os.makedirs(where)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), where)
        shutil.copytree(HERE, os.path.join(where, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run("load", 0, cwd=where)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(where, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
