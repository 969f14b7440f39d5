"""Tests of the end-to-end benchmark itself: every workload, in smoke mode,
must emit exactly the result BENCHMARK.json declares.

    python3 -m unittest discover -s e2ebench -p 'test_*.py'

The first test builds psga_e2e (Release, into .bench_build/e2e).
"""

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace=0, seed=1, root=ROOT, smoke=True):
    command = [sys.executable, "e2ebench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    return subprocess.run(command, cwd=root, capture_output=True, text=True,
                          timeout=900)


def line_with(lines, key):
    for line in lines:
        if line.startswith("{"):
            parsed = json.loads(line)
            if key in parsed:
                return parsed[key]
    return None


class SmokeTest(unittest.TestCase):

    def check_result(self, workload, trace):
        completed = run(workload, trace)
        self.assertEqual(completed.returncode, 0, completed.stderr)
        lines = completed.stdout.splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in declared))
        for metric in declared:
            entry = result["metrics"][metric["name"]]
            self.assertEqual(sorted(entry), ["unit", "value"])
            self.assertEqual(entry["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(entry["value"], (int, float))
            self.assertTrue(math.isfinite(entry["value"]), metric["name"])
            if not trace:
                self.assertGreater(entry["value"], 0, metric["name"])
        context = line_with(lines, "context")
        for key in ("nproc", "build_type", "compiler", "steal_share",
                    "loadavg_start", "loadavg_end"):
            self.assertIn(key, context)
        self.assertEqual(context["build_type"], "Release")
        self.assertIn("source_hash", line_with(lines, "source"))
        self.assertRegex(line_with(lines, "digest"), "^[0-9a-f]{16}$")
        return lines

    def test_untraced_metrics_match_the_declared_end_to_end_set(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_result(workload, trace=0)

    def test_traced_metrics_match_the_declared_per_layer_set(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines = self.check_result(workload, trace=1)
                ledger = line_with(lines, "ledger")
                self.assertGreater(ledger["untraced_s"], 0)
                self.assertGreater(ledger["traced_s"], 0)
                trace_file = (ROOT / ".bench_build" / "traces" /
                              f"{workload}-seed1.json")
                events = json.loads(trace_file.read_text())["traceEvents"]
                self.assertTrue(events)
                ids = {e["args"]["id"] for e in events}
                for event in events:
                    self.assertGreaterEqual(event["dur"], 0)
                    parent = event["args"]["parent"]
                    self.assertTrue(parent == -1 or parent in ids)

    def test_digest_depends_only_on_the_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = line_with(run(workload, seed=4).stdout.splitlines(),
                                  "digest")
                again = line_with(run(workload, seed=4).stdout.splitlines(),
                                  "digest")
                other = line_with(run(workload, seed=5).stdout.splitlines(),
                                  "digest")
                self.assertEqual(first, again)
                self.assertNotEqual(first, other)

    def test_unknown_workload_fails_without_a_result(self):
        completed = run("no-such-workload")
        self.assertNotEqual(completed.returncode, 0)
        self.assertNotIn('"correct"', completed.stdout)

    def test_fails_without_the_sources_it_measures(self):
        bare = ROOT / ".bench_build" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "e2ebench", bare / "e2ebench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            completed = run(WORKLOADS[0], root=bare, smoke=False)
            self.assertNotEqual(completed.returncode, 0)
            self.assertNotIn('"correct"', completed.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
