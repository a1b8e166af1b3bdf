"""Tests of the benchmark's own checks.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The declaration tests compare BENCHMARK.json with perfbench_cli's own
metric and workload tables; they need a built perfbench_cli (any run of
perfbench/run.py builds it) and are skipped without one.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def metric(value, unit):
    return {"value": value, "unit": unit}


class CheckMetricsTest(unittest.TestCase):
    DECLARED = {"latency_ms": "ms", "setup_s": "s"}

    def test_exact_declared_set_passes(self):
        metrics = {"latency_ms": metric(1.5, "ms"), "setup_s": metric(0.2, "s")}
        self.assertEqual(run.check_metrics(metrics, self.DECLARED), [])

    def test_undeclared_name_is_rejected(self):
        metrics = {"latency_ms": metric(1.5, "ms"), "setup_s": metric(0.2, "s"),
                   "bogus": metric(1.0, "ms")}
        self.assertEqual(run.check_metrics(metrics, self.DECLARED),
                         ["undeclared metric bogus"])

    def test_missing_name_is_rejected(self):
        metrics = {"latency_ms": metric(1.5, "ms")}
        self.assertEqual(run.check_metrics(metrics, self.DECLARED),
                         ["declared metric setup_s missing"])

    def test_wrong_unit_and_non_finite_value_are_rejected(self):
        metrics = {"latency_ms": metric(float("nan"), "ms"), "setup_s": metric(0.2, "ms")}
        problems = run.check_metrics(metrics, self.DECLARED)
        self.assertIn("metric latency_ms is not a finite number", problems)
        self.assertIn("metric setup_s has unit 'ms', declared 's'", problems)

    def test_unoptimized_build_is_refused(self):
        self.assertEqual(run.check_provenance({"optimized": True, "ndebug": True}), [])
        self.assertTrue(run.check_provenance({"optimized": False, "ndebug": True}))
        self.assertTrue(run.check_provenance({"optimized": True, "ndebug": False}))


class DeclarationTest(unittest.TestCase):
    def setUp(self):
        self.binary = os.path.join(run.build_dir(), "perfbench_cli")
        if not os.path.isfile(self.binary):
            self.skipTest("perfbench_cli not built")
        self.declaration = run.load_declaration()

    def binary_lines(self, flag):
        out = subprocess.run([self.binary, flag], stdout=subprocess.PIPE, text=True,
                             check=True).stdout
        return [line.split() for line in out.splitlines() if line.strip()]

    def test_cli_metrics_match_the_declaration(self):
        emitted = {(name, unit, kind) for name, unit, kind in
                   self.binary_lines("--list-metrics")}
        declared = {(m["name"], m["unit"], kind)
                    for kind in ("end_to_end", "per_layer")
                    for m in self.declaration[kind]}
        self.assertEqual(emitted, declared)

    def test_cli_workloads_match_the_declaration(self):
        emitted = [fields[0] for fields in self.binary_lines("--list-workloads")]
        self.assertEqual(emitted, [w["name"] for w in self.declaration["workloads"]])

    def test_declaration_metric_names_are_unique(self):
        names = [m["name"] for kind in ("end_to_end", "per_layer")
                 for m in self.declaration[kind]]
        self.assertEqual(len(names), len(set(names)))


if __name__ == "__main__":
    unittest.main()
