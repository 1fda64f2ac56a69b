"""Tests of run.py's result checking and of BENCHMARK.json's shape.

  cd perfbench && python3 -m unittest -q test_run
"""

import json
import os
import unittest

import run


def benchmark():
    return run.load_json(run.BENCHMARK_JSON)


def driver_result(expected, digest="abc", checks=None):
    return {"digest": digest, "checks": checks or [],
            "metrics": {name: {"value": 1.5, "unit": unit} for name, unit in expected}}


class EvaluateTest(unittest.TestCase):
    expected = [("wall_s", "s"), ("events_per_s", "1/s")]

    def test_clean_result_has_no_problems(self):
        result = driver_result(self.expected, checks=[{"name": "c", "ok": True}])
        self.assertEqual(run.evaluate(result, self.expected, "abc"), [])

    def test_digest_must_match_reference(self):
        problems = run.evaluate(driver_result(self.expected), self.expected, "def")
        self.assertEqual(len(problems), 1)
        self.assertIn("differs from reference", problems[0])

    def test_no_reference_skips_digest(self):
        self.assertEqual(run.evaluate(driver_result(self.expected), self.expected, None), [])

    def test_failed_check_is_a_problem(self):
        result = driver_result(self.expected, checks=[{"name": "stored", "ok": False,
                                                       "detail": "3 missing"}])
        self.assertEqual(run.evaluate(result, self.expected, "abc"),
                         ["check failed: stored (3 missing)"])

    def test_missing_unexpected_and_mislabelled_metrics(self):
        result = driver_result(self.expected)
        del result["metrics"]["wall_s"]
        result["metrics"]["events_per_s"]["unit"] = "Hz"
        result["metrics"]["extra"] = {"value": 1, "unit": "s"}
        problems = run.evaluate(result, self.expected, "abc")
        self.assertIn("missing metric wall_s", problems)
        self.assertIn("unexpected metric extra", problems)
        self.assertIn("metric events_per_s has unit Hz, expected 1/s", problems)

    def test_non_finite_value_is_a_problem(self):
        result = driver_result(self.expected)
        result["metrics"]["wall_s"]["value"] = None
        self.assertEqual(run.evaluate(result, self.expected, "abc"),
                         ["metric wall_s has no finite value"])


class ResultLineTest(unittest.TestCase):
    def test_keys_order_and_units(self):
        expected = [("b", "s"), ("a", "1/s")]
        metrics = {"a": {"value": 2.0, "unit": "1/s"}, "b": {"value": 0.25, "unit": "s"}}
        line = json.loads(run.result_line(True, 10, 0, metrics, expected))
        self.assertEqual(list(line), ["correct", "attempted", "failed", "metrics"])
        self.assertEqual(list(line["metrics"]), ["b", "a"])
        self.assertEqual(line["metrics"]["b"], {"value": 0.25, "unit": "s"})
        self.assertIs(line["correct"], True)

    def test_values_keep_every_digit(self):
        metrics = {"x": {"value": 0.1234567890123456, "unit": "s"}}
        line = run.result_line(True, 1, 0, metrics, [("x", "s")])
        self.assertIn("0.1234567890123456", line)


class NamesTest(unittest.TestCase):
    def test_metric_names(self):
        for good in ("setup_s", "soma.store.map.append_ns", "9lives", "a-b"):
            self.assertTrue(run.NAME_RE.match(good), good)
        for bad in ("", "_x", ".x", "a b", "a/b", "x" * 65):
            self.assertFalse(run.NAME_RE.match(bad), bad)

    def test_units(self):
        for good in ("s", "ms", "1/s", "%", "count", "MB"):
            self.assertTrue(run.UNIT_RE.match(good), good)
        for bad in ("", "a b", "x" * 17):
            self.assertFalse(run.UNIT_RE.match(bad), bad)


class BenchmarkJsonTest(unittest.TestCase):
    def test_shape(self):
        b = benchmark()
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        names = [w["name"] for w in b["workloads"]]
        for group in ("end_to_end", "per_layer"):
            for m in b[group]:
                names.append(m["name"])
                self.assertTrue(run.NAME_RE.match(m["name"]), m["name"])
                self.assertTrue(run.UNIT_RE.match(m["unit"]), m["unit"])
                self.assertIn(m["better"], ("lower", "higher"))
        self.assertEqual(len(names), len(set(names)), "names are used once")
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)

    def test_end_to_end_bounds_and_setup(self):
        metrics = {m["name"]: m for m in benchmark()["end_to_end"]}
        self.assertEqual(metrics["setup_s"]["unit"], "s")
        self.assertEqual(metrics["setup_s"]["better"], "lower")
        for m in metrics.values():
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        self.assertEqual(metrics["setup_s"]["bound"],
                         max(m["bound"] for m in metrics.values()))

    def test_reference_covers_every_workload(self):
        reference = run.load_json(run.REFERENCE_JSON)
        self.assertEqual(set(reference["digests"]),
                         {w["name"] for w in benchmark()["workloads"]})

    def test_paths_hold_this_directory(self):
        b = benchmark()
        here = os.path.relpath(run.BENCH_DIR, run.ROOT)
        self.assertIn(here, b["paths"])
        self.assertEqual(b["command"][1], here + "/run.py")


if __name__ == "__main__":
    unittest.main()
