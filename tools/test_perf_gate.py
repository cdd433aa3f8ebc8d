#!/usr/bin/env python3
"""Unit tests of perf_gate.verdict over hand-made run.py results; they
need no perfbench build.

    python3 tools/test_perf_gate.py
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import perf_gate  # noqa: E402

SPECS = [
    {"name": "sim_ios_per_s", "better": "higher", "bound": 0.24},
    {"name": "run_s", "better": "lower", "bound": 0.24},
]


def run(sim_ios_per_s=100.0, run_s=10.0, correct=True, failed=0):
    return {"correct": correct, "attempted": 4, "failed": failed,
            "metrics": {"sim_ios_per_s": {"value": sim_ios_per_s},
                        "run_s": {"value": run_s}}}


def judge(base, tree):
    failures, rows = perf_gate.verdict(base, tree, SPECS)
    return failures, {row["name"]: row for row in rows}


class VerdictTest(unittest.TestCase):
    def test_identical_sides_pass(self):
        failures, rows = judge([run()] * 3, [run()] * 3)
        self.assertEqual(failures, [])
        self.assertEqual(rows["run_s"]["wins"], 0)

    def test_higher_is_better_just_inside_bound(self):
        failures, rows = judge([run()] * 3, [run(sim_ios_per_s=76.5)] * 3)
        self.assertEqual(failures, [])
        self.assertAlmostEqual(rows["sim_ios_per_s"]["worse"], 0.235)

    def test_higher_is_better_just_outside_bound(self):
        failures, rows = judge([run()] * 3, [run(sim_ios_per_s=75.5)] * 3)
        self.assertEqual(len(failures), 1)
        self.assertIn("sim_ios_per_s", failures[0])
        self.assertFalse(rows["sim_ios_per_s"]["ok"])
        self.assertTrue(rows["run_s"]["ok"])

    def test_lower_is_better_just_inside_bound(self):
        failures, _ = judge([run()] * 3, [run(run_s=12.35)] * 3)
        self.assertEqual(failures, [])

    def test_lower_is_better_just_outside_bound(self):
        failures, rows = judge([run()] * 3, [run(run_s=12.45)] * 3)
        self.assertEqual(len(failures), 1)
        self.assertIn("run_s", failures[0])
        self.assertFalse(rows["run_s"]["ok"])

    def test_improvement_passes_and_counts_wins(self):
        failures, rows = judge([run()] * 3,
                               [run(sim_ios_per_s=150, run_s=5)] * 3)
        self.assertEqual(failures, [])
        self.assertEqual(rows["sim_ios_per_s"]["wins"], 3)
        self.assertEqual(rows["run_s"]["wins"], 3)
        self.assertLess(rows["run_s"]["worse"], 0)

    def test_incorrect_run_fails_on_either_side(self):
        for side in ("base", "tree"):
            sides = {"base": [run()] * 3, "tree": [run()] * 3}
            sides[side] = [run(), run(correct=False), run()]
            failures, _ = judge(sides["base"], sides["tree"])
            self.assertEqual(len(failures), 1, side)
            self.assertIn("%s run 2 is not correct" % side, failures[0])

    def test_failed_scenario_fails_on_either_side(self):
        for side in ("base", "tree"):
            sides = {"base": [run()] * 3, "tree": [run()] * 3}
            sides[side] = [run(failed=1)] + [run()] * 2
            failures, _ = judge(sides["base"], sides["tree"])
            self.assertEqual(len(failures), 1, side)
            self.assertIn("%s run 1" % side, failures[0])
            self.assertIn("1 failed", failures[0])

    def test_missing_metric_fails_loudly(self):
        partial = run()
        del partial["metrics"]["run_s"]
        failures, rows = judge([run()] * 3, [run(), partial, run()])
        self.assertEqual(failures, ["run_s: missing from a run's metrics"])
        self.assertNotIn("run_s", rows)

    def test_median_of_even_run_count(self):
        base = [run(sim_ios_per_s=v) for v in (90, 100, 110, 1000)]
        tree = [run(sim_ios_per_s=v) for v in (70, 80, 80, 80)]
        failures, rows = judge(base, tree)
        row = rows["sim_ios_per_s"]
        self.assertEqual(row["base"], 105.0)
        self.assertEqual(row["tree"], 80.0)
        # (105 - 80) / 105 = 23.8%: inside the bound only because the
        # median averages the two middle runs.
        self.assertAlmostEqual(row["worse"], 25 / 105)
        self.assertEqual(failures, [])
        self.assertEqual(row["pairs"], 4)

    def test_base_iqr(self):
        base = [run(sim_ios_per_s=v) for v in (90, 100, 110)]
        _, rows = judge(base, [run()] * 3)
        self.assertEqual(rows["sim_ios_per_s"]["base_iqr"], 20.0)
        _, rows = judge([run()], [run()])
        self.assertEqual(rows["sim_ios_per_s"]["base_iqr"], 0.0)


if __name__ == "__main__":
    unittest.main()
