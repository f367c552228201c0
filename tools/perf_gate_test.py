#!/usr/bin/env python3
"""perf_gate.compare on synthetic runs (ctest perf_gate_compare)."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_gate  # noqa: E402

# Ten runs of two legs around fixed rates, each pair a little noisy.
NOISE = [1.00, 0.97, 1.03, 0.99, 1.02, 0.98, 1.01, 1.00, 0.96, 1.04]
RATES = {"BM_FullMachine/0": 8.0e6, "BM_Functional/0": 2.0e8}


def runs(scale=None):
    """Ten runs, leg L's rates multiplied by scale[L] (default 1)."""
    scale = scale or {}
    return [{leg: rate * n * scale.get(leg, 1.0)
             for leg, rate in RATES.items()} for n in NOISE]


class Compare(unittest.TestCase):
    def test_thirty_percent_drop_fails_and_names_the_leg(self):
        legs, failed = perf_gate.compare(
            runs(), runs({"BM_FullMachine/0": 0.70}))
        self.assertEqual(failed, ["BM_FullMachine/0"])
        self.assertEqual(legs["BM_FullMachine/0"]["wins"], 0)
        self.assertIn("BM_FullMachine/0: base",
                      perf_gate.report(legs, failed))
        self.assertIn("FAIL", perf_gate.report(legs, failed))

    def test_ten_percent_drop_passes(self):
        legs, failed = perf_gate.compare(
            runs(), runs({"BM_FullMachine/0": 0.90,
                          "BM_Functional/0": 0.90}))
        self.assertEqual(failed, [])
        self.assertAlmostEqual(
            legs["BM_Functional/0"]["head"] / legs["BM_Functional/0"]["base"],
            0.90)

    def test_leg_on_one_side_is_reported_and_does_not_fail(self):
        head = runs()
        for r in head:
            r["BM_FullMachine/1"] = 1.0  # far below any base: not gated
            del r["BM_Functional/0"]
        legs, failed = perf_gate.compare(runs(), head)
        self.assertEqual(failed, [])
        self.assertEqual(legs["BM_FullMachine/1"], {"only": "head"})
        self.assertEqual(legs["BM_Functional/0"], {"only": "base"})
        text = perf_gate.report(legs, failed)
        self.assertIn("BM_FullMachine/1: only in head, not gated", text)
        self.assertIn("BM_Functional/0: only in base, not gated", text)

    def test_entry_records_both_sided_legs(self):
        legs, _ = perf_gate.compare(runs(), runs())
        e = perf_gate.entry(legs, sys.executable, sys.executable)
        self.assertEqual(set(e), {"commit", "base", "host", "legs"})
        leg = e["legs"]["BM_FullMachine/0"]
        self.assertEqual(set(leg), {"value", "unit", "reps", "median", "iqr"})
        self.assertEqual(leg["reps"], 10)
        self.assertEqual(leg["value"], leg["median"])
        self.assertGreater(leg["iqr"], 0)


if __name__ == "__main__":
    unittest.main()
