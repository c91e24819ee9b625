#!/usr/bin/env python3
"""scripts/ab.py's verdict rule on fixed samples, and its argument checks.

    python3 tests/test_ab.py
"""

import importlib.util
import subprocess
import sys
import unittest
from pathlib import Path

AB = Path(__file__).resolve().parent.parent / "scripts" / "ab.py"
spec = importlib.util.spec_from_file_location("ab", AB)
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

# Median 104.5, quartiles 102.25 and 106.75: IQR 4.5, 4.3% of the median.
BASE = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


def shifted(delta, flips=0):
    """BASE moved by delta; the first `flips` pairs move by -delta instead."""
    return [b - delta if i < flips else b + delta for i, b in enumerate(BASE)]


class Verdict(unittest.TestCase):
    def test_nine_of_ten_wins_beyond_the_iqr_is_a_gain(self):
        self.assertEqual(ab.verdict(BASE, shifted(-10, flips=1), "lower", 0.25), "gain")
        self.assertEqual(ab.verdict(BASE, shifted(-10, flips=2), "lower", 0.25), "same")

    def test_nine_of_ten_losses_beyond_the_iqr_is_a_loss(self):
        self.assertEqual(ab.verdict(BASE, shifted(10, flips=1), "lower", 0.25), "loss")
        self.assertEqual(ab.verdict(BASE, shifted(-10, flips=1), "higher", 0.25), "loss")

    def test_a_median_gap_inside_the_iqr_is_no_gain(self):
        self.assertEqual(ab.verdict(BASE, shifted(-4), "lower", 0.25), "same")

    def test_ties_count_for_neither_side(self):
        change = shifted(-10)
        change[0], change[1] = BASE[0], BASE[1]
        self.assertEqual(ab.score(BASE, change, "lower"), (8, 0))
        self.assertEqual(ab.verdict(BASE, change, "lower", 0.25), "same")
        change[1] = BASE[1] - 10
        self.assertEqual(ab.score(BASE, change, "lower"), (9, 0))
        self.assertEqual(ab.verdict(BASE, change, "lower", 0.25), "gain")

    def test_a_median_worse_by_more_than_the_bound_is_a_regression(self):
        slower = [b * 1.3 for b in BASE]
        self.assertEqual(ab.verdict(BASE, slower, "lower", 0.25), "regression")
        self.assertEqual(ab.verdict(BASE, slower, "higher", 0.25), "gain")
        self.assertEqual(ab.verdict(BASE, [b * 0.7 for b in BASE], "higher", 0.25),
                         "regression")
        self.assertEqual(ab.verdict(BASE, [b * 1.2 for b in BASE], "lower", 0.25), "loss")

    def test_a_spread_wider_than_the_bound_is_unresolved(self):
        # Median 150, IQR 75: half the median, twice the bound.
        wide = [100.0, 100.0, 100.0, 150.0, 150.0, 150.0, 150.0, 200.0, 200.0, 200.0]
        self.assertEqual(ab.verdict(wide, wide, "lower", 0.25), "unresolved")
        self.assertEqual(ab.verdict(wide, wide, "higher", 0.25), "unresolved")
        # Every change run beats every base run, by less than the IQR.
        self.assertEqual(ab.verdict(wide, [99.0] * 10, "lower", 0.25), "same")
        self.assertEqual(ab.verdict(wide, [201.0] * 10, "higher", 0.25), "same")


class Arguments(unittest.TestCase):
    def check_usage(self, *args):
        r = subprocess.run([sys.executable, "-B", str(AB), *args],
                           capture_output=True, text=True)
        self.assertEqual(r.returncode, 2, r.stderr)
        self.assertIn("usage: scripts/ab.py <base-rev> [workload...]", r.stderr)

    def test_no_argument(self):
        self.check_usage()

    def test_unknown_workload(self):
        self.check_usage("HEAD", "fct_dumbbell", "no_such_workload")


if __name__ == "__main__":
    unittest.main()
