#!/usr/bin/env python3
"""Self-tests of the benchmark's statistics, span analysis and layer map.

    python3 perfbench/test_benchlib.py
"""

import statistics
import sys
import unittest

sys.dont_write_bytecode = True  # keep the source tree free of caches
import benchlib  # noqa: E402


class OrderStatistics(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(benchlib.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(benchlib.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
        q1, q2, q3 = benchlib.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        # The exclusive method on 1..10: positions 2.75, 5.5, 8.25.
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q2, 5.5)
        self.assertAlmostEqual(q3, 8.25)

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(benchlib.quartiles([4.0]), (4.0, 4.0, 4.0))
        self.assertEqual(benchlib.spread([4.0]), 0.0)

    def test_spread_is_iqr_over_median(self):
        values = [0.9, 1.0, 1.0, 1.0, 1.1]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(benchlib.spread(values), (q3 - q1) / q2)
        self.assertEqual(benchlib.spread([2.0, 2.0, 2.0]), 0.0)

    def test_percentile(self):
        values = list(range(1, 101))
        self.assertAlmostEqual(benchlib.percentile(values, 50), 50.5)
        self.assertAlmostEqual(benchlib.percentile(values, 90),
                               statistics.quantiles(values, n=100)[89])


def spans(rows):
    return benchlib.build_spans(rows)


class SelfTime(unittest.TestCase):
    def test_union_of_intervals(self):
        self.assertEqual(benchlib.covered([]), 0.0)
        self.assertAlmostEqual(benchlib.covered([(0, 1), (2, 3)]), 2.0)
        self.assertAlmostEqual(benchlib.covered([(0, 2), (1, 3)]), 3.0)
        self.assertAlmostEqual(benchlib.covered([(0, 4), (1, 2)]), 4.0)
        self.assertAlmostEqual(benchlib.covered([(2, 3), (0, 1), (0.5, 2.5)]),
                               3.0)

    def test_nested_spans(self):
        # solve [0, 10] > a [1, 6] > b [2, 4]; solve > c [7, 9]
        s = spans([[1, 0, 1, "solve", 0.0, 10.0],
                   [2, 1, 1, "core.solve_fixed_point", 1.0, 6.0],
                   [3, 2, 1, "spectral.spectral_stability", 2.0, 4.0],
                   [4, 1, 1, "sim.run_for", 7.0, 9.0]])
        self.assertAlmostEqual(benchlib.self_time(s[1]), 3.0)
        self.assertAlmostEqual(benchlib.self_time(s[2]), 3.0)
        self.assertAlmostEqual(benchlib.self_time(s[3]), 2.0)
        self.assertAlmostEqual(benchlib.self_time(s[4]), 2.0)
        layers = benchlib.layer_self_times(s[1])
        self.assertEqual(layers, {"unattributed": 3.0, "core": 3.0,
                                  "spectral": 2.0, "sim": 2.0})
        # Self times partition the root's wall time.
        self.assertAlmostEqual(sum(layers.values()), s[1].duration)

    def test_overlapping_children_from_worker_threads(self):
        # Two workers evaluate under one search span; their spans overlap.
        s = spans([[1, 0, 1, "solve", 0.0, 10.0],
                   [2, 1, 1, "search.cross_entropy_search", 0.0, 10.0],
                   [3, 2, 1, "search.evaluate", 1.0, 5.0],
                   [4, 2, 1, "search.evaluate", 2.0, 6.0],
                   [5, 2, 1, "search.evaluate", 8.0, 9.0]])
        self.assertAlmostEqual(benchlib.self_time(s[2]), 10.0 - 5.0 - 1.0)
        self.assertAlmostEqual(benchlib.self_time(s[1]), 0.0)
        # Per-layer sums count each worker's time: they may exceed wall.
        self.assertAlmostEqual(benchlib.layer_self_times(s[1])["search"],
                               4.0 + 4.0 + 4.0 + 1.0)

    def test_child_outside_parent_is_clipped(self):
        s = spans([[1, 0, 1, "solve", 0.0, 2.0],
                   [2, 1, 1, "core.model", 1.5, 3.0]])
        self.assertAlmostEqual(benchlib.self_time(s[1]), 1.5)

    def test_layer_names(self):
        self.assertEqual(benchlib.layer_of("solve"), "unattributed")
        self.assertEqual(benchlib.layer_of("core.solve_fixed_point"), "core")
        self.assertEqual(
            benchlib.layer_of("replay.linalg.iterative_eigenvalues"), "linalg")


class LayerMap(unittest.TestCase):
    def test_every_per_layer_metric_is_in_exactly_one_row(self):
        rows = benchlib.load_provenance()["layer_map"]
        mapped = [m for row in rows for m in row["metrics"] + row["replay"]]
        per_layer = [s["name"] for s in benchlib.load_benchmark()["per_layer"]]
        self.assertEqual(sorted(mapped), sorted(per_layer))

    def test_readme_shows_the_map_of_provenance_json(self):
        readme = (benchlib.HERE / "README.md").read_text()
        self.assertIn(benchlib.layer_map_table(benchlib.load_provenance()),
                      readme)


if __name__ == "__main__":
    unittest.main()
