#!/usr/bin/env python3
"""Self-test for bench_ab.py: the bound check in both metric directions,
the paired win count over seeds both sides ran, the base's quartile gap,
and when an earlier extracted tree is reused (ctest `bench_ab_selftest`).
Runs no benchmark and needs no git checkout.

No dependencies beyond the standard library.
"""

from __future__ import annotations

import io
import pathlib
import subprocess
import sys
import tarfile
import tempfile
import unittest
from unittest import mock

sys.dont_write_bytecode = True  # keep the source tree free of caches
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import bench_ab  # noqa: E402

LOWER = {"name": "wall_s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "events_per_s", "better": "higher", "bound": 0.1}


class CompareTest(unittest.TestCase):
    def test_gain_is_negative_worse_and_counts_wins(self):
        r = bench_ab.compare(LOWER, {1: 4.0, 2: 4.1, 3: 3.9, 4: 4.2, 5: 4.0},
                             {1: 1.3, 2: 1.2, 3: 1.3, 4: 1.4, 5: 1.2})
        self.assertAlmostEqual(r["base"], 4.0)
        self.assertAlmostEqual(r["change"], 1.3)
        self.assertAlmostEqual(r["worse"], -0.675)
        self.assertFalse(r["violated"])
        self.assertEqual((r["wins"], r["pairs"]), (5, 5))

    def test_regression_beyond_bound_is_violated(self):
        r = bench_ab.compare(LOWER, {1: 1.0, 2: 1.0, 3: 1.0},
                             {1: 1.3, 2: 1.3, 3: 1.2})
        self.assertAlmostEqual(r["worse"], 0.3)
        self.assertTrue(r["violated"])
        self.assertEqual(r["wins"], 0)

    def test_regression_within_bound_passes(self):
        r = bench_ab.compare(LOWER, {1: 1.0, 2: 1.0, 3: 1.0},
                             {1: 1.2, 2: 1.2, 3: 1.2})
        self.assertFalse(r["violated"])

    def test_higher_is_better_direction(self):
        r = bench_ab.compare(HIGHER, {1: 100.0, 2: 100.0}, {1: 80.0, 2: 80.0})
        self.assertAlmostEqual(r["worse"], 0.2)
        self.assertTrue(r["violated"])
        r = bench_ab.compare(HIGHER, {1: 100.0, 2: 100.0}, {1: 120.0, 2: 95.0})
        self.assertFalse(r["violated"])
        self.assertEqual(r["wins"], 1)

    def test_wins_count_only_seeds_both_sides_ran(self):
        # Seed 2 failed on the change side and seed 3 on the base side: a
        # positional pairing would set base seed 3 against change seed 4.
        r = bench_ab.compare(LOWER, {1: 2.0, 2: 1.0, 4: 2.0},
                             {1: 1.5, 3: 0.5, 4: 2.5})
        self.assertEqual((r["wins"], r["pairs"]), (1, 2))
        self.assertAlmostEqual(r["base"], 2.0)
        self.assertAlmostEqual(r["change"], 1.5)

    def test_quartile_gap(self):
        self.assertEqual(bench_ab.quartile_gap([3.0]), 0.0)
        self.assertAlmostEqual(bench_ab.quartile_gap([1.0, 2.0, 3.0, 4.0, 5.0]),
                               2.0)


def fake_archive(commit: str) -> bytes:
    """A tar stream holding one file that names `commit`."""
    data = commit.encode()
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as tar:
        info = tarfile.TarInfo("tree.txt")
        info.size = len(data)
        tar.addfile(info, io.BytesIO(data))
    return buf.getvalue()


class ExtractTest(unittest.TestCase):
    """extract() with `git archive` replaced by a one-file stand-in."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dest = pathlib.Path(self.tmp.name) / "base"
        self.archives = []
        real_run = subprocess.run

        def run(cmd, *args, **kwargs):
            if cmd[0] == "git":
                self.archives.append(cmd[-1])
                return subprocess.CompletedProcess(cmd, 0,
                                                   fake_archive(cmd[-1]))
            return real_run(cmd, *args, **kwargs)

        patcher = mock.patch.object(bench_ab.subprocess, "run", run)
        patcher.start()
        self.addCleanup(patcher.stop)
        self.addCleanup(self.tmp.cleanup)

    def test_same_commit_is_reused(self):
        bench_ab.extract("a" * 40, self.dest)
        (self.dest / "build-output").write_text("kept")
        bench_ab.extract("a" * 40, self.dest)
        self.assertEqual(self.archives, ["a" * 40])
        self.assertTrue((self.dest / "build-output").exists())

    def test_other_commit_is_extracted_again(self):
        bench_ab.extract("a" * 40, self.dest)
        (self.dest / "build-output").write_text("stale")
        bench_ab.extract("b" * 40, self.dest)
        self.assertEqual(self.archives, ["a" * 40, "b" * 40])
        self.assertFalse((self.dest / "build-output").exists())
        self.assertEqual((self.dest / "tree.txt").read_text(), "b" * 40)
        self.assertEqual(bench_ab.extracted_commit(self.dest), "b" * 40)

    def test_foreign_directory_is_refused(self):
        self.dest.mkdir()
        with self.assertRaises(SystemExit):
            bench_ab.extract("a" * 40, self.dest)
        self.assertEqual(self.archives, [])


if __name__ == "__main__":
    unittest.main()
