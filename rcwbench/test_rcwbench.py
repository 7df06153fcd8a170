#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 rcwbench/test_rcwbench.py

Run from the repository root; builds the benchmark binary first (as run.py
does) and writes only under the build directory.
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        work = os.path.join(run.build_dir(), "work")
        os.makedirs(work, exist_ok=True)
        cls.tmp = tempfile.mkdtemp(prefix="test-", dir=work)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def gen(self, seed, name):
        out = os.path.join(self.tmp, name)
        os.makedirs(out)
        subprocess.run(
            [self.binary, "gen", "--seed", str(seed), "--out", out],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        return out

    def test_same_seed_gives_byte_identical_inputs(self):
        a = self.gen(5, "a")
        b = self.gen(5, "b")
        names = sorted(os.listdir(a))
        self.assertEqual(
            names,
            ["graph.rgx", "model.gnn", "pool.csv", "stream.rsu",
             "trace.rrt", "vt.csv", "witness.rcw"],
        )
        self.assertEqual(names, sorted(os.listdir(b)))
        for name in names:
            self.assertTrue(
                filecmp.cmp(os.path.join(a, name), os.path.join(b, name), shallow=False),
                name,
            )
        c = self.gen(6, "c")
        for name in names:
            self.assertFalse(
                filecmp.cmp(os.path.join(a, name), os.path.join(c, name), shallow=False),
                name,
            )

    def test_self_time_and_percentiles(self):
        subprocess.run([self.binary, "selftest"], check=True, stdout=subprocess.DEVNULL)

    def test_result_line_names_metrics_from_benchmark_json(self):
        with open(run.BENCHMARK_JSON) as f:
            bench = json.load(f)
        end_to_end = {m["name"]: 1.5 for m in bench["end_to_end"]}
        metrics = run.result_line(dict(end_to_end, **{"gnn.forward_calls": 7.0}), 0)
        self.assertEqual(list(metrics), [m["name"] for m in bench["end_to_end"]])
        self.assertEqual(metrics["setup_s"], {"value": 1.5, "unit": "s"})
        traced = run.result_line({"gnn.forward_calls": 7.0, "p50_ms": 2.0}, 1)
        self.assertEqual(list(traced), [m["name"] for m in bench["per_layer"]])
        self.assertEqual(traced["gnn.forward_calls"], {"value": 7, "unit": "count"})
        self.assertEqual(traced["stream.apply_ms"]["value"], 0)
        with self.assertRaises(ValueError):
            run.result_line(dict(end_to_end, bogus=1.0), 0)
        with self.assertRaises(ValueError):
            run.result_line({"p50_ms": 2.0}, 0)

if __name__ == "__main__":
    unittest.main()
