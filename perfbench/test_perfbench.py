#!/usr/bin/env python3
"""Tests of the benchmark itself: the percentile rule, span self-time
arithmetic, the metric names against BENCHMARK.json, and the correctness
gate end to end (this last part builds the runner on first use).

    python3 perfbench/test_perfbench.py
"""

import json
import os
import pathlib
import subprocess
import sys
import unittest

import report

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def span(id_, parent, name, start, end, request=0):
    return [id_, parent, request, name, start, end]


class PercentileRule(unittest.TestCase):
    def test_median_needs_ten_samples_beyond_it(self):
        self.assertEqual(report.percentile(list(range(19)), 0.5), (None, 19))
        self.assertEqual(report.percentile(list(range(20)), 0.5), (9.5, 20))

    def test_p90_needs_a_hundred_samples(self):
        self.assertIsNone(report.percentile(list(range(99)), 0.9)[0])
        # Nearest rank ceil(0.9 * 100) = 90, the value 89; ten lie beyond.
        self.assertEqual(report.percentile(list(range(100)), 0.9), (89, 100))

    def test_p99_needs_a_thousand_samples(self):
        self.assertIsNone(report.percentile(list(range(999)), 0.99)[0])
        values = list(range(1000))[::-1]  # order must not matter
        self.assertEqual(report.percentile(values, 0.99), (989, 1000))

    def test_empty(self):
        self.assertEqual(report.percentile([], 0.5), (None, 0))


class SpanSelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(report.self_times([span(1, 0, "a", 5, 25)]), {1: 20})

    def test_children_are_subtracted_once_where_they_overlap(self):
        spans = [
            span(1, 0, "request", 0, 100),
            span(2, 1, "api.prepare", 10, 30),
            span(3, 1, "ra.execute", 20, 50),    # overlaps the prepare
            span(4, 1, "late", 90, 120),         # runs past its parent
            span(5, 2, "inner", 12, 18),         # a grandchild
        ]
        selfs = report.self_times(spans)
        # Children cover [10, 50) and [90, 100): 50 of the parent's 100.
        self.assertEqual(selfs[1], 50)
        self.assertEqual(selfs[2], 20 - 6)
        self.assertEqual(selfs[3], 30)
        self.assertEqual(selfs[4], 30)
        self.assertEqual(selfs[5], 6)

    def test_layer_metric_is_the_median_self_time(self):
        spans = [
            span(1, 0, "request", 0, 10_000),
            span(2, 1, "ra.execute", 0, 3_000),
            span(3, 0, "request", 10_000, 20_000),
            span(4, 3, "ra.execute", 10_000, 15_000),
            span(5, 0, "ra.execute", 20_000, 27_000),
        ]
        selfs = report.self_times(spans)
        self.assertEqual(report.layer_self(spans, selfs, "ra.execute", 1e3),
                         (5.0, 3))
        self.assertEqual(report.layer_self(spans, selfs, "request", 1e3),
                         (6.0, 2))
        self.assertEqual(report.layer_self(spans, selfs, "none", 1e3),
                         (None, 0))


def raw_document(reads=40, writes=120):
    return {
        "attempted": reads + writes, "failed": 0, "failures": [],
        "setup_s": [0.3, 0.1, 0.2],
        "passes": [[0, reads // 2, 1.0], [1, reads - reads // 2, 1.0]],
        # [ms, traced, hit, rows, rows_processed, mem_peak_bytes, query]
        "reads": [[float(i + 1), i % 2, 1, 10, 30, 2**20 * i, 0]
                  for i in range(reads)],
        "writes": [[float(i), 0, 1] for i in range(writes)],
        "plan_cache": {"hits": 3, "misses": 1, "evictions": 0},
        "peak_rss_kb": 2048,
        "spans": [], "queries": [],
    }


class Metrics(unittest.TestCase):
    def test_end_to_end(self):
        m = report.end_to_end(raw_document())
        self.assertEqual(m["setup_s"]["value"], 0.2)
        self.assertEqual(m["ops_per_s"]["value"], 20.0)
        self.assertEqual(m["query_p50_ms"]["value"], 20.5)
        self.assertIsNone(m["query_p99_ms"]["value"])  # 40 reads only
        self.assertEqual(m["write_p90_ms"]["samples"], 120)
        self.assertEqual(m["peak_rss_mb"]["value"], 2.0)
        self.assertEqual(m["failed_share"]["value"], 0)

    def test_per_layer_counts_only_traced_reads(self):
        m = report.per_layer(raw_document())
        self.assertEqual(m["ra.rows_per_result"]["value"], 3.0)
        self.assertEqual(m["ra.exec_peak_mb"]["value"], 39.0)
        self.assertEqual(m["api.plan_cache_hit_ratio"]["value"], 0.75)


class BenchmarkJson(unittest.TestCase):
    def test_names_match(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        e2e = report.end_to_end(raw_document())
        e2e.pop("failed_share")
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(e2e))
        for m in spec["end_to_end"]:
            self.assertEqual(m["unit"], e2e[m["name"]]["unit"])
        layers = report.per_layer(raw_document())
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(layers))
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], layers[m["name"]]["unit"])
        sys.path.insert(0, str(HERE))
        import run
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))


def run_bench(workload, *extra, env=None):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", "0", *extra],
        cwd=ROOT, capture_output=True, text=True, env=env)


class CorrectnessGate(unittest.TestCase):
    """Runs the runner: a wrong row fails the run, a clean run passes."""

    def check(self, workload):
        done = run_bench(workload)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        result = json.loads(done.stdout.splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

        broken = run_bench(workload, "--break-gate")
        self.assertEqual(broken.returncode, 3, broken.stderr[-2000:])
        result = json.loads(broken.stdout.splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("FAILED gate", broken.stdout)

    def test_yago_adhoc(self):
        self.check("yago_adhoc")

    def test_ldbc_repeat(self):
        self.check("ldbc_repeat")

    def test_yago_rw_checks_reads_between_inserts(self):
        self.check("yago_rw")
        # The first template reads livesIn, so its timed reads are checked
        # after the run against the warm-up and final counts.
        broken = run_bench("yago_rw", "--break-gate")
        self.assertIn("FAILED read Y1", broken.stdout)

    def test_refuses_library_knobs(self):
        env = dict(os.environ, GQOPT_DOP="1")
        done = run_bench("ldbc_repeat", env=env)
        self.assertEqual(done.returncode, 2)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
