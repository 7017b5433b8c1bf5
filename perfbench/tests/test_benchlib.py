"""Unit tests for the benchmark's statistics helpers and metric catalog.

Run from the root of the checkout:
  python3 -m unittest discover perfbench/tests
"""

import json
import math
import statistics
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
import benchlib  # noqa: E402


def span(id_, parent, name, start, end, cpu=0, run=0):
    return {"id": id_, "parent": parent, "run": run, "name": name,
            "start_ns": start, "end_ns": end, "cpu_ns": cpu}


class PercentileRuleTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(10, 0, -1))  # order must not matter
        self.assertEqual(benchlib.percentile(values, 50), 5)
        self.assertEqual(benchlib.percentile(values, 90), 9)
        self.assertEqual(benchlib.percentile(values, 100), 10)
        self.assertEqual(benchlib.percentile(values, 0), 1)
        self.assertEqual(benchlib.percentile([], 50), 0.0)

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        # The sample counts the benchmark reports: evaluate_day (30),
        # cache-on sessions (48), all sessions (168).
        self.assertEqual(benchlib.tail_percentile(30), 66)
        self.assertEqual(benchlib.tail_percentile(48), 75)
        self.assertEqual(benchlib.tail_percentile(168), 90)
        self.assertEqual(benchlib.tail_percentile(2000), 99)
        self.assertEqual(benchlib.tail_percentile(20), 50)
        self.assertIsNone(benchlib.tail_percentile(19))

    def test_tail_percentile_is_the_highest_that_qualifies(self):
        ladder = benchlib.TAIL_LADDER
        for n in range(20, 3000, 7):
            p = benchlib.tail_percentile(n)
            rank = math.ceil(p / 100 * n)
            self.assertGreaterEqual(n - rank, 10, n)
            for higher in ladder[:ladder.index(p)]:
                self.assertLess(n - math.ceil(higher / 100 * n), 10, n)

    def test_named_tail_metrics_follow_the_rule(self):
        named = {"core.evaluate_day_ms.p66": 30, "sim.session_ms.p90": 168,
                 "cache.session_ms.p75": 48}
        catalog = [n for n, _, _ in benchlib.per_layer_catalog()]
        for name, samples in named.items():
            self.assertIn(name, catalog)
            p = int(name.rsplit(".p", 1)[1])
            self.assertEqual(benchlib.tail_percentile(samples), p)


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.6, 5.3, 5.8, 9.7]
        self.assertEqual(benchlib.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_iqr_share(self):
        # quantiles([1..5], n=4) = [1.5, 3.0, 4.5]
        self.assertAlmostEqual(benchlib.iqr_share([1, 2, 3, 4, 5]), 1.0)
        self.assertEqual(benchlib.iqr_share([2.0, 2.0, 2.0]), 0.0)

    def test_single_value(self):
        self.assertEqual(benchlib.quartiles([7.0]), (7.0, 7.0, 7.0))
        self.assertEqual(benchlib.iqr_share([7.0]), 0.0)


class SelfTimeTest(unittest.TestCase):
    def test_nested_children(self):
        spans = [span(1, 0, "run", 0, 100),
                 span(2, 1, "routing.fib_replay", 10, 40),
                 span(3, 2, "trace.next_batch", 20, 30),
                 span(4, 1, "des.engine_run", 50, 90)]
        self.assertEqual(benchlib.self_times(spans),
                         {1: 30, 2: 20, 3: 10, 4: 40})

    def test_children_clipped_and_counted_once(self):
        spans = [span(1, 0, "run", 0, 100),
                 span(2, 1, "a.x", 80, 120),   # runs past its parent
                 span(3, 1, "a.y", 85, 95)]    # overlaps its sibling
        self.assertEqual(benchlib.self_times(spans)[1], 80)

    def test_ledger_and_coverage(self):
        spans = [span(1, 0, "run", 0, 1000, cpu=1000),
                 span(2, 1, "trace.next_batch_pass", 0, 300, cpu=600),
                 span(3, 2, "trace.next_batch", 100, 200, cpu=100),
                 span(4, 1, "routing.fib_replay", 300, 900, cpu=600),
                 span(5, 4, "trace.next_batch", 300, 500, cpu=200),
                 span(6, 4, "routing.lookup_many", 500, 850, cpu=350)]
        view = benchlib.RunView(spans, {}, threads=2)
        ledger = view.ledger()
        self.assertAlmostEqual(ledger["trace"]["self_ms"], 500 / 1e6)
        # trace.next_batch inside trace.next_batch_pass is not re-counted.
        self.assertAlmostEqual(ledger["trace"]["total_ms"], 500 / 1e6)
        self.assertEqual(ledger["trace"]["calls"], 3)
        self.assertAlmostEqual(ledger["routing"]["self_ms"], 400 / 1e6)
        self.assertAlmostEqual(ledger["routing"]["total_ms"], 600 / 1e6)
        self.assertAlmostEqual(view.coverage(), 0.9)
        self.assertAlmostEqual(view.cpu_util("trace.next_batch_pass"), 1.0)


class MetricTest(unittest.TestCase):
    def record(self, probe):
        run = {"id": 1, "traced": False, "wall_s": 2.5, "cpu_s": 6.0,
               "probe_s": probe, "steal_s": 0.5, "counts": {}}
        return {"setups": [{"seconds": 1.0, "probe_s": probe, "steal_s": 0.0,
                            "values": {}, "warmups": [dict(run, id=0)]}],
                "runs": [run],
                "peak_rss_mib": 100.0, "threads": 4, "probe": "alu"}

    def test_end_to_end_at_reference_speed(self):
        ref = benchlib.PROBE_REF_S["alu"]
        e2e = benchlib.end_to_end(self.record(ref))
        self.assertEqual(e2e, {"setup_s": 3.0, "wall_s": 2.0, "cpu_s": 6.0,
                               "peak_rss_mib": 100.0})
        # Steal is not the program's time; a machine running at half
        # speed reads the same.
        slow = benchlib.end_to_end(self.record(2 * ref))
        self.assertAlmostEqual(slow["wall_s"], 1.0)
        self.assertAlmostEqual(slow["setup_s"], 1.5)

    def test_end_to_end_takes_the_fastest_pass(self):
        record = self.record(benchlib.PROBE_REF_S["alu"])
        run = record["runs"][0]
        record["runs"] = [dict(run, id=1, wall_s=3.5, cpu_s=7.0),
                          dict(run, id=2),
                          dict(run, id=3, wall_s=9.0, cpu_s=5.0, traced=True)]
        e2e = benchlib.end_to_end(record)
        # Traced passes never count.
        self.assertEqual((e2e["wall_s"], e2e["cpu_s"]), (2.0, 6.0))

    def test_setup_s_is_the_median_set_up_with_its_warm_up(self):
        record = self.record(benchlib.PROBE_REF_S["alu"])
        setup = record["setups"][0]
        warm = setup["warmups"][0]
        record["setups"] = [dict(setup, warmups=[dict(warm, wall_s=w)])
                            for w in (2.5, 10.5, 3.5)]
        # 1 s building plus 2, 10 and 3 s warm-up passes without steal.
        self.assertEqual(benchlib.end_to_end(record)["setup_s"], 4.0)

    def test_diff_reports(self):
        a = {"layers": {"des": {"self_ms": 100.0, "total_ms": 100.0,
                                "calls": 1}},
             "coverage": 0.99, "untraced_wall_s": 1.0,
             "metrics": {"des.engine_run_s": {"value": 0.1, "unit": "s"}}}
        b = json.loads(json.dumps(a))
        b["layers"]["des"]["self_ms"] = 80.0
        b["metrics"]["des.engine_run_s"]["value"] = 0.08
        text = "\n".join(benchlib.diff_reports(a, b))
        self.assertIn("-20.0%", text)
        self.assertIn("des.engine_run_s", text)


class BenchmarkJsonTest(unittest.TestCase):
    """BENCHMARK.json and the code must name the same metrics."""

    def setUp(self):
        path = HERE.parent.parent / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("no BENCHMARK.json next to perfbench/")
        self.spec = json.loads(path.read_text())

    def test_workloads(self):
        self.assertEqual(
            [(w["name"], w["why"]) for w in self.spec["workloads"]],
            [(n, w["why"]) for n, w in benchlib.WORKLOADS.items()])

    def test_end_to_end(self):
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"])
             for m in self.spec["end_to_end"]],
            [tuple(m) for m in benchlib.END_TO_END])

    def test_per_layer(self):
        self.assertEqual(
            [(m["name"], m["unit"], m["better"])
             for m in self.spec["per_layer"]],
            benchlib.per_layer_catalog())


if __name__ == "__main__":
    unittest.main()
