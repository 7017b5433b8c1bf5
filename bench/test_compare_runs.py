#!/usr/bin/env python3
"""Unit tests for compare_runs.py's gate and its one-line diagnostics:
the schema_version mismatch check alongside the existing missing-file /
unparseable-JSON / non-record paths, and the informational listing of
metric counters that differ. Stdlib only; registered in ctest as
`compare_runs_py` (label des)."""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "compare_runs.py")


def record(name="scale_million_users", schema=1, results=None, threads=1,
           counters=None):
    out = {
        "name": name,
        "schema_version": schema,
        "config": {"threads": threads},
        "results": results if results is not None else {"packet_digest": 7},
        "phases": [{"phase": "packet", "wall_ms": 10.0}],
    }
    if counters is not None:
        out["metrics"] = {"counters": counters, "gauges": {}, "histograms": {}}
    return out


class CompareRunsTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def path(self, name, payload):
        path = os.path.join(self._dir.name, name)
        with open(path, "w", encoding="utf-8") as fh:
            if isinstance(payload, str):
                fh.write(payload)
            else:
                json.dump(payload, fh)
        return path

    def run_compare(self, *argv):
        return subprocess.run(
            [sys.executable, SCRIPT, *argv],
            capture_output=True,
            text=True,
        )

    def test_identical_records_pass(self):
        a = self.path("a.json", record())
        b = self.path("b.json", record(threads=8))
        proc = self.run_compare(a, b)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("headline results identical", proc.stdout)

    def test_headline_drift_fails(self):
        a = self.path("a.json", record(results={"packet_digest": 7}))
        b = self.path("b.json", record(results={"packet_digest": 8}))
        proc = self.run_compare(a, b)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("HEADLINE DRIFT", proc.stdout)

    def test_timing_keys_are_not_gated(self):
        a = self.path(
            "a.json",
            record(results={"packet_digest": 7,
                            "des_conservative_events_per_sec": 1e6}),
        )
        b = self.path(
            "b.json",
            record(results={"packet_digest": 7,
                            "des_conservative_events_per_sec": 2e6}),
        )
        proc = self.run_compare(a, b)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("informational", proc.stdout)

    def test_counter_drift_is_listed_but_not_gated(self):
        a = self.path(
            "a.json",
            record(counters={"lina.des.rollbacks": 2371,
                             "lina.sim.fabric.next_hop_queries": 9,
                             "lina.sim.session.runs": 120}),
        )
        b = self.path(
            "b.json",
            record(counters={"lina.sim.fabric.next_hop_queries": 7,
                             "lina.sim.resolver.updates": 965,
                             "lina.sim.session.runs": 120}),
        )
        proc = self.run_compare(a, b)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("headline results identical", proc.stdout)
        self.assertIn("metric counters that differ", proc.stdout)
        self.assertIn("lina.des.rollbacks: 2371 -> '-'", proc.stdout)
        self.assertIn("lina.sim.fabric.next_hop_queries: 9 -> 7", proc.stdout)
        self.assertIn("lina.sim.resolver.updates: '-' -> 965", proc.stdout)
        self.assertNotIn("lina.sim.session.runs", proc.stdout)

    def test_equal_or_absent_counters_print_no_drift(self):
        same = {"lina.sim.session.runs": 120}
        for base, cand in ((record(counters=same), record(counters=same)),
                           (record(), record())):
            proc = self.run_compare(self.path("a.json", base),
                                    self.path("b.json", cand))
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
            self.assertNotIn("metric counters", proc.stdout)

    def test_counter_drift_does_not_hide_headline_drift(self):
        a = self.path("a.json", record(results={"packet_digest": 7},
                                       counters={"lina.x": 1}))
        b = self.path("b.json", record(results={"packet_digest": 8},
                                       counters={"lina.x": 2}))
        proc = self.run_compare(a, b)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("lina.x: 1 -> 2", proc.stdout)
        self.assertIn("HEADLINE DRIFT", proc.stdout)

    def test_schema_version_mismatch_is_one_line_diagnostic(self):
        a = self.path("a.json", record(schema=1))
        b = self.path("b.json", record(schema=2))
        proc = self.run_compare(a, b)
        self.assertNotEqual(proc.returncode, 0)
        message = proc.stderr.strip()
        self.assertEqual(len(message.splitlines()), 1, message)
        self.assertIn("schema_version mismatch", message)
        # Both versions and the stale file must be named.
        self.assertIn("1", message)
        self.assertIn("2", message)
        self.assertIn(os.path.basename(a), message)
        # The mismatch must NOT fall through to the key-by-key diff.
        self.assertNotIn("HEADLINE DRIFT", proc.stdout)

    def test_absent_schema_version_on_one_side_mismatches(self):
        stale = record()
        del stale["schema_version"]
        a = self.path("a.json", stale)
        b = self.path("b.json", record(schema=1))
        proc = self.run_compare(a, b)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("schema_version mismatch", proc.stderr)

    def test_missing_file_diagnostic(self):
        a = self.path("a.json", record())
        missing = os.path.join(self._dir.name, "nope.json")
        proc = self.run_compare(a, missing)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(len(proc.stderr.strip().splitlines()), 1)
        self.assertIn("cannot read run record", proc.stderr)

    def test_unparseable_json_diagnostic(self):
        a = self.path("a.json", record())
        b = self.path("b.json", "{not json")
        proc = self.run_compare(a, b)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("not valid JSON", proc.stderr)

    def test_non_record_json_diagnostic(self):
        a = self.path("a.json", record())
        b = self.path("b.json", {"name": "x", "results": {}})  # no phases
        proc = self.run_compare(a, b)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("missing 'phases'", proc.stderr)
        proc = self.run_compare(a, self.path("c.json", [1, 2]))
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("top level is not an object", proc.stderr)

    def test_different_bench_names_refused(self):
        a = self.path("a.json", record(name="bench_a"))
        b = self.path("b.json", record(name="bench_b"))
        proc = self.run_compare(a, b)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("refusing to compare different benches", proc.stderr)


if __name__ == "__main__":
    unittest.main()
