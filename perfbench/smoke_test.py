#!/usr/bin/env python3
"""Smoke test of the repo benchmark.

    python3 perfbench/smoke_test.py          # unit checks, a few seconds
    python3 perfbench/smoke_test.py --run    # plus one short run per workload
                                             # and trace mode (builds the repo)
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BENCHMARK = run.ROOT / "BENCHMARK.json"


class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        self.bench = json.loads(BENCHMARK.read_text())

    def test_metric_lists_match_the_runner(self):
        e2e = {m["name"]: m["unit"] for m in self.bench["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in self.bench["per_layer"]}
        self.assertEqual(e2e, run.END_TO_END)
        self.assertEqual(layers, run.PER_LAYER)

    def test_workloads_match_the_runner(self):
        names = [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(sorted(names), sorted(run.WORKLOADS))
        for w in self.bench["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class Helpers(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(run.tail(list(range(1, 100)))[0], 50.0)
        pct, value = run.tail(list(range(1, 201)))
        self.assertEqual((pct, value), (95.0, 190))
        self.assertEqual(run.tail(list(range(1, 1001)))[0], 99.0)

    def test_segments_cover_every_item_once(self):
        items = list(range(23))
        joined = [x for i in range(run.SEGMENTS) for x in run.segment(items, i)]
        self.assertEqual(joined, items)

    def test_exposition_deltas(self):
        before = run.parse_exposition(
            '# TYPE h histogram\n'
            'h_sum{verb="insert",phase="run"} 0.5\n'
            'h_count{verb="insert",phase="run"} 5\n'
            'c_total{shard="0"} 2\nc_total{shard="1"} 3\n# EOF\n')
        after = run.parse_exposition(
            'h_sum{verb="insert",phase="run"} 0.9\n'
            'h_count{verb="insert",phase="run"} 7\n'
            'c_total{shard="0"} 4\nc_total{shard="1"} 3\n')
        acc = {}
        run.add_delta(acc, before, after)
        self.assertAlmostEqual(run.hist_mean_ms(acc, "h", verb="insert", phase="run"), 200.0)
        self.assertEqual(run.hist_mean_ms(acc, "h", verb="trace"), 0.0)
        self.assertEqual(run.metric_sum(acc, "c_total"), 2.0)

    def test_pipelined_http_responses_split_in_order(self):
        conn = object.__new__(run.Conn)
        conn.http, conn.pending = True, [{"id": "a"}, {"id": "b"}]
        conn.buf = (b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n{\"id\":1}\n"
                    b"HTTP/1.1 200 OK\r\ncontent-length: 9\r\n\r\n{\"id\":2}\n"
                    b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n{\"i")
        self.assertEqual(conn._take_one(), '{"id":1}')
        self.assertEqual(conn._take_one(), '{"id":2}')
        self.assertIsNone(conn._take_one())

    def test_responses_are_checked_against_expectations(self):
        expected = {"total_bits": {"m:int4": 232}}
        insert = {"verb": "insert", "spec": "m:int4"}
        self.assertEqual(run.check_response(insert, '{"ok":true,"total_bits":232}', expected),
                         (True, False))
        self.assertEqual(run.check_response(insert, '{"ok":true,"total_bits":231}', expected),
                         (False, False))
        shed = '{"ok":false,"shed":true,"error":"overloaded"}'
        self.assertEqual(run.check_response(insert, shed, expected), (False, True))
        trace = {"verb": "trace", "spec": "m:int4", "device": "edge-device-3"}
        self.assertEqual(run.check_response(
            trace, '{"ok":true,"device":"edge-device-3","matched":true}', expected),
            (True, False))
        self.assertEqual(run.check_response(
            trace, '{"ok":true,"device":"edge-device-2","matched":true}', expected),
            (False, False))


class ShortRuns(unittest.TestCase):
    """One short run per workload and trace mode; checks the output contract."""

    def check(self, workload, trace):
        out = subprocess.run(
            [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", workload,
             "--seed", "7", "--seconds", "3", "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(out.returncode, 0, out.stderr)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], out.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        names = run.PER_LAYER if trace else run.END_TO_END
        self.assertEqual(set(result["metrics"]), set(names))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], names[name])
            if not trace:
                self.assertGreater(metric["value"], 0, name)

    def test_workloads(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)


if __name__ == "__main__":
    if "--run" in sys.argv:
        sys.argv.remove("--run")
    else:
        del ShortRuns
    unittest.main()
