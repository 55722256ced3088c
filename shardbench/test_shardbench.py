#!/usr/bin/env python3
"""The benchmark's own tests, run on its small configuration (--small):

    python3 shardbench/test_shardbench.py

They check that the world hash does not depend on the script thread count
or on tracing, that traced spans nest and add up to their tick, and that
the printer emits every metric BENCHMARK.json names exactly once, with its
unit. Builds through run.py first.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

WORKLOADS = ("crowd", "horde", "churn")
# Per-layer times that add up to tick.mean_ms, and to setup.mean_ms.
TICK_LAYERS = (
    "core.mutate_ms", "content.instantiate_ms", "replication.login_ms",
    "planner.refresh_ms", "views.maintain_pre_script_ms",
    "script.run_tick_ms", "persist.on_event_ms",
    "views.maintain_pre_sync_ms", "replication.sync_ms",
    "persist.tick_end_ms", "tick.unattributed_ms")
SETUP_LAYERS = (
    "persist.recover_ms", "planner.analyze_ms", "views.register_ms",
    "script.load_ms", "replication.reconnect_ms", "setup.unattributed_ms")


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    dupes = {k for k in keys if keys.count(k) > 1}
    if dupes:
        raise ValueError("duplicate keys: %s" % sorted(dupes))
    return dict(pairs)


class ShardbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe = run.build()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def bench(self, workload, trace=0, threads=1, trace_out=None):
        cmd = [self.exe, "--workload", workload, "--seed", "7",
               "--seconds", "1", "--trace", str(trace), "--root", ROOT,
               "--threads", str(threads), "--small"]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        lines = p.stdout.strip().splitlines()
        result = json.loads(lines[-1], object_pairs_hook=no_duplicates)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        world_hash = re.search(r"world_hash=([0-9a-f]{8})", p.stdout).group(1)
        return result, world_hash

    def test_hash_independent_of_threads_and_tracing(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, h1 = self.bench(w, threads=1)
                _, h2 = self.bench(w, threads=2)
                _, traced = self.bench(w, trace=1, threads=2)
                self.assertEqual(h1, h2)
                self.assertEqual(h1, traced)

    def test_printer_emits_every_metric_once_with_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = self.bench("churn", trace=trace)
            expected = {m["name"]: m["unit"] for m in self.spec[key]}
            got = result["metrics"]
            self.assertEqual(sorted(got), sorted(expected))
            for name, unit in expected.items():
                self.assertEqual(got[name]["unit"], unit, name)
                self.assertIsInstance(got[name]["value"], (int, float))
            self.assertEqual(set(result), {"correct", "attempted", "failed",
                                           "metrics"})

    def test_spans_nest_and_add_up(self):
        for w in WORKLOADS:
            with self.subTest(workload=w), tempfile.TemporaryDirectory() as d:
                path = os.path.join(d, "trace.json")
                result, _ = self.bench(w, trace=1, trace_out=path)
                m = {k: v["value"] for k, v in result["metrics"].items()}
                # The layers add up to the mean tick and the mean set-up.
                self.assertAlmostEqual(sum(m[k] for k in TICK_LAYERS),
                                       m["tick.mean_ms"], delta=1e-6)
                self.assertAlmostEqual(sum(m[k] for k in SETUP_LAYERS),
                                       m["setup.mean_ms"], delta=1e-6)
                # Recomputed from the written spans: children lie inside
                # their parent and each tick's children plus its
                # unattributed time give the tick.
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                by_id = {e["args"]["id"]: e for e in events}
                child_us = {}
                for e in events:
                    parent = e["args"]["parent"]
                    if parent < 0:
                        continue
                    p = by_id[parent]
                    self.assertGreaterEqual(e["ts"], p["ts"] - 1e-3)
                    self.assertLessEqual(e["ts"] + e["dur"],
                                         p["ts"] + p["dur"] + 1e-3)
                    self.assertEqual(e["args"]["tick"], p["args"]["tick"])
                    child_us[parent] = child_us.get(parent, 0.0) + e["dur"]
                ticks = [e for e in events if e["name"] == "tick"]
                self.assertEqual(len(ticks), m["tick.samples"])
                unattributed = [t["dur"] - child_us.get(t["args"]["id"], 0.0)
                                for t in ticks]
                self.assertTrue(all(u >= -1e-3 for u in unattributed))
                self.assertAlmostEqual(
                    sum(unattributed) / len(ticks) / 1e3,
                    m["tick.unattributed_ms"], delta=1e-5)


if __name__ == "__main__":
    unittest.main()
