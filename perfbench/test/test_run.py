"""Checks of run.py's aggregation: the determinism check across
repetitions fires on a differing digest, a repetition's own failures
fail the run, and a clean set of repetitions passes."""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
import run  # noqa: E402

BENCH = {
    "end_to_end": [{"name": "wall_s"}, {"name": "sim_replies_per_s"}],
    "per_layer": [{"name": "sim.events"}],
}


def fake_rep(digest, traced=False, failures=(), wall=1.0):
    metric = lambda v, u: {"value": v, "unit": u}  # noqa: E731
    names = ["wall_s", "setup_s", "alloc_mwords", "peak_rss_mb"] + run.HOST_RAW
    host = {n: metric(wall, "s") for n in names}
    sim = {n: metric(1.0, "x") for n in run.PRINTED_SIM}
    return {
        "digest": digest,
        "traced": traced,
        "failures": list(failures),
        "worlds": 2,
        "latency_samples": 10,
        "host": host,
        "sim": sim,
        "layers": {"sim.events": metric(5.0, "count")} if traced else {},
    }


def result(reps, trace=False):
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as d, contextlib.redirect_stdout(out):
        spans = os.path.join(d, "spans.json")
        with open(spans, "w") as f:
            json.dump([{"name": "sim.Engine.run", "tag": "load", "self_s": 0.5}], f)
        for r in reps:
            r["spans"] = spans if r["traced"] else ""
        ok = run.report("w", 1, reps, BENCH, trace)
    return ok, json.loads(out.getvalue().strip().splitlines()[-1])


class Aggregation(unittest.TestCase):
    def test_clean_run_passes(self):
        ok, res = result([fake_rep("a", wall=w) for w in (1.0, 3.0, 2.0)])
        self.assertTrue(ok)
        self.assertEqual(res["attempted"], 6)
        self.assertEqual(res["failed"], 0)
        self.assertEqual(res["metrics"]["wall_s"]["value"], 2.0)
        self.assertEqual(sorted(res["metrics"]), ["sim_replies_per_s", "wall_s"])

    def test_digest_across_repetitions_fires(self):
        ok, res = result([fake_rep("a"), fake_rep("a"), fake_rep("b")])
        self.assertFalse(ok)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)

    def test_digest_traced_vs_untraced_fires(self):
        reps = [fake_rep("a"), fake_rep("b", traced=True), fake_rep("a"), fake_rep("a", traced=True)]
        ok, res = result(reps, trace=True)
        self.assertFalse(ok)
        self.assertFalse(res["correct"])

    def test_repetition_failure_fails_run(self):
        ok, res = result([fake_rep("a"), fake_rep("a", failures=["x"]), fake_rep("a")])
        self.assertFalse(ok)
        self.assertEqual(res["failed"], 2)

    def test_traced_run_reports_per_layer_and_overhead(self):
        reps = [fake_rep("a", wall=1.0), fake_rep("a", traced=True, wall=1.5)] * 2
        ok, res = result(reps, trace=True)
        self.assertTrue(ok)
        self.assertEqual(list(res["metrics"]), ["sim.events"])


if __name__ == "__main__":
    unittest.main()
