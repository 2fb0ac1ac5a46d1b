"""Self-tests of the benchmark: its checks report failures on tampered
results, and a small traced run reports every per-layer metric that
`BENCHMARK.json` lists with the same simulated digest as the untraced run.

    python3 -m unittest perfbench/test_run.py
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 5


def record(digest, failed=()):
    return {"attempted": 3, "failed": list(failed), "digest": digest}


class Checks(unittest.TestCase):
    def test_mismatched_digest_fails(self):
        t = run.Tally("00000000000000aa")
        t.absorb(record("00000000000000aa"))
        self.assertEqual(t.failed, [])
        t.absorb(record("00000000000000bb"))
        self.assertEqual(t.failed, ["digest_matches_recorded"])
        self.assertEqual(t.attempted, 8)

    def test_unrecorded_seed_checks_invariants_only(self):
        t = run.Tally(None)
        t.absorb(record("00000000000000bb", ["netstorm.ordered_pairs_monotone"]))
        self.assertEqual(t.attempted, 3)
        self.assertEqual(t.failed, ["netstorm.ordered_pairs_monotone"])

    def test_repetitions_must_agree(self):
        t = run.Tally(None)
        t.same_digest("digest_deterministic", [record("a"), record("a")])
        t.same_digest("digest_traced_eq_untraced", [record("a"), record("b")])
        self.assertEqual(t.failed, ["digest_traced_eq_untraced"])

    def test_recorded_digests_cover_default_and_held_out_seeds(self):
        digests = run.load_digests()
        for w in run.WORKLOADS:
            self.assertIn("1", digests[w])
            self.assertIn("1000003", digests[w])


class HostScale(unittest.TestCase):
    @staticmethod
    def reps(run_s, calib_s):
        return [{"run_s": run_s, "setup_s": run_s / 10, "calib_s": calib_s, "peak_rss_kb": 2048}] * 3

    def test_host_drift_cancels(self):
        fast = run.end_to_end(self.reps(1.0, run.CALIB_REF_S))
        slow = run.end_to_end(self.reps(1.3, 1.3 * run.CALIB_REF_S))
        for m in ("run_s", "setup_s"):
            self.assertAlmostEqual(fast[m]["value"], slow[m]["value"])
        self.assertEqual(slow["peak_rss_mb"]["value"], 2.0)

    def test_program_cost_stays(self):
        slower = run.end_to_end(self.reps(1.3, run.CALIB_REF_S))
        self.assertAlmostEqual(slower["run_s"]["value"], 1.3)
        self.assertAlmostEqual(slower["setup_s"]["value"], 0.13)


class SmallRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bindir = run.build()
        with open(os.path.join(run.HERE, "..", "BENCHMARK.json")) as f:
            cls.per_layer = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}

    def test_traced_equals_untraced_and_reports_every_layer_metric(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                plain = run.rep(self.bindir, "perfbench", w, SEED, "small")
                traced = run.rep(self.bindir, "perfbench_traced", w, SEED, "small")
                self.assertEqual(plain["failed"], [])
                self.assertEqual(traced["failed"], [])
                self.assertEqual(plain["digest"], traced["digest"])
                metrics = run.per_layer([plain], [traced])
                got = {k: v["unit"] for k, v in metrics.items()}
                self.assertEqual(got, self.per_layer)


if __name__ == "__main__":
    unittest.main()
