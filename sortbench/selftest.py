#!/usr/bin/env python3
"""Self-test of the benchmark on tiny instances of every workload.

    python3 sortbench/selftest.py

Builds the driver like run.py does, then checks that:
  - every metric BENCHMARK.json names is emitted, with its unit and a
    finite value, for every workload, in both trace modes;
  - a corrupted output (two keys swapped in one partition) and a driver
    that dies are both counted as failed sorts;
  - --seed reaches datagen and the fabric's fault stream, and one seed
    reproduces every simulated number and the output digest exactly.
"""

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
DRIVER = None


def bench(workload, trace, seed=11, corrupt=0):
    """One tiny run.py run; returns its last stdout line, parsed."""
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--scale", "tiny", "--corrupt", str(corrupt)],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def drive(workload, seed, mode="plain"):
    """One tiny driver process; returns its JSON result."""
    proc = subprocess.run(
        [str(DRIVER), "--workload", workload, "--seed", str(seed), "--mode",
         mode, "--scale", "tiny"],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


class MetricsEmitted(unittest.TestCase):
    def check(self, trace, declared):
        for w in BENCHMARK["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                out = bench(w["name"], trace)
                self.assertEqual(set(out), {"correct", "attempted", "failed",
                                            "metrics"})
                self.assertTrue(out["correct"])
                self.assertGreaterEqual(out["attempted"], 1)
                self.assertEqual(out["failed"], 0)
                self.assertEqual(set(out["metrics"]),
                                 {m["name"] for m in declared})
                for m in declared:
                    got = out["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"], m["name"])
                    self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_end_to_end(self):
        self.check(0, BENCHMARK["end_to_end"])

    def test_per_layer(self):
        self.check(1, BENCHMARK["per_layer"])

    def test_declared_names_match_run_py(self):
        def declared(kind):
            return [(m["name"], m["unit"]) for m in BENCHMARK[kind]]
        self.assertEqual(declared("end_to_end"), list(run.END_TO_END))
        self.assertEqual(declared("per_layer"), list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]],
                         list(run.WORKLOADS))


class FailuresCounted(unittest.TestCase):
    def test_swapped_keys_fail_validation(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                out = bench(w, 0, corrupt=1)
                self.assertFalse(out["correct"])
                sorts = out["attempted"] - run.SETUP_PROCESSES
                self.assertEqual(out["failed"], sorts)
                self.assertGreaterEqual(out["failed"], 1)

    def test_dying_driver_is_a_failure(self):
        class Args:
            scale, corrupt = "tiny", 0
        result, failure = run.run_sort(shutil.which("false"), "paper_p52", Args,
                                       1, "plain", None, 10)
        self.assertIsNone(result)
        self.assertIn("exited with", failure)


class SeedReachesInputs(unittest.TestCase):
    def test_seed_changes_data_and_faults(self):
        a = drive("lossy_ams_p256", 11)
        b = drive("lossy_ams_p256", 12)
        self.assertNotEqual(a["input_digest"], b["input_digest"])
        for seed in ("datagen_seed", "fault_seed"):
            self.assertNotEqual(a["config"][seed], b["config"][seed])
        self.assertGreater(a["sim"]["net.dropped"], 0)
        # config.fault_seed is read from the ClusterConfig the sort runs on;
        # the drops it decides must follow the seed too.
        drops = {drive("lossy_ams_p256", s)["sim"]["net.dropped"]
                 for s in (11, 12, 13, 14)}
        self.assertGreater(len(drops), 1)

    def test_same_seed_reproduces_run(self):
        def sorts(seed):
            proc = subprocess.run(
                [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload",
                 "skew_hist_p256", "--seed", str(seed), "--seconds", "0.3",
                 "--trace", "0", "--scale", "tiny"],
                capture_output=True, text=True, check=True)
            return json.loads(proc.stdout.strip().splitlines()[-2])["sorts"]
        a, b = sorts(31), sorts(31)
        n = min(len(a), len(b))
        self.assertGreaterEqual(n, 2)
        self.assertEqual(a[:n], b[:n])
        self.assertNotEqual(a[0]["input_digest"], a[1]["input_digest"])
        self.assertNotEqual(a[0]["input_digest"], sorts(32)[0]["input_digest"])

    def test_same_seed_reproduces_simulated_results(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                a = drive(w, 21)
                b = drive(w, 21, mode="traced")
                self.assertTrue(a["ok"] and b["ok"], b["failure"])
                self.assertEqual(a["sim"], b["sim"])
                self.assertEqual(a["input_digest"], b["input_digest"])
                self.assertEqual(a["output_digest"], b["output_digest"])


if __name__ == "__main__":
    DRIVER = run.build()
    unittest.main()
