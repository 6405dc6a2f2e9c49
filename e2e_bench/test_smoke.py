#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark at its minimum length.

Runs every workload for one second, untraced and traced, at the default
seed (where the committed result CSVs are checked too), and asserts that
every metric BENCHMARK.json names is emitted with its unit, that each
workload's simulated outputs are printed, and that no check failed.

    python3 e2e_bench/test_smoke.py
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DETAILS = {
    "paper_sim": ["drift_speedup_geomean", "drift_energy_geomean",
                  "sim_gmac_per_s"],
    "proxy_forward": ["drift_acc_mean", "fwd_samples_per_s"],
    "serve_poisson": ["serve_p99_us", "serve_req_per_s"],
}


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "e2e_bench" / "run.py"),
         "--workload", workload, "--seed", "17", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900, check=True)
    return proc.stdout.strip().splitlines()


class SmokeTest(unittest.TestCase):
    def test_every_metric_emitted_and_correct(self):
        self.assertEqual(sorted(DETAILS), sorted(w["name"] for w in SPEC["workloads"]))
        for workload in DETAILS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    lines = run(workload, trace)
                    result = json.loads(lines[-1])
                    self.assertEqual(sorted(result),
                                     ["attempted", "correct", "failed",
                                      "metrics"])
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(result["failed"], 0)  # failed_frac == 0
                    self.assertTrue(result["correct"])
                    for m in SPEC[key]:
                        self.assertIn(m["name"], result["metrics"])
                        self.assertEqual(result["metrics"][m["name"]]["unit"],
                                         m["unit"])
                    self.assertEqual(len(result["metrics"]), len(SPEC[key]))
                    for name in DETAILS[workload]:
                        self.assertTrue(
                            any(line.startswith(f"# {name} = ") and
                                len(line.split()) == 5 for line in lines),
                            f"{name} not printed with a unit")


if __name__ == "__main__":
    unittest.main()
