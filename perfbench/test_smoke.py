#!/usr/bin/env python3
"""Smoke tests for the repository benchmark.

    python3 perfbench/test_smoke.py        (from the root of a checkout)

Runs every workload at smoke size (--smoke: the same code paths on tiny
inputs) through run.py, gated and traced, and checks that:
  * every metric BENCHMARK.json names is emitted with its unit;
  * the output checks pass (correct, no failed job, gated values > 0);
  * two runs of one seed print the same determinism digest and the same
    fidelity values;
  * run.py fails, printing no result, in a directory holding only
    BENCHMARK.json and perfbench/.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace, cwd=ROOT, env=None):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=900, check=False)


def result_of(done):
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    return json.loads(lines[-1])


def digest_of(done):
    found = re.findall(r"xbench: digest ([0-9a-f]{16})", done.stderr)
    return found[-1] if found else None


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, declared, positive):
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(list(metrics), [m["name"] for m in declared])
        for m in declared:
            got = metrics[m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            if positive:
                self.assertGreater(got["value"], 0, m["name"])

    def test_every_workload(self):
        for w in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=w):
                first = run(w, 5, 0)
                self.assertEqual(first.returncode, 0, first.stderr[-2000:])
                self.check_metrics(result_of(first), SPEC["end_to_end"],
                                   positive=True)
                again = run(w, 5, 0)
                self.assertEqual(again.returncode, 0, again.stderr[-2000:])
                self.assertIsNotNone(digest_of(first))
                self.assertEqual(digest_of(first), digest_of(again))
                for name in ("fidelity_gap_pp", "paper_claims_met"):
                    self.assertEqual(result_of(first)["metrics"][name],
                                     result_of(again)["metrics"][name])

                traced = run(w, 5, 1)
                self.assertEqual(traced.returncode, 0, traced.stderr[-2000:])
                self.check_metrics(result_of(traced), SPEC["per_layer"],
                                   positive=False)
                self.assertTrue(
                    (ROOT / ".bench_out" / f"{w}-5-host.json").exists())

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            # The build tree must be the bare directory's own.
            env = {k: v for k, v in os.environ.items()
                   if k != "CARGO_TARGET_DIR"}
            done = run("paper_figs", 1, 0, cwd=tmp, env=env)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
