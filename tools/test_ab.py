#!/usr/bin/env python3
"""Self-test for tools/ab.py, run on stub commands instead of real builds.

  python3 tools/test_ab.py
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

AB = Path(__file__).resolve().parent / "ab.py"

# A stub prints a line of noise, then one JSON line whose metric
# tok_per_s is base + (its call count mod 3) and whose rss_mib is a tenth
# of base plus the same, and logs its name to the file named by its first
# argument, so the test can read the order the runs took.
STUB = """#!{python}
import json, sys
log = sys.argv[1]
with open(log) as f:
    calls = sum(1 for line in f if line.strip() == {name!r})
with open(log, "a") as f:
    f.write({name!r} + "\\n")
value = {base} + calls % 3
print("warming up")
metric = {{"value": value}} if {boxed} else value
print(json.dumps({{"metrics": {{"tok_per_s": metric, "other": 1,
                                 "rss_mib": {base} / 10 + calls % 3}}}}))
sys.exit({code})
"""


class AbTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.root = Path(self.dir.name)
        self.log = self.root / "order.log"
        self.log.write_text("")

    def tearDown(self):
        self.dir.cleanup()

    def stub(self, name, base, boxed=False, code=0):
        path = self.root / name
        path.write_text(STUB.format(python=sys.executable, name=name,
                                    base=base, boxed=boxed, code=code))
        os.chmod(path, 0o755)
        return str(path)

    def ab(self, parent, change, pairs, *extra, metrics=("tok_per_s",)):
        cmd = [sys.executable, str(AB), "--parent", parent, "--change",
               change, "--pairs", str(pairs), "--metric", *metrics,
               *extra, "--", str(self.log)]
        return subprocess.run(cmd, capture_output=True, text=True)

    def lines(self, proc, prefix):
        return [l for l in proc.stdout.splitlines() if l.startswith(prefix)]

    def test_clear_gain_alternates_and_reports_quartiles(self):
        out = self.root / "ab.json"
        proc = self.ab(self.stub("parent", 100), self.stub("change", 150, True),
                       10, "--json", str(out))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(len(self.lines(proc, "gain:")), 1, proc.stdout)
        self.assertIn("change wins 10/10 pairs", proc.stdout)
        order = self.log.read_text().split()
        self.assertEqual(order[:6], ["parent", "change", "change", "parent",
                                     "parent", "change"])
        self.assertEqual(len(order), 20)
        result = json.loads(out.read_text())["metrics"]["tok_per_s"]
        self.assertTrue(result["gain"])
        self.assertEqual(result["wins"], 10)
        # Parent values 100, 101, 102, 100, ...: median 101.
        self.assertEqual(result["parent"]["median"], 101.0)
        self.assertEqual(result["change"]["values"][:3], [150.0, 151.0, 152.0])

    def test_two_metrics_from_one_set_of_runs(self):
        out = self.root / "ab.json"
        proc = self.ab(self.stub("parent", 100), self.stub("change", 150),
                       10, "--better", "higher", "lower", "--json", str(out),
                       metrics=("tok_per_s", "rss_mib"))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        # Ten pairs ran once, and each run gave both metrics.
        self.assertEqual(len(self.log.read_text().split()), 20)
        self.assertEqual(self.lines(proc, "metric "),
                         ["metric tok_per_s (higher is better), 10 pairs",
                          "metric rss_mib (lower is better), 10 pairs"])
        # The change's higher rss_mib loses every pair where lower wins.
        self.assertEqual(len(self.lines(proc, "gain:")), 1, proc.stdout)
        self.assertEqual(len(self.lines(proc, "no gain:")), 1, proc.stdout)
        self.assertIn("change wins 0/10 pairs", proc.stdout)
        results = json.loads(out.read_text())["metrics"]
        self.assertTrue(results["tok_per_s"]["gain"])
        self.assertFalse(results["rss_mib"]["gain"])
        self.assertEqual(results["rss_mib"]["better"], "lower")
        self.assertEqual(results["rss_mib"]["parent"]["values"][:3],
                         [10.0, 11.0, 12.0])
        self.assertEqual(results["rss_mib"]["change"]["median"], 16.0)

    def test_a_missing_metric_or_direction_count_fails(self):
        proc = self.ab(self.stub("parent", 100), self.stub("change", 150),
                       2, metrics=("tok_per_s", "nope"))
        self.assertEqual(proc.returncode, 2)
        self.assertIn("no metric 'nope'", proc.stderr)
        proc = self.ab(self.stub("parent", 100), self.stub("change", 150),
                       2, "--better", "higher", "lower", "higher",
                       metrics=("tok_per_s", "rss_mib"))
        self.assertEqual(proc.returncode, 2)
        self.assertIn("one per metric", proc.stderr)

    def test_equal_sides_show_no_gain(self):
        proc = self.ab(self.stub("parent", 100), self.stub("change", 100), 10)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(self.lines(proc, "gain"), [], proc.stdout)
        self.assertEqual(len(self.lines(proc, "no gain:")), 1)
        self.assertIn("change wins 0/10 pairs", proc.stdout)

    def test_direction_and_pair_count_gate_the_gain(self):
        # Higher values lose when lower is better.
        proc = self.ab(self.stub("parent", 100), self.stub("change", 150), 10,
                       "--better", "lower")
        self.assertEqual(self.lines(proc, "gain"), [], proc.stdout)
        # Every pair won, but fewer than ten pairs ran.
        proc = self.ab(self.stub("parent", 100), self.stub("change", 150), 4)
        self.assertEqual(self.lines(proc, "gain"), [], proc.stdout)
        self.assertIn("fewer than 10", proc.stdout)

    def test_a_lead_inside_the_parent_spread_is_no_gain(self):
        # The change wins every pair by one, but the parent's own runs
        # spread over 100..102.
        proc = self.ab(self.stub("parent", 100), self.stub("change", 101), 10)
        self.assertIn("change wins 10/10 pairs", proc.stdout)
        self.assertEqual(self.lines(proc, "gain"), [], proc.stdout)
        self.assertIn("IQR", proc.stdout)

    def test_a_failed_run_exits_2(self):
        proc = self.ab(self.stub("parent", 100),
                       self.stub("change", 150, code=1), 10)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("exited 1", proc.stderr)


if __name__ == "__main__":
    unittest.main()
