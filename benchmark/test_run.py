"""Unit tests for benchmark/run.py: aggregation, bound direction, the
unresolved rule and trace validation. Standard library only:

  python3 -m unittest discover -s benchmark -p 'test_*.py'
"""
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def side(values):
    return run.summarize(values)


LOWER = {"name": "host_latency", "better": "lower", "bound": 0.10}
HIGHER = {"name": "host_tokens_per_s", "better": "higher", "bound": 0.10}
SIM = {"name": "sim_ttft_p50_ms", "better": "lower", "bound": 0.10}


class SummarizeTest(unittest.TestCase):
    def test_median_and_quartiles_match_statistics_quantiles(self):
        s = side([5.0, 1.0, 3.0, 2.0, 4.0])
        self.assertEqual(s["median"], 3.0)
        self.assertEqual((s["q1"], s["q3"]), (1.5, 4.5))
        self.assertEqual(s["values"], [5.0, 1.0, 3.0, 2.0, 4.0])

    def test_single_value_has_zero_spread(self):
        s = side([7.0])
        self.assertEqual((s["median"], s["q1"], s["q3"]), (7.0, 7.0, 7.0))


class VerdictTest(unittest.TestCase):
    def test_lower_is_better_flags_an_increase_past_the_bound(self):
        self.assertEqual(
            run.verdict(LOWER, side([100, 100, 101]), side([115, 115, 116]),
                        True), "regression")
        self.assertEqual(
            run.verdict(LOWER, side([100, 100, 101]), side([105, 105, 106]),
                        True), "same")

    def test_higher_is_better_flags_a_decrease_past_the_bound(self):
        self.assertEqual(
            run.verdict(HIGHER, side([100, 100, 101]), side([85, 85, 86]),
                        True), "regression")
        self.assertEqual(
            run.verdict(HIGHER, side([100, 100, 101]), side([115, 115, 116]),
                        True), "better")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = side([70, 100, 130])
        self.assertEqual(
            run.verdict(HIGHER, noisy, side([60, 80, 100]), True),
            "unresolved")

    def test_wide_spread_still_better_when_every_change_run_wins(self):
        parent = side([70, 100, 130])
        change = side([140, 170, 200])
        self.assertEqual(run.verdict(HIGHER, parent, change, True), "better")

    def test_sim_metric_must_be_identical_at_the_same_seed(self):
        self.assertEqual(run.verdict(SIM, side([1.0]), side([1.0]), True),
                         "same")
        self.assertEqual(run.verdict(SIM, side([1.0]), side([1.001]), True),
                         "changed")
        # Different seeds fall back to the bound.
        self.assertEqual(run.verdict(SIM, side([1.0]), side([1.001]), False),
                         "same")


def span(ph, name, span_id, ts, parent=0, request=0):
    return {"name": name, "ph": ph, "ts": ts, "pid": 1, "tid": 1,
            "args": {"span": span_id, "parent": parent, "request": request}}


class TraceValidationTest(unittest.TestCase):
    def check(self, events):
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            json.dump({"traceEvents": events}, f)
        try:
            return run.validate_trace(f.name)
        finally:
            os.unlink(f.name)

    def well_formed(self):
        return [
            span("B", "serve", 1, 0.0),
            span("B", "api.Submit", 2, 1.0, parent=1, request=1),
            span("E", "api.Submit", 2, 2.0, parent=1, request=1),
            span("B", "api.RunToCompletion", 3, 3.0, parent=1),
            span("B", "client.on_finish", 4, 4.0, parent=3, request=1),
            span("B", "api.Submit", 5, 5.0, parent=4, request=2),
            span("E", "api.Submit", 5, 6.0, parent=4, request=2),
            span("E", "client.on_finish", 4, 7.0, parent=3, request=1),
            span("B", "client.on_finish", 6, 8.0, parent=3, request=2),
            span("E", "client.on_finish", 6, 9.0, parent=3, request=2),
            span("E", "api.RunToCompletion", 3, 10.0, parent=1),
            span("E", "serve", 1, 11.0),
        ]

    def test_accepts_paired_nested_consistent_spans(self):
        self.assertEqual(self.check(self.well_formed()), [])

    def test_rejects_an_unclosed_span(self):
        self.assertTrue(self.check(self.well_formed()[:-1]))

    def test_rejects_ends_out_of_order(self):
        events = self.well_formed()
        events[6], events[7] = events[7], events[6]
        self.assertTrue(self.check(events))

    def test_rejects_a_parent_that_is_not_the_enclosing_span(self):
        events = self.well_formed()
        events[4]["args"]["parent"] = 1
        self.assertTrue(self.check(events))

    def test_rejects_time_running_backwards(self):
        events = self.well_formed()
        events[5]["ts"] = 0.5
        self.assertTrue(self.check(events))

    def test_rejects_a_finish_for_a_request_never_submitted(self):
        events = self.well_formed()
        events[8]["args"]["request"] = 9
        self.assertTrue(self.check(events))

    def test_rejects_a_request_that_never_finishes(self):
        events = self.well_formed()
        del events[8:10]
        self.assertTrue(self.check(events))


if __name__ == "__main__":
    unittest.main()
