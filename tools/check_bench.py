#!/usr/bin/env python3
"""Perf-regression gate for the CI bench smoke.

Reads one or more bench result files (written by a bench binary's
``--json`` flag, schema ``{"bench": <name>, "metrics": {<key>: <value>}}``)
and compares them against the checked-in gates in ``ci/perf_floor.json``
(schema ``{<bench>: {<metric>: <gate>}}``). A gate is either

* a bare number -- a floor: the metric must be >= it (throughput-style
  metrics, where lower means a regression), or
* ``{"min": x}`` and/or ``{"max": y}`` -- explicit bounds, for metrics
  where *higher* is the regression (e.g. the closed-loop p99 latency:
  tail blow-ups must fail the gate even though throughput still looks
  fine).

The job fails when any gated metric is missing or lands outside its
bounds.

The benches report *simulated* device numbers, so they are deterministic
for a given (workload, seed): a violation means a scheduling or
timing-model regression, not host noise. Floors are set ~30% below (and
ceilings ~50% above) the values measured when the gate was last updated,
leaving headroom for intentional model retunes while still catching
order-of-magnitude regressions.

Usage:
    tools/check_bench.py --floors ci/perf_floor.json result.json [...]

Raising a floor (after a deliberate perf win), tightening a ceiling, or
loosening either (after a deliberate model retune) is a normal,
reviewable diff to ci/perf_floor.json.
"""

import argparse
import json
import sys


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"check_bench: cannot read {path}: {err}")


def parse_gate(bench, metric, gate):
    """Returns (min_bound, max_bound), either possibly None (not both)."""

    def is_number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    if is_number(gate):
        return float(gate), None
    if isinstance(gate, dict) and gate and set(gate) <= {"min", "max"}:
        # Every key present must carry a real number: a null bound would
        # silently turn the gate into an always-pass.
        if all(is_number(v) for v in gate.values()):
            lo = gate.get("min")
            hi = gate.get("max")
            return (
                None if lo is None else float(lo),
                None if hi is None else float(hi),
            )
    sys.exit(
        f"check_bench: gate for {bench}.{metric} must be a number "
        '(floor) or {"min": x, "max": y} with numeric bounds'
    )


def gate_label(lo, hi):
    parts = []
    if lo is not None:
        parts.append(f">={lo:.4g}")
    if hi is not None:
        parts.append(f"<={hi:.4g}")
    return " ".join(parts)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--floors", required=True,
                        help="JSON file mapping bench -> metric -> gate")
    parser.add_argument("results", nargs="+",
                        help="bench result JSON files (--json output)")
    args = parser.parse_args()

    floors = load_json(args.floors)
    if not isinstance(floors, dict):
        sys.exit(f"check_bench: {args.floors} must map bench -> metric -> gate")

    seen = set()
    failures = []
    rows = []
    for path in args.results:
        result = load_json(path)
        bench = result.get("bench")
        metrics = result.get("metrics", {})
        if not isinstance(bench, str) or not isinstance(metrics, dict):
            sys.exit(f"check_bench: {path} is not a bench result "
                     '({"bench": ..., "metrics": {...}})')
        seen.add(bench)
        for metric, gate in sorted(floors.get(bench, {}).items()):
            lo, hi = parse_gate(bench, metric, gate)
            label = gate_label(lo, hi)
            value = metrics.get(metric)
            if value is None:
                failures.append(f"{bench}.{metric}: missing from {path}")
                rows.append((bench, metric, "missing", label, "FAIL"))
                continue
            ok = (lo is None or value >= lo) and (hi is None or value <= hi)
            rows.append((bench, metric, f"{value:.4g}", label,
                         "ok" if ok else "FAIL"))
            if not ok:
                failures.append(
                    f"{bench}.{metric}: {value:.4g} violates the gate "
                    f"{label}")

    for bench in sorted(set(floors) - seen):
        failures.append(f"bench '{bench}' has gates but no result file")

    width = max((len(f"{b}.{m}") for b, m, *_ in rows), default=10)
    for bench, metric, value, label, verdict in rows:
        print(f"{bench + '.' + metric:<{width}}  value={value:>12}  "
              f"gate={label:>20}  {verdict}")

    if failures:
        print()
        for failure in failures:
            print(f"check_bench: FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"\ncheck_bench: all {len(rows)} gated metrics hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
