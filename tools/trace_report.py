#!/usr/bin/env python3
"""Per-request latency-attribution report from a serving trace.

Reads a Chrome Trace Event JSON file written by ``--trace-out``
(bench_serving, examples/chat_clients) or ``api::Engine::WriteTrace`` and
rebuilds each request's lifecycle waterfall from the trace alone:

* queue    -- submit to first admission on a card,
* prefill  -- admission to the first sampled token,
* decode   -- first token to the finish event,
* ttft     -- submit to first token (queue + prefill),
* latency  -- submit to finish.

The lifecycle is read from the legacy-async request lanes the exporter
emits (``cat == "request"``): the ``b``/``e`` pairs carry the derived
queue/prefill/decode phases and the ``n`` instants replay the raw marks
(submit, first_token, finish, cancel, ...). Percentiles use the same
interpolation as ``serving::ServingReport`` (rank = p * (n - 1), linear
between order statistics), so a report derived purely from the trace
must agree with the simulator's own ServingReport -- ``--check`` turns
that property into a CI assertion against a ``bench_serving --json``
file's ``serving_batching.closed_loop_ttft_p50_ms`` /
``serving_batching.closed_loop_ttft_p99_ms`` metrics.

Usage:
    tools/trace_report.py trace.json [--top 10] [--check bench.json]
"""

import argparse
import json
import sys


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"trace_report: cannot read {path}: {err}")


def percentile(samples, p):
    """serving::ServingReport's interpolated percentile (fraction p)."""
    if not samples:
        return 0.0
    p = min(max(p, 0.0), 1.0)
    ordered = sorted(samples)
    rank = p * (len(ordered) - 1)
    lo = int(rank)
    if lo + 1 >= len(ordered):
        return ordered[-1]
    frac = rank - lo
    return ordered[lo] + frac * (ordered[lo + 1] - ordered[lo])


def collect_requests(trace):
    """Maps request id -> lifecycle dict from the async request lanes."""
    events = trace.get("traceEvents", [])
    if not isinstance(events, list):
        sys.exit("trace_report: traceEvents is not a list")
    requests = {}
    for ev in events:
        if ev.get("cat") != "request":
            continue
        rid = ev.get("id")
        if rid is None:
            continue
        req = requests.setdefault(rid, {"marks": {}, "phases": {}})
        ph = ev.get("ph")
        name = ev.get("name", "")
        ts = float(ev.get("ts", 0.0))
        if ph == "n":
            # First occurrence wins: migrations etc. may repeat, the
            # lifecycle anchors (submit/first_token/finish) never do.
            req["marks"].setdefault(name, ts)
        elif ph == "b":
            req["phases"].setdefault(name, [ts, None])
        elif ph == "e" and name in req["phases"]:
            req["phases"][name][1] = ts
    return requests


def waterfall(req):
    """One request's phase durations in milliseconds (None = unknown)."""
    marks, phases = req["marks"], req["phases"]

    def phase_ms(name):
        span = phases.get(name)
        if span is None or span[1] is None:
            return None
        return (span[1] - span[0]) / 1e3

    submit = marks.get("submit")
    first = marks.get("first_token")
    finish = marks.get("finish", marks.get("cancel"))
    return {
        "queue_ms": phase_ms("queue"),
        "prefill_ms": phase_ms("prefill"),
        "decode_ms": phase_ms("decode"),
        "ttft_ms": (first - submit) / 1e3
        if submit is not None and first is not None
        else None,
        "latency_ms": (finish - submit) / 1e3
        if submit is not None and finish is not None
        else None,
        "cancelled": "cancel" in marks,
    }


def fmt(v):
    return "      -" if v is None else f"{v:10.4f}"


def main():
    parser = argparse.ArgumentParser(
        description="Latency-attribution waterfall from a serving trace")
    parser.add_argument("trace", help="Chrome Trace Event JSON (--trace-out)")
    parser.add_argument("--top", type=int, default=10,
                        help="requests to list, slowest latency first")
    parser.add_argument("--check", metavar="BENCH_JSON",
                        help="bench_serving --json file whose "
                             "serving_batching.closed_loop_ttft_p{50,99}_ms "
                             "must match this trace")
    args = parser.parse_args()

    requests = collect_requests(load_json(args.trace))
    if not requests:
        sys.exit("trace_report: no request lanes in trace "
                 "(was tracing enabled?)")

    rows = {rid: waterfall(req) for rid, req in sorted(requests.items())}
    ttfts = [r["ttft_ms"] for r in rows.values() if r["ttft_ms"] is not None]
    lats = [r["latency_ms"] for r in rows.values()
            if r["latency_ms"] is not None and not r["cancelled"]]
    cancelled = sum(1 for r in rows.values() if r["cancelled"])

    print(f"requests: {len(rows)}  (cancelled: {cancelled})")
    print(f"ttft ms   p50 {percentile(ttfts, 0.50):.4f}"
          f"  p99 {percentile(ttfts, 0.99):.4f}")
    print(f"latency ms p50 {percentile(lats, 0.50):.4f}"
          f"  p99 {percentile(lats, 0.99):.4f}")
    print()
    print(f"{'req':>6} {'queue_ms':>10} {'prefill_ms':>10} {'decode_ms':>10}"
          f" {'ttft_ms':>10} {'latency_ms':>10}")
    slowest = sorted(rows.items(),
                     key=lambda kv: -(kv[1]["latency_ms"] or 0.0))
    for rid, r in slowest[:args.top]:
        tag = f"{rid}*" if r["cancelled"] else f"{rid}"
        print(f"{tag:>6} {fmt(r['queue_ms'])} {fmt(r['prefill_ms'])}"
              f" {fmt(r['decode_ms'])} {fmt(r['ttft_ms'])}"
              f" {fmt(r['latency_ms'])}")
    if cancelled:
        print("(* = cancelled; latency excluded from percentiles)")

    if args.check:
        bench = load_json(args.check)
        metrics = bench.get("metrics", {})
        failures = []
        for key, p in (("serving_batching.closed_loop_ttft_p50_ms", 0.50),
                       ("serving_batching.closed_loop_ttft_p99_ms", 0.99)):
            if key not in metrics:
                failures.append(f"bench json has no metric {key}")
                continue
            want = float(metrics[key])
            got = percentile(ttfts, p)
            # The bench prints %.6f; allow its rounding plus float noise.
            if abs(got - want) > 1e-5:
                failures.append(
                    f"{key}: trace says {got:.6f}, bench says {want:.6f}")
        if failures:
            for f in failures:
                print(f"trace_report: MISMATCH {f}", file=sys.stderr)
            sys.exit(1)
        print(f"check OK: trace reproduces {args.check} TTFT percentiles")


if __name__ == "__main__":
    main()
