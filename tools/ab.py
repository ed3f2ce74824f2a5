#!/usr/bin/env python3
"""Alternates two builds of one program and compares one metric.

  python3 tools/ab.py --parent parent/speedllm_bench --change speedllm_bench \\
      --pairs 10 --metric host_tokens_per_s \\
      -- --workload prefill_greedy_15m --seed 1

Each pair runs `<parent> <args>` and `<change> <args>` once, alternating
which side runs first (even pairs the parent, odd pairs the change), so a
drift in the machine's load falls on both sides alike. Every run's last
non-empty line of standard output is one JSON object; the metric is read
from its "metrics" object, either as a number or as {"value": x}.

The report gives each side's median and quartiles (as
statistics.quantiles(n=4) computes them) and how many pairs the change
won, ties counting for neither side. It prints a line starting `gain`
only when at least ten pairs ran, the change won at least nine tenths of
them, and the medians differ in the change's favour by more than the
parent's interquartile range; otherwise a line starting `no gain` says
which condition failed. --json writes the same numbers to a file.

Exit status: 0 when every run succeeded, 2 when one exited non-zero or
printed no readable metric.
"""
import argparse
import json
import statistics
import subprocess
import sys


class RunError(Exception):
    """One run failed or printed no readable metric."""


def read_metric(stdout, name):
    """The metric `name` from the last non-empty line of `stdout`."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise RunError("no output")
    try:
        value = json.loads(lines[-1])["metrics"][name]
    except (ValueError, KeyError, TypeError) as e:
        raise RunError(f"no metric {name!r} in the last line: {e}") from e
    if isinstance(value, dict):
        value = value.get("value")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RunError(f"metric {name!r} is not a number: {value!r}")
    return float(value)


def run(binary, args, metric):
    """Runs `binary args` and returns its metric."""
    cmd = [binary] + args
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RunError(f"{' '.join(cmd)} exited {proc.returncode}: "
                       f"{proc.stderr.strip()[-2000:]}")
    try:
        return read_metric(proc.stdout, metric)
    except RunError as e:
        raise RunError(f"{' '.join(cmd)}: {e}") from e


def summarize(values):
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "values": values}


def verdict(parent, change, better):
    """Wins, and the reason there is or is no gain (None when there is)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent["values"], change["values"])
               if sign * (c - p) > 0)
    pairs = len(parent["values"])
    iqr = parent["q3"] - parent["q1"]
    lead = sign * (change["median"] - parent["median"])
    if pairs < 10:
        return wins, f"only {pairs} pairs ran, fewer than 10"
    if 10 * wins < 9 * pairs:
        return wins, f"the change won {wins}/{pairs} pairs, under 9/10"
    if lead <= iqr:
        return wins, (f"the medians differ by {lead:.6g} in the change's "
                      f"favour, not more than the parent's IQR {iqr:.6g}")
    return wins, None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent binary")
    parser.add_argument("--change", required=True, help="change binary")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--metric", required=True)
    parser.add_argument("--better", choices=["higher", "lower"],
                        default="higher", help="which way the metric improves")
    parser.add_argument("--json", help="write the results here")
    parser.add_argument("args", nargs="*",
                        help="arguments for both binaries, after --")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    values = {"parent": [], "change": []}
    binaries = {"parent": args.parent, "change": args.change}
    try:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                values[side].append(run(binaries[side], args.args, args.metric))
            print(f"pair {i + 1}: parent {values['parent'][-1]:.6g} "
                  f"change {values['change'][-1]:.6g}", flush=True)
    except (RunError, OSError) as e:
        print(f"ab.py: {e}", file=sys.stderr)
        return 2

    parent = summarize(values["parent"])
    change = summarize(values["change"])
    wins, no_gain = verdict(parent, change, args.better)
    print(f"metric {args.metric} ({args.better} is better), "
          f"{args.pairs} pairs")
    for name, s in (("parent", parent), ("change", change)):
        print(f"{name}  median {s['median']:.6g}  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}")
    ratio = (change["median"] / parent["median"]
             if parent["median"] != 0 else float("nan"))
    print(f"change wins {wins}/{args.pairs} pairs; change/parent median "
          f"ratio {ratio:.4g}")
    if no_gain is None:
        print(f"gain: {wins}/{args.pairs} wins, and the medians differ by "
              f"more than the parent's IQR "
              f"{parent['q3'] - parent['q1']:.6g}")
    else:
        print(f"no gain: {no_gain}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"metric": args.metric, "better": args.better,
                       "args": args.args, "pairs": args.pairs,
                       "parent": parent, "change": change, "wins": wins,
                       "gain": no_gain is None}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
