#!/usr/bin/env python3
"""Alternates two builds of one program and compares one or more metrics.

  python3 tools/ab.py --parent parent/speedllm_bench --change speedllm_bench \\
      --pairs 10 --metric host_tokens_per_s setup_s --better higher lower \\
      -- --workload prefill_greedy_15m --seed 1

Each pair runs `<parent> <args>` and `<change> <args>` once, alternating
which side runs first (even pairs the parent, odd pairs the change), so a
drift in the machine's load falls on both sides alike. Every run's last
non-empty line of standard output is one JSON object; every listed metric
is read from its "metrics" object, either as a number or as
{"value": x}, so one set of runs serves every metric. --better gives one
direction for all metrics or one per metric.

The report gives, per metric, each side's median and quartiles (as
statistics.quantiles(n=4) computes them) and how many pairs the change
won, ties counting for neither side. It prints a line starting `gain`
only when at least ten pairs ran, the change won at least nine tenths of
them, and the medians differ in the change's favour by more than the
parent's interquartile range; otherwise a line starting `no gain` says
which condition failed. --json writes the same numbers to a file, one
entry per metric under "metrics".

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


def run(binary, args, metrics):
    """Runs `binary args` and returns each of its `metrics`, in order."""
    cmd = [binary] + args
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RunError(f"{' '.join(cmd)} exited {proc.returncode}: "
                       f"{proc.stderr.strip()[-2000:]}")
    try:
        return [read_metric(proc.stdout, metric) for metric in metrics]
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


def report(metric, better, parent_values, change_values):
    """Prints one metric's comparison and returns its JSON entry."""
    parent = summarize(parent_values)
    change = summarize(change_values)
    pairs = len(parent_values)
    wins, no_gain = verdict(parent, change, better)
    print(f"metric {metric} ({better} is better), {pairs} pairs")
    for name, s in (("parent", parent), ("change", change)):
        print(f"{name}  median {s['median']:.6g}  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}")
    ratio = (change["median"] / parent["median"]
             if parent["median"] != 0 else float("nan"))
    print(f"change wins {wins}/{pairs} pairs; change/parent median "
          f"ratio {ratio:.4g}")
    if no_gain is None:
        print(f"gain: {wins}/{pairs} wins, and the medians differ by "
              f"more than the parent's IQR "
              f"{parent['q3'] - parent['q1']:.6g}")
    else:
        print(f"no gain: {no_gain}")
    return {"better": better, "parent": parent, "change": change,
            "wins": wins, "gain": no_gain is None}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent binary")
    parser.add_argument("--change", required=True, help="change binary")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--metric", required=True, nargs="+",
                        help="the metrics to compare")
    parser.add_argument("--better", choices=["higher", "lower"], nargs="+",
                        default=["higher"],
                        help="which way each metric improves: one for all, "
                             "or one per metric")
    parser.add_argument("--json", help="write the results here")
    parser.add_argument("args", nargs="*",
                        help="arguments for both binaries, after --")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if len(args.better) not in (1, len(args.metric)):
        parser.error("--better takes one direction or one per metric")
    better = (args.better * len(args.metric) if len(args.better) == 1
              else args.better)

    # values[side][m]: metric m's value in each of that side's runs.
    values = {"parent": [[] for _ in args.metric],
              "change": [[] for _ in args.metric]}
    binaries = {"parent": args.parent, "change": args.change}
    try:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                for column, value in zip(
                        values[side], run(binaries[side], args.args,
                                          args.metric)):
                    column.append(value)
            print(f"pair {i + 1}: " + "; ".join(
                f"{metric} parent {values['parent'][m][-1]:.6g} "
                f"change {values['change'][m][-1]:.6g}"
                for m, metric in enumerate(args.metric)), flush=True)
    except (RunError, OSError) as e:
        print(f"ab.py: {e}", file=sys.stderr)
        return 2

    results = {metric: report(metric, better[m], values["parent"][m],
                              values["change"][m])
               for m, metric in enumerate(args.metric)}
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"args": args.args, "pairs": args.pairs,
                       "metrics": results}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
