#!/usr/bin/env python3
"""SpeedLLM end-to-end benchmark.

Builds benchmark/serve_bench.cpp against the library, serves the four frozen
workloads through api::Engine, checks their outputs, and prints every
metric by name and unit on two clocks: simulated (sim_*, deterministic per
seed) and host (wall clock, the median of repetitions).

  python3 benchmark/run.py                     # all workloads, 3 reps + a traced rep
  python3 benchmark/run.py --workload kv_pressure --seed 4 --seconds 15 --trace 0
  python3 benchmark/run.py --out parent.json   # save results
  python3 benchmark/run.py --compare parent.json change.json

Each repetition is its own speedllm_bench process, so peak RSS belongs to one
workload and every setup is paid cold. --seconds repeats a workload until
that much time has passed; without it each workload runs --reps times.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
from traced repetitions (spans validated, Chrome-trace JSON kept under
build-benchmark/traces/), and no --trace both. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Exit status: 0 when every output check passed, 1 when one failed, 2 when
speedllm_bench could not be built or run.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "benchmark"
BUILD = ROOT / "build-benchmark"
BENCH = BUILD / "speedllm_bench"
TRACES = BUILD / "traces"
WORKLOADS = ["decode_sampled", "prefill_greedy_15m", "multiturn_chat",
             "kv_pressure"]
MIN_SETUPS = 5          # cold setup samples per run, topped up by --setup-only
REP_TIMEOUT_S = 170
# Reported per repetition but not a BENCHMARK.json metric: it is zero
# whenever the run is correct, and `failed`/`attempted` carry it.
EXTRA_END_TO_END = {"failed_request_share": "share"}


class BenchError(Exception):
    """speedllm_bench could not be built or did not produce a result."""


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# ----------------------------------------------------------------- build

def build():
    """Configures and builds speedllm_bench; raises BenchError with the log."""
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    configure = ["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not (BUILD / "CMakeCache.txt").exists() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", str(BUILD), "--target",
                            "speedllm_bench", "-j", jobs]):
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(cmd)} failed:\n"
                             f"{(proc.stdout + proc.stderr)[-4000:]}")


# ----------------------------------------------------------------- driving

def run_bench(workload, seed, check=False, trace_path=None,
              setup_only=False):
    """One speedllm_bench process; returns its JSON result and exit code."""
    cmd = [str(BENCH), "--workload", workload, "--seed", str(seed)]
    if check:
        cmd.append("--check")
    if trace_path is not None:
        cmd += ["--trace-out", str(trace_path)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload}: speedllm_bench timed out") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"{workload}: speedllm_bench exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["returncode"] = proc.returncode
    return result


def summarize(values):
    """Median and quartiles as statistics.quantiles(n=4) gives them."""
    values = list(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "values": values}


def measure(workload, seed, spec, seconds=None, reps=3, trace=None):
    """Runs one workload. trace: 0 end-to-end only, 1 per-layer only,
    None both. With `seconds`, repeats until that much time has passed."""
    start = time.monotonic()

    def more(done, minimum):
        if done < minimum:
            return True
        return seconds is not None and time.monotonic() - start < seconds

    untraced, traced, errors = [], [], []

    def serve(trace_path=None):
        rep = run_bench(workload, seed, check=not untraced and not traced,
                         trace_path=trace_path)
        (traced if trace_path else untraced).append(rep)
        if trace_path:
            errors.extend(validate_trace(trace_path))

    TRACES.mkdir(parents=True, exist_ok=True)
    trace_path = TRACES / f"{workload}.json"
    if trace == 1:
        # Untraced partners give bench.trace_overhead.
        while more(len(traced), 1):
            serve()
            serve(trace_path)
    else:
        while more(len(untraced), 1 if seconds is not None else reps):
            serve()
        setups = [r["metrics"]["setup_s"] for r in untraced]
        while len(setups) < MIN_SETUPS:
            rep = run_bench(workload, seed, setup_only=True)
            setups.append(rep["metrics"]["setup_s"])
        if trace is None:
            serve(trace_path)
    served = untraced + traced

    checks = [r["check"] for r in served]
    if checks[0] != "pass":
        errors.append(f"output check: {checks[0]}")
    if any(r["returncode"] != 0 for r in served):
        errors.append("a repetition exited nonzero")
    if len({r["digest"] for r in served}) != 1:
        errors.append("trace digest differs between repetitions")
    for m in spec["end_to_end"]:
        if m["name"].startswith("sim_") and \
                len({r["metrics"][m["name"]] for r in served}) != 1:
            errors.append(f"{m['name']} differs between repetitions of one "
                          "seed")

    result = {
        "workload": workload, "seed": seed,
        "digest": served[0]["digest"],
        "attempted": sum(r["attempted"] for r in served),
        "failed": sum(r["failed"] for r in served),
        "tail_quantile": served[0]["metrics"]["tail_quantile"],
        "errors": errors,
        "end_to_end": {}, "per_layer": {},
    }
    if untraced and trace != 1:
        for m in spec["end_to_end"]:
            values = setups if m["name"] == "setup_s" else \
                [r["metrics"][m["name"]] for r in untraced]
            result["end_to_end"][m["name"]] = dict(summarize(values),
                                                   unit=m["unit"])
        for name, unit in EXTRA_END_TO_END.items():
            result["end_to_end"][name] = dict(
                summarize(r["metrics"][name] for r in untraced), unit=unit)
    if traced:
        overhead = statistics.median(
            r["metrics"]["host_tokens_per_s"] for r in untraced) / \
            statistics.median(r["metrics"]["host_tokens_per_s"]
                              for r in traced)
        for m in spec["per_layer"]:
            values = [overhead] if m["name"] == "bench.trace_overhead" else \
                [r["metrics"][m["name"]] for r in traced]
            result["per_layer"][m["name"]] = dict(summarize(values),
                                                  unit=m["unit"])
    result["correct"] = not errors and result["failed"] == 0
    return result


# ----------------------------------------------------------------- traces

def validate_trace(path):
    """Checks a Chrome-trace span file: begin/end events pair up in LIFO
    order with non-decreasing timestamps, each span's parent is the span
    open around it, every api.Submit names a fresh request id, and every
    client.on_finish names a submitted, not yet finished request. Returns
    a list of problems (empty when valid)."""
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        return [f"{path}: unreadable trace ({e})"]
    problems, stack, seen = [], [], set()
    submitted, finished = set(), set()
    last_ts = float("-inf")
    for i, ev in enumerate(events):
        args = ev.get("args", {})
        span, name = args.get("span"), ev.get("name")
        if ev.get("ts", last_ts) < last_ts:
            problems.append(f"event {i}: time runs backwards")
        last_ts = ev.get("ts", last_ts)
        if ev.get("ph") == "B":
            parent = stack[-1]["args"]["span"] if stack else 0
            if span in seen:
                problems.append(f"event {i}: span {span} opened twice")
            if args.get("parent") != parent:
                problems.append(f"event {i}: {name} parent "
                                f"{args.get('parent')} is not the enclosing "
                                f"span {parent}")
            seen.add(span)
            stack.append(ev)
            request = args.get("request")
            if name == "api.Submit":
                if request in submitted:
                    problems.append(f"event {i}: request {request} "
                                    "submitted twice")
                submitted.add(request)
            elif name == "client.on_finish":
                if request not in submitted or request in finished:
                    problems.append(f"event {i}: finish for request "
                                    f"{request} without one open submit")
                finished.add(request)
        elif ev.get("ph") == "E":
            if not stack or stack[-1]["args"]["span"] != span or \
                    stack[-1]["name"] != name:
                problems.append(f"event {i}: {name} end does not close the "
                                "innermost open span")
            else:
                stack.pop()
        else:
            problems.append(f"event {i}: unexpected phase {ev.get('ph')}")
    if stack:
        problems.append(f"{len(stack)} span(s) never closed")
    if submitted != finished:
        problems.append(f"{len(submitted - finished)} submitted request(s) "
                        "never finished")
    return problems


# ----------------------------------------------------------------- compare

def verdict(metric, parent, change, same_seed):
    """Classifies one metric of one workload against its bound.

    sim_* metrics at the same seed must match exactly ("changed" if not).
    Otherwise the result is "unresolved" when either side's quartile spread
    exceeds the bound (unless every change run beats every parent run),
    "regression" or "better" when the medians differ by more than the
    bound, and "same" otherwise."""
    bound, lower = metric["bound"], metric["better"] == "lower"
    p, c = parent["median"], change["median"]
    if metric["name"].startswith("sim_") and same_seed:
        return "same" if p == c else "changed"
    worse = ((c - p) if lower else (p - c)) / p
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (parent, change))
    if spread > bound:
        beats = (max(change["values"]) < min(parent["values"])) if lower \
            else (min(change["values"]) > max(parent["values"]))
        return "better" if beats else "unresolved"
    if worse > bound:
        return "regression"
    return "better" if -worse > bound else "same"


def compare(parent_path, change_path, spec):
    with open(parent_path) as f:
        parent = json.load(f)
    with open(change_path) as f:
        change = json.load(f)
    failing = False
    same_seed = parent["seed"] == change["seed"]
    print(f"{'workload':20s} {'metric':20s} {'parent':>12s} {'change':>12s} "
          f"{'delta':>8s} {'bound':>6s}  verdict")
    for w, pw in parent["workloads"].items():
        cw = change["workloads"].get(w)
        if cw is None:
            continue
        for m in spec["end_to_end"]:
            pm, cm = pw["end_to_end"].get(m["name"]), \
                cw["end_to_end"].get(m["name"])
            if pm is None or cm is None:
                continue
            v = verdict(m, pm, cm, same_seed)
            failing |= v in ("regression", "changed")
            delta = (cm["median"] - pm["median"]) / pm["median"]
            print(f"{w:20s} {m['name']:20s} {pm['median']:12.6g} "
                  f"{cm['median']:12.6g} {delta:+8.2%} {m['bound']:6.2f}  {v}")
    return 1 if failing else 0


# ----------------------------------------------------------------- report

def print_report(result):
    w = result["workload"]
    print(f"\n== {w} (seed {result['seed']}, trace digest "
          f"{result['digest']}, {result['attempted']} requests attempted, "
          f"{result['failed']} failed, tail = p"
          f"{round(result['tail_quantile'] * 100)})")
    if result["end_to_end"]:
        print(f"  {'end-to-end metric':34s} {'unit':8s} {'median':>12s} "
              f"{'q1':>12s} {'q3':>12s}  n")
        for name, s in result["end_to_end"].items():
            print(f"  {name:34s} {s['unit']:8s} {s['median']:12.6g} "
                  f"{s['q1']:12.6g} {s['q3']:12.6g}  {len(s['values'])}")
    if result["per_layer"]:
        print(f"  {'per-layer metric (traced)':42s} {'unit':8s} "
              f"{'median':>12s}")
        for name, s in result["per_layer"].items():
            print(f"  {name:42s} {s['unit']:8s} {s['median']:12.6g}")
    for e in result["errors"]:
        print(f"  ERROR: {e}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="repeat each workload for this long")
    parser.add_argument("--reps", type=int, default=3,
                        help="repetitions per workload without --seconds")
    parser.add_argument("--trace", type=int, choices=[0, 1], nargs="?",
                        const=1, help="0: end-to-end only, 1: per-layer only")
    parser.add_argument("--out", help="write results JSON here")
    parser.add_argument("--compare", nargs=2,
                        metavar=("PARENT_JSON", "CHANGE_JSON"))
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
        if args.compare:
            return compare(*args.compare, spec)
        build()
        results = [measure(w, args.seed, spec, args.seconds, args.reps,
                           args.trace)
                   for w in (args.workload or WORKLOADS)]
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 2

    for r in results:
        print_report(r)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seed": args.seed,
                       "workloads": {r["workload"]: r for r in results}},
                      f, indent=1)
    single = len(results) == 1
    metrics = {}
    for r in results:
        for kind in ("end_to_end", "per_layer"):
            for m in spec[kind]:
                s = r[kind].get(m["name"])
                if s is not None:
                    key = m["name"] if single else f"{r['workload']}/{m['name']}"
                    metrics[key] = {"value": s["median"], "unit": s["unit"]}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
