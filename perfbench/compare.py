#!/usr/bin/env python3
"""Collects and compares sets of benchmark results.

Collect a set (one run per workload x seed), from the root of a checkout:

    python3 perfbench/compare.py collect base.jsonl --seeds 1-10
    python3 perfbench/compare.py collect base.jsonl --seeds 1-5 \\
        --workloads push-durable --trace 1

Each line of the set file is {"workload", "seed", "trace", "result"}, where
"result" is the JSON line run.py printed. Summarize one set, or compare two:

    python3 perfbench/compare.py diff base.jsonl
    python3 perfbench/compare.py diff base.jsonl head.jsonl

For every workload x metric, diff prints the median and quartiles of each
set (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median. For
end-to-end metrics it checks them against the bound in BENCHMARK.json:
each set's spread must be within the bound, and two sets agree when the
second median is not worse than the first by more than the bound.
Per-layer metrics have no bound and are only reported. Exit status 1
when any check fails. Every run lasts run_seconds from BENCHMARK.json,
so two sets always compare runs of the same length.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_config():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        config = json.load(f)
    metrics = {m["name"]: m for m in config["end_to_end"]}
    metrics.update({m["name"]: m for m in config["per_layer"]})
    return config, metrics


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args, config):
    workloads = args.workloads or [w["name"] for w in config["workloads"]]
    failures = 0
    with open(args.out, "a") as out:
        for workload in workloads:
            for seed in parse_seeds(args.seeds):
                command = [sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(config["run_seconds"]),
                           "--trace", str(args.trace)]
                done = subprocess.run(command, stdout=subprocess.PIPE,
                                      text=True)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    failures += 1
                    print("%s seed %d: run failed (exit %d)"
                          % (workload, seed, done.returncode),
                          file=sys.stderr)
                    continue
                result = json.loads(lines[-1])
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "trace": args.trace,
                                      "result": result}) + "\n")
                out.flush()
                print("%s seed %d: correct=%s attempted=%d"
                      % (workload, seed, result["correct"],
                         result["attempted"]), file=sys.stderr)
    return 1 if failures else 0


def load_set(path):
    """{workload: {metric: [values]}} plus the incorrect-run count."""
    values = {}
    incorrect = 0
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            row = json.loads(line)
            result = row["result"]
            if not result["correct"]:
                incorrect += 1
            metrics = values.setdefault(row["workload"], {})
            for name, metric in result["metrics"].items():
                metrics.setdefault(name, []).append(metric["value"])
    return values, incorrect


def summary(values):
    if len(values) < 2:
        value = values[0] if values else float("nan")
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(q1, median, q3):
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(median) if median else float("inf")


def worse_by(metric, base, head):
    """How much worse head's median is than base's, as a share of base."""
    if base == 0:
        return 0.0 if head == base else float("inf")
    change = (head - base) / abs(base)
    return change if metric.get("better") == "lower" else -change


def diff(args, metrics):
    sets = [load_set(path) for path in args.sets]
    ok = True
    for path, (_, incorrect) in zip(args.sets, sets):
        if incorrect:
            ok = False
            print("%s: %d incorrect runs" % (path, incorrect))
    workloads = sorted(set().union(*(s[0].keys() for s in sets)))
    for workload in workloads:
        print("\n== %s" % workload)
        header = "%-30s %12s %12s %12s %7s" % ("metric", "q1", "median",
                                                "q3", "spread")
        if len(sets) == 2:
            header += " %12s %9s %7s %7s" % ("median(B)", "spread(B)",
                                              "worse", "bound")
        print(header + "  verdict")
        names = sorted(set().union(*(s[0].get(workload, {}).keys()
                                     for s in sets)))
        for name in names:
            metric = metrics.get(name, {})
            bound = metric.get("bound")
            base = sets[0][0].get(workload, {}).get(name, [])
            q1, med, q3 = summary(base)
            s = spread(q1, med, q3)
            line = "%-30s %12.5g %12.5g %12.5g %7.3f" % (name, q1, med, q3, s)
            verdicts = []
            if bound is not None and s > bound:
                verdicts.append("spread>bound")
            if len(sets) == 2:
                head = sets[1][0].get(workload, {}).get(name, [])
                q1_b, med_b, q3_b = summary(head)
                s_b = spread(q1_b, med_b, q3_b)
                w = worse_by(metric, med, med_b)
                line += " %12.5g %9.3f %7.3f %7s" % (
                    med_b, s_b, w, "-" if bound is None else "%.3f" % bound)
                if bound is not None and s_b > bound:
                    verdicts.append("spread(B)>bound")
                if bound is not None:
                    verdicts.append("worse>bound" if w > bound else "agree")
            if bound is None:
                verdicts = verdicts or ["-"]
            elif not verdicts:
                verdicts = ["ok"]
            if any(v.endswith(">bound") for v in verdicts):
                ok = False
            print(line + "  " + ",".join(verdicts))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[2:]))
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("collect", help="run workloads x seeds")
    run.add_argument("out", help="set file to append to (JSON lines)")
    run.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    run.add_argument("--workloads", nargs="*")
    run.add_argument("--trace", type=int, default=0, choices=(0, 1))
    compare = commands.add_parser("diff", help="summarize or compare sets")
    compare.add_argument("sets", nargs="+", help="one or two set files")
    args = parser.parse_args()
    config, metrics = load_config()
    if args.command == "collect":
        return collect(args, config)
    if len(args.sets) > 2:
        parser.error("diff takes one or two set files")
    return diff(args, metrics)


if __name__ == "__main__":
    sys.exit(main())
