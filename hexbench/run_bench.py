#!/usr/bin/env python3
"""Repeated runs, summaries and comparisons of the hextile benchmark.

Subcommands (run from anywhere; stdlib only):

  run      N runs per workload through run.py, a different seed per run and
           the workload order reversed on every other run; writes one JSON
           line per run to <out>/runs.jsonl and prints each metric's median,
           quartiles, spread and sample count.
             run_bench.py run --runs 10 --out results/a [--workloads w1,w2]
                              [--seed-base 1000] [--trace]
  summary  re-prints the summary of a result directory (--markdown writes
           it as a BENCH_trend-style table, one column per directory).
             run_bench.py summary results/a [results/b ...] [--markdown f.md]
  compare  checks result set B against result set A with BENCHMARK.json's
           bounds. A metric whose run-to-run spread is wider than its bound
           is reported as unresolved, not as unchanged, unless every run of
           B reads better than every run of A.
             run_bench.py compare results/a results/b
  check-declared
           fails unless BENCHMARK.json declares exactly the metrics (names,
           units, kinds) the driver's catalog lists.
             run_bench.py check-declared --binary .bench_build/hexbench/hextile_bench

The spread of a metric is the distance between its first and third
quartile, as statistics.quantiles(values, n=4) gives them, over its median.
run, summary and compare exit non-zero when any run failed an operation.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_runs(directory):
    with open(os.path.join(directory, "runs.jsonl")) as f:
        return [json.loads(line) for line in f if line.strip()]


def stats(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "n": len(values)}


def collect(runs):
    """{(workload, metric): ([values], unit)} over the runs, leaving out the
    metrics a run's driver did not report (the layers its workload does not
    exercise, which the result line fills with 0)."""
    table = {}
    for r in runs:
        reported = set(r.get("reported", r["result"]["metrics"]))
        for name, m in r["result"]["metrics"].items():
            if name not in reported:
                continue
            entry = table.setdefault((r["workload"], name), ([], m["unit"]))
            entry[0].append(m["value"])
    return table


def failures(runs):
    return [r for r in runs
            if r["result"]["failed"] > 0 or not r["result"]["correct"]]


def print_summary(runs):
    spec = load_spec()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print("%-14s %-34s %14s %14s %14s %8s %4s %s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "n", "unit"))
    for (workload, name), (values, unit) in sorted(collect(runs).items()):
        s = stats(values)
        flag = ""
        bound = bounds.get(name)
        if bound is not None and name != "setup_s" and s["spread"] > bound / 3:
            flag = "  (spread above a third of the %.2f bound)" % bound
        spread = ("%7.2f%%" % (100 * s["spread"]) if s["median"]
                  else "     n/a")
        print("%-14s %-34s %14.6g %14.6g %14.6g %s %4d %s%s" % (
            workload, name, s["median"], s["q1"], s["q3"], spread, s["n"],
            unit, flag))
    for r in failures(runs):
        print("FAILED: %s seed %d: %d of %d operations failed" % (
            r["workload"], r["seed"], r["result"]["failed"],
            r["result"]["attempted"]))


def cmd_run(args):
    spec = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "runs.jsonl")
    runs = []
    seconds = args.seconds or spec["run_seconds"]
    with open(path, "a") as out, open(os.devnull, "w") as log:
        for i in range(args.runs):
            order = workloads if i % 2 == 0 else list(reversed(workloads))
            for w in order:
                seed = args.seed_base + i
                try:
                    result, reported = run.run_workload(
                        ROOT, w, seed, seconds, args.trace, log=log)
                except run.BenchError as e:
                    print("error: %s seed %d: %s" % (w, seed, e),
                          file=sys.stderr)
                    return 1
                record = {"workload": w, "seed": seed, "run": i,
                          "result": result, "reported": reported}
                out.write(json.dumps(record) + "\n")
                out.flush()
                runs.append(record)
                print("run %d %-13s seed %d: %s" % (
                    i, w, seed, "ok" if record["result"]["correct"]
                    else "FAILED"), file=sys.stderr)
    print_summary(runs)
    return 1 if failures(runs) else 0


def cmd_summary(args):
    all_runs = [load_runs(d) for d in args.dirs]
    for d, runs in zip(args.dirs, all_runs):
        print("== %s (%d runs)" % (d, len(runs)))
        print_summary(runs)
    if args.markdown:
        tables = [collect(runs) for runs in all_runs]
        keys = sorted(set().union(*tables))
        with open(args.markdown, "w") as f:
            f.write("# hextile_bench trend\n\n")
            f.write("Median over runs (spread = IQR / median).\n\n")
            f.write("| workload | metric | unit | " +
                    " | ".join(os.path.basename(d.rstrip("/"))
                               for d in args.dirs) + " |\n")
            f.write("|---|---|---|" + "---|" * len(args.dirs) + "\n")
            for key in keys:
                cells = []
                unit = ""
                for t in tables:
                    if key in t:
                        s = stats(t[key][0])
                        unit = t[key][1]
                        cells.append("%.4g (%.1f%%)" % (s["median"],
                                                       100 * s["spread"]))
                    else:
                        cells.append("-")
                f.write("| %s | %s | %s | %s |\n" % (key[0], key[1], unit,
                                                     " | ".join(cells)))
        print("wrote %s" % args.markdown)
    return 1 if any(failures(r) for r in all_runs) else 0


def cmd_compare(args):
    spec = load_spec()
    base, new = collect(load_runs(args.a)), collect(load_runs(args.b))
    regressions = 0
    print("%-14s %-14s %12s %12s %9s %8s  %s" % (
        "workload", "metric", "A median", "B median", "change", "bound",
        "verdict"))
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        higher = metric["better"] == "higher"
        for w in [w["name"] for w in spec["workloads"]]:
            if (w, name) not in base or (w, name) not in new:
                continue
            a, b = base[(w, name)][0], new[(w, name)][0]
            sa, sb = stats(a), stats(b)
            change = (sb["median"] - sa["median"]) / abs(sa["median"])
            worse = -change if higher else change
            all_better = (min(b) > max(a)) if higher else (max(b) < min(a))
            if max(sa["spread"], sb["spread"]) > bound and not all_better:
                verdict = "unresolved (spread %.1f%%)" % (
                    100 * max(sa["spread"], sb["spread"]))
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif worse < -bound:
                verdict = "improved"
            else:
                verdict = "within bound"
            print("%-14s %-14s %12.6g %12.6g %+8.1f%% %7.0f%%  %s" % (
                w, name, sa["median"], sb["median"], 100 * change,
                100 * bound, verdict))
    failed = failures(load_runs(args.a)) + failures(load_runs(args.b))
    for r in failed:
        print("FAILED: %s seed %d" % (r["workload"], r["seed"]))
    return 1 if regressions or failed else 0


def cmd_check_declared(args):
    spec = load_spec()
    declared = {(kind, m["name"], m["unit"])
                for kind in ("end_to_end", "per_layer") for m in spec[kind]}
    out = subprocess.run([args.binary, "--list-metrics"], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    # "kind name unit workloads": the workload list is the driver's own.
    emitted = {tuple(line.split()[:3]) for line in out.splitlines() if line}
    for kind, name, unit in sorted(declared - emitted):
        print("declared but not emitted: %s %s %s" % (kind, name, unit))
    for kind, name, unit in sorted(emitted - declared):
        print("emitted but not declared: %s %s %s" % (kind, name, unit))
    return 0 if declared == emitted else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out", required=True)
    p.add_argument("--workloads")
    p.add_argument("--seed-base", type=int, default=1000)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", action="store_true")
    p = sub.add_parser("summary")
    p.add_argument("dirs", nargs="+")
    p.add_argument("--markdown")
    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    p = sub.add_parser("check-declared")
    p.add_argument("--binary", required=True)
    args = parser.parse_args()
    return {"run": cmd_run, "summary": cmd_summary, "compare": cmd_compare,
            "check-declared": cmd_check_declared}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
