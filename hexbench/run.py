#!/usr/bin/env python3
"""Runs one hextile benchmark workload and prints its result as JSON.

    python3 hexbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a hextile checkout. The first run configures and
builds hexbench/ (the hextile library from the checkout's sources plus the
hextile_bench driver) into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later runs only re-check the build. The driver then runs the workload
for --seconds, and the last line of standard output is one JSON object:

    {"correct": true, "attempted": 120, "failed": 0,
     "metrics": {"setup_s": {"value": 0.0004, "unit": "s"}, ...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 its per_layer list, and the Chrome trace of the run is kept under
<build dir>/traces/. The driver leaves out a per-layer metric whose layer
the workload does not exercise; the result line, which lists every declared
metric, gives it 0. Build output and diagnostics go to standard error. The
exit code is 0 only when the run produced a result and every operation and
check in it succeeded.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
REQUIRED = ["BENCHMARK.json", "hexbench/CMakeLists.txt", "src/CMakeLists.txt",
            "tests/harness/StencilOracle.cpp", "bench/BenchSupport.h"]


class BenchError(Exception):
    """A run that produced no result."""


def run_bounded(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the whole group and waits
    for it when the timeout expires. Returns the exit code, or None on a
    timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build(root, build_dir, log):
    """Configures (once) and builds the driver; returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    binary = os.path.join(build_dir, "hextile_bench")
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", os.path.join(root, "hexbench"), "-B",
                   build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if run_bounded(cmd, BUILD_TIMEOUT_S, stdout=log, stderr=log) != 0:
                raise BenchError("configuring hexbench failed")
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", build_dir, "--target", "hextile_bench",
               "-j", jobs]
        if run_bounded(cmd, BUILD_TIMEOUT_S, stdout=log, stderr=log) != 0:
            raise BenchError("building hextile_bench failed")
    return binary


def run_workload(root, workload, seed, seconds, trace, log=sys.stderr):
    """Builds hexbench if needed and runs one workload once, its output
    going to log. Returns the result object and the names of the metrics
    the driver reported; raises BenchError when the run gave no result."""
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(root, p))]
    if missing:
        raise BenchError("not the root of a hextile checkout (missing %s)" %
                         ", ".join(missing))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]

    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "hexbench")
    binary = build(root, build_dir, log)

    work = os.path.join(build_dir, "work", str(os.getpid()))
    tmp = os.path.join(work, "tmp")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(tmp)
    report = os.path.join(work, "result.json")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--json", report,
           "--work-dir", os.path.join(work, "state")]
    if trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace", os.path.join(
            traces, "%s-seed%d.json" % (workload, seed))]
    # The JIT compiler's scratch files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=tmp)
    try:
        code = run_bounded(cmd, RUN_TIMEOUT_S, stdout=log, stderr=log,
                           env=env, cwd=root)
        if code is None:
            raise BenchError("hextile_bench exceeded %d s" % RUN_TIMEOUT_S)
        if not os.path.exists(report):
            raise BenchError("hextile_bench exited %d without a result" % code)
        with open(report) as f:
            rows = json.load(f)["results"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary = next(r for r in rows if r.get("summary") == "run")
    values = {r["metric"]: r["value"] for r in rows if "metric" in r}
    absent = [m["name"] for m in declared if m["name"] not in values]
    if absent and not trace:
        raise BenchError("hextile_bench did not report %s" % ", ".join(absent))
    result = {
        "correct": bool(summary["correct"]) and code == 0,
        "attempted": int(summary["attempted"]),
        "failed": int(summary["failed"]),
        "metrics": {m["name"]: {"value": values.get(m["name"], 0),
                                "unit": m["unit"]} for m in declared},
    }
    reported = [m["name"] for m in declared if m["name"] in values]
    return result, reported


def main():
    # A terminated runner still stops and reaps the driver (run_bounded
    # kills its process group on the way out).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        sys.exit(2)
    try:
        result, _ = run_workload(os.getcwd(), args.workload, args.seed,
                                 args.seconds, args.trace)
    except BenchError as e:
        print("error: %s" % e, file=sys.stderr)
        sys.exit(2)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
