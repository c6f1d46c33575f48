#!/usr/bin/env python3
"""Build and run the NNQS end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload c2h4o-r4 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload h2o-table1 --seed 1 --repeat 5
    python3 perfbench/run.py --help

The first call configures and builds the library and the benchmark binary
(Release) under .bench_build/perfbench; later calls rebuild only what
changed.  A single run prints the binary's output, whose last line is one
JSON object {correct, attempted, failed, metrics}.  --repeat K runs the
workload K times with seeds seed..seed+K-1 and prints each metric's median,
quartiles and quartile spread as a share of the median, then a JSON summary.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ["c2h4o-r4", "h2o-table1"]
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "nnqs_perfbench")
WORK_DIR = os.path.join(".bench_build", "run")
# A cold build of the library takes about half a minute on 4 cores.
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(
        allow_abbrev=False,
        description="NNQS end-to-end benchmark: VMC iterations and amplitude serving.",
        epilog="workloads: " + ", ".join(WORKLOADS) + " (see perfbench/README.md)")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int, help="workload seed (>= 0)")
    p.add_argument("--seconds", type=int, default=30, help="measured time of one run (1-60)")
    p.add_argument("--trace", type=int, default=0, choices=[0, 1],
                   help="1: traced run with per-layer metrics and a span file")
    p.add_argument("--repeat", type=int, default=1,
                   help="run K times with seeds seed..seed+K-1 and summarise")
    a = p.parse_args()  # rejects unknown flags with exit code 2
    if a.seed < 0:
        p.error("--seed must be >= 0")
    if not 1 <= a.seconds <= 60:
        p.error("--seconds must be in [1, 60]")
    if a.repeat < 1:
        p.error("--repeat must be >= 1")
    return a


def build():
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        fail("run from the repository root: no CMakeLists.txt and src/ here to build from")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    log = sys.stderr
    try:
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=log, stderr=log, check=True, timeout=BUILD_TIMEOUT_S)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "nnqs_perfbench",
                        "-j", jobs],
                       stdout=log, stderr=log, check=True, timeout=BUILD_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")


def run_once(workload, seed, seconds, trace, echo):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", WORK_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if echo:
        sys.stdout.write(proc.stdout)
    if proc.returncode != 0 or not lines:
        fail(f"{workload} seed {seed} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def summarise(results):
    names = list(results[0]["metrics"])
    summary = {}
    print(f"{'metric':28s} {'unit':6s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'iqr/med':>8s}")
    for name in names:
        vals = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": unit,
                         "n": len(vals)}
        print(f"{name:28s} {unit:6s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}")
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"correct: {all(r['correct'] for r in results)}; failed/attempted shares: {shares}")
    return {"runs": len(results), "correct": all(r["correct"] for r in results),
            "failed_shares": shares, "metrics": summary}


def main():
    a = parse_args()
    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    if a.repeat == 1:
        run_once(a.workload, a.seed, a.seconds, a.trace, echo=True)
        return
    results = []
    for k in range(a.repeat):
        r = run_once(a.workload, a.seed + k, a.seconds, a.trace, echo=False)
        print(f"seed {a.seed + k}: {json.dumps(r)}", flush=True)
        results.append(r)
    print(json.dumps(summarise(results)))


if __name__ == "__main__":
    main()
