#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the perfbench binary (and the hwstar
library under it) from source into .bench_build/perfbench, runs the named
workload in its own process with its scratch files under .bench_data/, and
prints, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 its per_layer metrics. The full record (host stamp, every metric
with its unit and sample count, every correctness check) is kept in
.bench_data/results/ for perfbench/compare.py.

Exits non-zero without a result line when the build fails, the workload
fails, or it finds outputs it cannot trust (an end-to-end metric with no
value). A phase whose load generator fell behind its schedule has its
latencies recorded as null, and the reason is printed to stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("kv_serve", "tpcc_txn", "stream_enrich")

# Layers each workload never calls. Their per-layer metrics read 0 (the
# layer did no work); any other metric missing from a record is an error.
BYPASSED = {
    "kv_serve": ("txn.", "stream."),
    "tpcc_txn": ("stream.",),
    "stream_enrich": ("svc.", "kv.", "dur.", "txn."),
}

BUILD_DIR = os.path.join(".bench_build", "perfbench")
DATA_DIR = ".bench_data"
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no hwstar sources (src/CMakeLists.txt) next to perfbench/", 2)
    build_dir = os.path.join(root, BUILD_DIR)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 2)
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    # Write the build's dirty pages back now, not during the measurement,
    # where they would compete with the WAL's fdatasyncs.
    os.sync()
    return os.path.join(build_dir, "perfbench")


def select_metrics(spec, record, workload, trace):
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    have = record["metrics"]
    out = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name in have:
            if have[name]["unit"] != unit:
                fail(f"{name}: unit {have[name]['unit']} != {unit}")
            if have[name]["value"] is None:
                fail(f"{name} is unbounded (too many requests failed)", 3)
            out[name] = {"value": have[name]["value"], "unit": unit}
        elif trace and name.startswith(BYPASSED[workload]):
            out[name] = {"value": 0, "unit": unit}
        else:
            fail(f"{workload} did not report {name}")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative", 2)

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build(root)

    work_dir = os.path.join(root, DATA_DIR, args.workload)
    results_dir = os.path.join(root, DATA_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record_path = os.path.join(results_dir, stem + ".json")
    if os.path.exists(record_path):
        os.remove(record_path)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--out", record_path]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0 or not os.path.isfile(record_path):
        fail(f"{args.workload} exited with code {proc.returncode}")
    with open(record_path) as f:
        record = json.load(f)
    for why in record["invalid"]:
        print(f"perfbench: latencies recorded as null: {why}", file=sys.stderr)

    metrics = select_metrics(spec, record, args.workload, args.trace)
    record["selected"] = metrics
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1)
    sys.stdout.flush()
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
