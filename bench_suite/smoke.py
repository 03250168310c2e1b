#!/usr/bin/env python3
"""Smoke test of bench_suite, registered with ctest as bench_suite_quick.

Usage: smoke.py --bench PATH --trace-validate PATH --benchmark-json PATH

Runs `bench_suite --quick` over all four workloads, untraced and traced. Fails
on a non-zero exit, an incorrect result, fail_frac > 0, trace.dropped > 0, a
result whose metrics are not exactly the ones BENCHMARK.json names, or a span
file trace_validate rejects.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", required=True)
    ap.add_argument("--trace-validate", required=True)
    ap.add_argument("--benchmark-json", required=True)
    args = ap.parse_args()

    bench = json.loads(Path(args.benchmark_json).read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    expected = {0: {m["name"] for m in bench["end_to_end"]}, 1: {m["name"] for m in bench["per_layer"]}}
    trace_dir = Path("bench_suite_traces")
    errors = []

    for trace in (0, 1):
        cmd = [args.bench, "--quick", "--seed", "7", "--trace", str(trace), "--trace-dir", str(trace_dir)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            errors.append(f"trace={trace}: exit code {proc.returncode}")
        rows = {}
        results = []
        for line in proc.stdout.splitlines():
            if line.startswith("{"):
                doc = json.loads(line)
                if "metrics" in doc:
                    results.append(doc)
                continue
            fields = line.split()
            if len(fields) == 4:
                rows[(fields[0], fields[1])] = float(fields[2])
        if len(results) != len(workloads):
            errors.append(f"trace={trace}: {len(results)} results for {len(workloads)} workloads")
        for w, doc in zip(workloads, results):
            if not doc["correct"] or doc["failed"] != 0 or doc["attempted"] < 1:
                errors.append(f"trace={trace} {w}: correct={doc['correct']} failed={doc['failed']}")
            if set(doc["metrics"]) != expected[trace]:
                missing = sorted(expected[trace] - set(doc["metrics"]))
                extra = sorted(set(doc["metrics"]) - expected[trace])
                errors.append(f"trace={trace} {w}: missing {missing}, unexpected {extra}")
            if rows.get((w, "fail_frac")) != 0:
                errors.append(f"trace={trace} {w}: fail_frac={rows.get((w, 'fail_frac'))}")
            if trace and rows.get((w, "trace.dropped")) != 0:
                errors.append(f"{w}: trace.dropped={rows.get((w, 'trace.dropped'))}")

    spans = [str(trace_dir / f"{w}.spans.json") for w in workloads]
    if subprocess.run([args.trace_validate, *spans]).returncode != 0:
        errors.append("trace_validate rejected a span file")

    for e in errors:
        print("FAIL: " + e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
