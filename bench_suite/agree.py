#!/usr/bin/env python3
"""Check that two sets of bench_suite runs agree within the benchmark's bounds.

Usage: agree.py DIR_A DIR_B [--benchmark PATH]

Each directory holds the standard output of bench_suite runs, one run or more
per file. Every `workload metric value unit` row of an end-to-end metric named
in BENCHMARK.json is one sample. For each (workload, metric) pair the script
prints both sets' sample count, median, quartiles and spread (interquartile
range as a share of the median), and flags the pair when the two medians
differ by more than the metric's bound. Exits 1 if any pair is flagged or
has no samples in one of the sets.

To compare a parent commit with a change, run the benchmark from a checkout
of each into its own directory, alternating which side runs first, then pass
the parent's directory as DIR_A.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def load_samples(directory, workloads, metrics):
    samples = {}
    for path in sorted(Path(directory).iterdir()):
        if not path.is_file():
            continue
        for line in path.read_text(errors="replace").splitlines():
            fields = line.split()
            if len(fields) != 4 or fields[0] not in workloads or fields[1] not in metrics:
                continue
            try:
                value = float(fields[2])
            except ValueError:
                continue
            samples.setdefault((fields[0], fields[1]), []).append(value)
    return samples


def summary(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    default_json = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir_a")
    ap.add_argument("dir_b")
    ap.add_argument("--benchmark", default=str(default_json), help="BENCHMARK.json to read bounds from")
    args = ap.parse_args()

    bench = json.loads(Path(args.benchmark).read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    a = load_samples(args.dir_a, set(workloads), metrics)
    b = load_samples(args.dir_b, set(workloads), metrics)

    print(f"{'workload':<16} {'metric':<22} {'set':<3} {'n':>3} {'q1':>12} {'median':>12} {'q3':>12} "
          f"{'spread':>7}  verdict")
    bad = 0
    for w in workloads:
        for name, m in metrics.items():
            rows = []
            for label, samples in (("A", a), ("B", b)):
                values = samples.get((w, name), [])
                q1, med, q3 = summary(values)
                spread = (q3 - q1) / med if values and med else float("nan")
                rows.append((label, len(values), q1, med, q3, spread))
            (_, na, _, ma, _, _), (_, nb, _, mb, _, _) = rows
            if na == 0 or nb == 0:
                verdict = "MISSING"
                bad += 1
            else:
                delta = (mb - ma) / ma if ma else 0.0
                worse = delta > 0 if m["better"] == "lower" else delta < 0
                if abs(delta) > m["bound"]:
                    verdict = f"DIFFER {delta:+.2%} ({'worse' if worse else 'better'}; bound {m['bound']:.0%})"
                    bad += 1
                else:
                    verdict = f"agree {delta:+.2%} (bound {m['bound']:.0%})"
            for i, (label, n, q1, med, q3, spread) in enumerate(rows):
                print(f"{w if i == 0 else '':<16} {name if i == 0 else '':<22} {label:<3} {n:>3} "
                      f"{q1:>12.6g} {med:>12.6g} {q3:>12.6g} {spread:>7.2%}  {verdict if i == 1 else ''}")
    print(f"{bad} pair(s) flagged")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
