#!/usr/bin/env python3
"""Compare two polcabench result sets.

    python3 polcabench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records run.py appends to
.bench_build/polcabench-work/results.jsonl, one per run.  Run the two
commits alternately (parent, change, parent, ...), at least ten times
each per workload, with the same --seconds, so the i-th run of each
side forms a pair.

For every workload and end-to-end metric this prints each side's median
and quartiles, the change's win rate over the pairs (ties count for
neither side), and a verdict:

  gain         the change wins at least 9 of 10 pairs and the medians
               differ by more than the parent's own quartile spread
  regression   the change's median is worse than the parent's by more
               than the metric's bound in BENCHMARK.json
  unresolved   a side's quartile spread, as a share of its median,
               exceeds the bound, unless every change run beats every
               parent run
  unchanged    none of the above

Per-layer metrics from --trace 1 runs are listed with their medians and
no verdict.  Self-test (--tiny) records are skipped; runs flagged as
started under load are counted and reported.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    records = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            if not record.get("tiny"):
                records.append(record)
    return records


def series(records, workload, trace, metric):
    return [r["result"]["metrics"][metric]["value"] for r in records
            if r["workload"] == workload and r["trace"] == trace
            and metric in r["result"]["metrics"]]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Verdict of one metric under the rules in the module doc."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_rate = wins / len(pairs) if pairs else 0.0
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    dominates = all(sign * (c - p) > 0 for c in change for p in parent)
    if win_rate >= 0.9 and abs(cm - pm) > (p3 - p1) and sign * (cm - pm) > 0:
        label = "gain"
    elif sign * (pm - cm) > bound * abs(pm):
        label = "regression"
    elif spread > bound and not dominates:
        label = "unresolved"
    else:
        label = "unchanged"
    return (p1, pm, p3), (c1, cm, c3), win_rate, len(pairs), spread, label


def fmt(value):
    return "%.6g" % value


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.benchmark).read_text())
    parent, change = load(args.parent), load(args.change)
    for name, records in (("parent", parent), ("change", change)):
        loaded = sum(1 for r in records
                     if r["provenance"].get("started_under_load"))
        if loaded:
            print("note: %d %s run(s) started under load" % (loaded, name))

    workloads = [w["name"] for w in spec["workloads"]]
    print("%-13s %-17s %-31s %-31s %5s %7s  %s" % (
        "workload", "metric", "parent q1/median/q3",
        "change q1/median/q3", "wins", "spread", "verdict"))
    for workload in workloads:
        for metric in spec["end_to_end"]:
            p = series(parent, workload, 0, metric["name"])
            c = series(change, workload, 0, metric["name"])
            if not p or not c:
                continue
            pq, cq, win_rate, pairs, spread, label = verdict(
                p, c, metric["better"], metric["bound"])
            print("%-13s %-17s %-31s %-31s %5s %7s  %s (n=%d/%d)" % (
                workload, metric["name"], "/".join(map(fmt, pq)),
                "/".join(map(fmt, cq)), "%d%%" % round(100 * win_rate),
                "%.1f%%" % (100 * spread), label, len(p), len(c)))
    print()
    print("per-layer medians (--trace 1 runs, no verdict):")
    for workload in workloads:
        for metric in spec["per_layer"]:
            p = series(parent, workload, 1, metric["name"])
            c = series(change, workload, 1, metric["name"])
            if not p or not c:
                continue
            pm, cm = statistics.median(p), statistics.median(c)
            ratio = "%.3f" % (cm / pm) if pm else "-"
            print("%-13s %-26s %-8s parent %-12s change %-12s ratio %s" % (
                workload, metric["name"], metric["unit"], fmt(pm), fmt(cm),
                ratio))
    return 0


if __name__ == "__main__":
    sys.exit(main())
