#!/usr/bin/env python3
"""Append one parent/change perfbench comparison to BENCH_perfbench.json.

From the root of a checkout, given the result files of untraced
perfbench/run.py runs (.perfbench_out/<workload>-seed<n>-trace0.result.json)
of the parent and of the change, one per run, and, optionally, result files
of traced runs (.perfbench_out/<workload>-seed<n>-trace1.result.json):

    python3 scripts/bench_record.py --title "what changed" \\
        --parent-commit 4463bf3 --change-commit "the commit adding this entry" \\
        [--note "how the runs were ordered"] \\
        --parent p-*.json --change c-*.json \\
        [--traced-parent p-*.result.json --traced-change c-*.result.json]

Run results are merged by workload and seed; only the seeds both sides ran
count.  For each workload and gated metric the entry keeps
both sides' per-seed values, their median and quartiles (statistics.quantiles
with n=4, as spread.py reports them) and the pairs in which the change was
better.
Traced results add both sides' per-layer metrics of BENCHMARK.json: each
traced seed's values and, per metric, their median.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def per_seed(paths):
    """{workload: {seed: {metric: value}}} merged from perfbench/run.py result files."""
    merged, machine = {}, None
    for path in paths:
        result = json.loads(Path(path).read_text())
        machine = result["machine"]
        merged.setdefault(result["workload"], {})[result["seed"]] = {
            name: m["value"] for name, m in result["metrics"].items()}
    return merged, machine


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def traced(paths, names):
    """{workload: {"seeds", "metrics", "per_seed"}} from traced result files:
    every seed's per-layer values, and per metric the median over the seeds
    that report it."""
    runs = {}
    for path in paths:
        record = json.loads(Path(path).read_text())
        runs.setdefault(record["workload"], {})[record["seed"]] = {
            name: record["metrics"][name]["value"] for name in names if name in record["metrics"]}
    out = {}
    for workload, by_seed in runs.items():
        seeds = sorted(by_seed)
        metrics = {name: statistics.median(values) for name in names
                   if (values := [by_seed[s][name] for s in seeds if name in by_seed[s]])}
        out[workload] = {"seeds": seeds, "metrics": metrics,
                         "per_seed": {s: by_seed[s] for s in seeds}}
    return out


def main(argv=None):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--title", required=True)
    p.add_argument("--parent-commit", required=True)
    p.add_argument("--change-commit", required=True)
    p.add_argument("--note", default="", help="how the runs were ordered, and anything else")
    p.add_argument("--parent", nargs="+", required=True)
    p.add_argument("--change", nargs="+", required=True)
    p.add_argument("--traced-parent", nargs="*", default=[])
    p.add_argument("--traced-change", nargs="*", default=[])
    p.add_argument("--out", default=str(ROOT / "BENCH_perfbench.json"))
    args = p.parse_args(argv)

    parent, machine = per_seed(args.parent)
    change, _ = per_seed(args.change)
    workloads = {}
    for workload in parent.keys() & change.keys():
        seeds = sorted(parent[workload].keys() & change[workload].keys())
        metrics = {}
        for m in config["end_to_end"]:
            before = [parent[workload][s][m["name"]] for s in seeds]
            after = [change[workload][s][m["name"]] for s in seeds]
            lower = m["better"] == "lower"
            wins = sum((a < b) if lower else (a > b) for a, b in zip(after, before))
            metrics[m["name"]] = {"better": m["better"], "parent": quartiles(before),
                                  "change": quartiles(after), "change_better_pairs": wins}
        workloads[workload] = {"seeds": seeds, "metrics": metrics}

    layers = [m["name"] for m in config["per_layer"]]
    entry = {
        "title": args.title,
        "date": datetime.date.today().isoformat(),
        "parent_commit": args.parent_commit,
        "change_commit": args.change_commit,
        "note": args.note,
        "machine": machine,
        "run_seconds": config["run_seconds"],
        "workloads": dict(sorted(workloads.items())),
        "traced": {"parent": traced(args.traced_parent, layers),
                   "change": traced(args.traced_change, layers)},
    }
    out = Path(args.out)
    record = json.loads(out.read_text()) if out.exists() else {"entries": []}
    record["entries"].append(entry)
    out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
