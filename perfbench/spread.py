#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's median and spread.

From the root of a checkout:

    python3 perfbench/spread.py --seeds 1-10 [--workloads ba-social,er-flat] [--trace 0]
                                [--out summary.json] [--against earlier-summary.json]

Runs are sequential.  For every workload and metric it prints the median, the
quartiles from ``statistics.quantiles(values, n=4)``, and the spread (the
distance between the quartiles as a share of the median), next to the bound
in BENCHMARK.json.  A spread above a third of its bound is flagged.  The
spread of setup_s is reported but not held to its bound.  With --against,
each median is also compared with the median of an earlier summary (for
example of the parent commit) and flagged when it is worse by more than the
bound.  Exits 1 if any run fails or reports a wrong answer, or if a median
is worse than the earlier one by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    """One benchmark run: (last-line JSON, the run's result record, wall seconds)."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    record = ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.result.json"
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(record.read_text()), wall


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def main(argv=None):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="write the summary JSON here")
    p.add_argument("--against", default=None, help="summary JSON of an earlier --out")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    lower_better = {m["name"]: m["better"] == "lower" for m in config["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text())["workloads"] if args.against else {}

    summary = {"run_seconds": config["run_seconds"], "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        per_metric, walls, inputs = {}, [], {}
        for seed in args.seeds:
            result, record, wall = run_once(workload, seed, config["run_seconds"], args.trace)
            summary["machine"] = record["machine"]
            inputs[seed] = record["inputs"]
            walls.append(wall)
            ok &= result["correct"] and result["failed"] == 0
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} wall={wall:.1f}s", flush=True)
        entry = summary["workloads"][workload] = {
            "why": record["why"], "inputs_by_seed": inputs,
            "run_wall_s": summarize(walls) if len(walls) > 1 else walls, "metrics": {}}
        for name, values in per_metric.items():
            if len(values) < 2:
                continue
            s = summarize(values)
            entry["metrics"][name] = s
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and s["spread"] > bound / 3:
                flag = "  <-- above a third of its bound"
            print(f"  {name:44s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.4f}  bound {bound}{flag}")
            before = earlier.get(workload, {}).get("metrics", {}).get(name)
            if before and bound is not None:
                change = s["median"] / before["median"] - 1
                worse = change if lower_better[name] else -change
                verdict = "WORSE than bound" if worse > bound else "ok"
                ok &= worse <= bound
                print(f"  {'':44s} vs earlier median {before['median']:.6g}: "
                      f"{change:+.2%} ({verdict})")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
