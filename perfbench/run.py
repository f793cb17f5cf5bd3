#!/usr/bin/env python3
"""The hubpath benchmark: build, open and query costs on seeded graph workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ba-social --seed 1 --seconds 4 --trace 0

One process and one thread act as a single closed-loop caller.  A run
generates its graph and query pairs from the seed (``inputs.py``), sets up the
index SETUP_REPS times and opens it OPEN_REPS times (medians are reported),
warms up, and measures.  The query pass is split into SETUP_REPS chunks with
the later set-ups and opens between them, and each pair's ``bfs_query``
oracle distance is computed just before the pair is measured.  Every timed answer is certified
against the oracle outside the timed region; a wrong distance, an invalid
path or an exception counts in ``failed``.

Times are the calling thread's CPU time, not wall-clock time: on a shared
virtual machine the guest is descheduled for tens of milliseconds at a time,
and wall-clock percentiles would charge those stalls to whichever query was
running.  The program is single-threaded and does no blocking I/O while it
is timed, so its CPU time is its wall-clock time without the stalls.  CPU
time still drifts with the host's load, so times are scaled by a frozen
calibration kernel timed through the run (``calibrate.py``).

--trace 0 measures end-to-end metrics with no tracing.  --trace 1 records
spans around every call into a layer and reports per-layer metrics taken from
them, plus the tracing overhead measured against untraced calls on the same
pairs.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See README.md for the metric
definitions.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import json
import math
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

if not (SRC / "hubpath" / "__init__.py").is_file():
    sys.exit(f"perfbench: no hubpath sources at {SRC}; run from the root of a checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import hubpath  # noqa: E402
from hubpath import engines, hub2  # noqa: E402
from hubpath.graph import load_edge_list  # noqa: E402
from hubpath.hubs import default_beta, select_hubs  # noqa: E402
from hubpath.network import discover, network_stats  # noqa: E402

from calibrate import Calibration  # noqa: E402
from inputs import N, WORKLOADS, digest, make_graph_bytes, make_pairs, pairs_digest  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

K = 6
BETA = default_beta(N)
POOL = 1050           # p99 needs 1000 answered queries per engine; up to 1.5% have no answer
SETUP_REPS = 2       # with 3, the 70 runs of a benchmark check would take ~3200 s of 3420
OPEN_REPS = 2
WARMUP_PAIRS = 20
CALIB_EVERY = 25      # pairs between two samples of the calibration kernel
CALIB_AROUND = 3      # kernel samples before and after each set-up and open
BFS_EVERY = 8         # bfs reports only qps, so it is timed on every 8th pair
ENGINES = ("bfs", "bibfs", "hn", "hl")
# Reported but left out of the gated metrics, because their spread over ten
# seeds comes too close to the largest bound allowed (0.25).  hn's per-pair
# work has two modes and its median falls on the cliff between them, so
# hn.p50_us moves by about a quarter from one seed's inputs to the next
# (ba-directed: spread 0.27 in the median of enqueued vertices over six
# seeds).  The 99th percentiles of hl and bibfs, about 1.5 ms, take in short
# bursts of contention on the host that the calibration cannot remove
# (er-flat: spreads 0.22 and 0.19 over ten seeds).
UNGATED = ("hn.p50_us", "hl.p99_us", "bibfs.p99_us")
HL_BRANCHES = ("hub_endpoint", "estimate", "search", "none")


def setup(tr, data, directed, index_path):
    """Edge-list bytes to a saved index plus hub network, as `hubpath build` does."""
    with tr.span("setup"):
        with tr.span("graph.load"):
            g = load_edge_list(data, directed=directed)
        with tr.span("graph.checksum"):
            g.checksum
        with tr.span("hubs.select"):
            hubs = select_hubs(g, BETA)
        with tr.span("network.discover"):
            net = discover(g, hubs, K)
        with tr.span("hub2.build"):
            idx = hub2.build(g, hubs, K)
        with tr.span("hub2.to_bytes"):
            blob = hub2.to_bytes(idx)
        with tr.span("file.write"):
            with open(index_path, "wb") as fh:
                fh.write(blob)
    return g, hubs, net, idx, len(blob)


def open_index(tr, data, directed, index_path):
    """What a `hubpath query` process pays before its first answer."""
    with tr.span("open"):
        with tr.span("graph.load"):
            g = load_edge_list(data, directed=directed)
        with tr.span("graph.checksum"):
            g.checksum
        with tr.span("file.read"):
            blob = Path(index_path).read_bytes()
        with tr.span("hub2.from_bytes"):
            idx = hub2.deserialize(blob)
        with tr.span("hub2.matches"):
            matches = idx.matches(g)
    return g, idx, matches


def timed(fn, *args):
    t0 = time.thread_time()
    out = fn(*args)
    return time.thread_time() - t0, out


def engine_table(g, hubs, net, idx):
    return {
        "bfs": lambda s, t: engines.bfs_query(g, s, t, K),
        "bibfs": lambda s, t: engines.bibfs_query(g, s, t, K),
        "hn": lambda s, t: engines.hn_query(g, hubs, net, s, t, K),
        "hl": lambda s, t: engines.hl_query(g, idx, s, t),
    }


def traced_hl(tr, g, idx, s, t, qid):
    """hl_query's composition with a span per step; returns (result, branch)."""
    with tr.span("engines.hl", qid):
        with tr.span("engines.hl.estimate", qid):
            est = engines.estimate(idx, s, t)
        if idx.hubs.is_hub[s] or idx.hubs.is_hub[t]:
            res, branch = engines.QueryResult(None, None, engines.SearchStats("hl")), "hub_endpoint"
        else:
            bound = est.value if est.value is not None else idx.k + 1
            with tr.span("engines.hl.search", qid):
                res = engines.hp_bbfs(g, idx.hubs.is_hub, s, t, bound)
            branch = "search"
        if not res.found and est.value is not None:
            x, y = est.argpair
            with tr.span("engines.hl.path", qid):
                path = engines.reconstruct_estimated_path(idx, g, s, x, y, t)
            res = engines.QueryResult(est.value, path, res.stats)
            if branch == "search":
                branch = "estimate"
        if not res.found:
            branch = "none"
    return res, branch


def traced_table(tr, g, hubs, net, idx):
    plain = engine_table(g, hubs, net, idx)

    def wrap(name):
        def call(s, t, qid):
            with tr.span(f"engines.{name}", qid):
                return plain[name](s, t), None
        return call

    table = {name: wrap(name) for name in ("bfs", "bibfs", "hn")}
    table["hl"] = lambda s, t, qid: traced_hl(tr, g, idx, s, t, qid)
    return table


def certify(g, res, expected):
    """True iff the answer has the oracle's distance and a valid shortest path."""
    return res.distance == expected and engines.check_result(g, res, expected)


class Ledger:
    """Answers attempted and failed, with the first few failures kept for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(what)


def call_checked(ledger, g, fn, args, expected, what):
    """Time one call; certify its answer outside the timed region."""
    t0 = time.thread_time_ns()
    try:
        out = fn(*args)
    except Exception:  # a raising engine is a wrong answer, not a crash
        elapsed = time.thread_time_ns() - t0
        ledger.record(False, f"{what}: {traceback.format_exc(limit=3)}")
        return None, elapsed
    elapsed = time.thread_time_ns() - t0
    res = out[0] if isinstance(out, tuple) else out
    ok = certify(g, res, expected)
    ledger.record(ok, f"{what}: got {res.distance}, oracle {expected}")
    return (out if ok else None), elapsed


def schedule(i):
    """Engines for the i-th query, rotated so no engine always runs first."""
    names = ENGINES if i % BFS_EVERY == 0 else ENGINES[1:]
    turn = (i // BFS_EVERY) % len(names)
    return names[turn:] + names[:turn]


class Oracle:
    """bfs_query answers per pair, computed on first use, outside any timed region."""

    def __init__(self, g, pairs):
        self.g = g
        self.pairs = pairs
        self.results = [None] * len(pairs)

    def distance(self, j):
        if self.results[j] is None:
            s, t = self.pairs[j]
            self.results[j] = engines.bfs_query(self.g, s, t, K)
        return self.results[j].distance


class TimedQueries:
    """The untraced closed loop: each call is timed and then certified.

    Calling it with a pair index runs the engines on that pair in the order
    `schedule` gives for the next query.  `lat` collects the ns of correct
    answers per engine and `answered` whether the pair has a path within k.
    """

    def __init__(self, g, table, oracle, ledger):
        self.g, self.table, self.oracle, self.ledger = g, table, oracle, ledger
        self.lat = {name: [] for name in ENGINES}
        self.answered = {name: [] for name in ENGINES}
        self.count = 0

    def __call__(self, j):
        s, t = self.oracle.pairs[j]
        expected = self.oracle.distance(j)
        for name in schedule(self.count):
            out, ns = call_checked(self.ledger, self.g, self.table[name], (s, t), expected,
                                   f"{name}({s},{t})")
            if out is not None:
                self.lat[name].append(ns)
                self.answered[name].append(expected is not None)
        self.count += 1


class TracedQueries:
    """The traced pass: each engine call is made untraced and traced, order alternating.

    Keeps the untraced results per engine, the traced hl (result, branch) per
    pair, and the summed untraced and traced call times.
    """

    def __init__(self, g, plain, traced, oracle, ledger):
        self.g, self.plain, self.traced, self.oracle, self.ledger = g, plain, traced, oracle, ledger
        count = len(oracle.pairs)
        self.results = {name: [None] * count for name in ENGINES}
        self.traced_hl = [None] * count
        self.plain_ns = self.traced_ns = 0

    def __call__(self, j):
        s, t = self.oracle.pairs[j]
        expected = self.oracle.distance(j)
        for name in schedule(j):
            calls = [(False, self.plain[name], (s, t)), (True, self.traced[name], (s, t, j))]
            if j % 2:
                calls.reverse()
            for is_traced, fn, args in calls:
                kind = "traced" if is_traced else "plain"
                out, ns = call_checked(self.ledger, self.g, fn, args, expected,
                                       f"{kind} {name}({s},{t})")
                if is_traced:
                    self.traced_ns += ns
                    if name == "hl":
                        self.traced_hl[j] = out
                else:
                    self.plain_ns += ns
                    self.results[name][j] = out
        plain, traced = self.results["hl"][j], self.traced_hl[j]
        self.ledger.record(plain is not None and traced is not None
                           and plain.distance == traced[0].distance,
                           f"traced hl composition disagrees with hl_query on ({s},{t})")


def interleaved(count, step, rep, reps, calib):
    """step(j) for j in range(count), in `reps` chunks with rep(c) before chunk c > 0.

    Spreading the query pass across the set-ups makes both sample the
    machine over the whole run rather than over one stretch of it; the
    calibration kernel is timed every CALIB_EVERY pairs alongside.
    """
    cuts = [count * c // reps for c in range(reps + 1)]
    for c in range(reps):
        if c:
            rep(c)
        for j in range(cuts[c], cuts[c + 1]):
            if j % CALIB_EVERY == 0:
                calib.sample("query")
            step(j)


def normalized(metrics, setup_slowdown, query_slowdown):
    """Times divided by the slowdown of their phase, rates multiplied by it.

    Seconds are set-up and open times; microseconds and rates are queries.
    Other units are left as they are.
    """
    scale = {"s": 1 / setup_slowdown, "us": 1 / query_slowdown,
             "us/query": 1 / query_slowdown, "1/s": query_slowdown}
    return {name: (v[0] * scale.get(v[1], 1), *v[1:]) for name, v in metrics.items()}


def percentile(sorted_ns, q):
    """Nearest-rank percentile."""
    return sorted_ns[max(0, math.ceil(q * len(sorted_ns)) - 1)]


def latency_metrics(lat, answered):
    """Percentiles over answered queries; throughput over all queries.

    A pair with no path within k makes every engine search until its bound:
    on ba-directed 0.5-1% of the pairs cost about ten times the typical query,
    so over all queries p99 would sit on that cliff and jump between seeds.
    Their cost still counts in qps.
    """
    m = {}
    for name in ENGINES:
        if not lat[name]:
            continue
        if name != "bfs":
            xs = sorted(ns for ns, ok in zip(lat[name], answered[name]) if ok)
            m[f"{name}.p50_us"] = (statistics.median(xs) / 1e3, "us", len(xs))
            m[f"{name}.p99_us"] = (percentile(xs, 0.99) / 1e3, "us", len(xs))
        m[f"{name}.qps"] = (len(lat[name]) / (sum(lat[name]) / 1e9), "1/s", len(lat[name]))
    return m


def mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def per_layer_metrics(tr, g, hubs, net, idx, results, oracle_res, branches, plain_ns, traced_ns):
    self_ns = tr.self_times_ns()

    def med_s(name):
        return statistics.median(self_ns[name]) / 1e9

    hl_queries = len(self_ns["engines.hl"])

    def per_query_us(name):
        return sum(self_ns.get(name, [])) / 1e3 / hl_queries

    nstats = network_stats(g, hubs, net)
    istats = hub2.index_stats(idx)
    searches = len(self_ns.get("engines.hl.search", []))
    m = {
        "graph.load_s": (med_s("graph.load"), "s"),
        "graph.checksum_s": (med_s("graph.checksum"), "s"),
        "hubs.select_s": (med_s("hubs.select"), "s"),
        "network.discover_s": (med_s("network.discover"), "s"),
        "network.hstar_size": (nstats["size_hstar"], "vertices"),
        "network.hub_degree_ratio": (nstats["avg_hub_degree_network"]
                                     / nstats["avg_hub_degree_original"], "ratio"),
        "hub2.build_s": (med_s("hub2.build"), "s"),
        "hub2.to_bytes_s": (med_s("hub2.to_bytes"), "s"),
        "hub2.from_bytes_s": (med_s("hub2.from_bytes"), "s"),
        "hub2.labels_per_vertex": (istats["avg_label_count"], "labels"),
        "hub2.matrix_finite_frac": (istats["matrix_finite_fraction"], "frac"),
        "engines.hl.estimate_us": (per_query_us("engines.hl.estimate"), "us/query"),
        "engines.hl.search_us": (per_query_us("engines.hl.search"), "us/query"),
        "engines.hl.path_us": (per_query_us("engines.hl.path"), "us/query"),
        "engines.hl.join_ops": (mean([r.stats.join_ops for r in results["hl"] if r]),
                                "ops/query"),
    }
    for b in HL_BRANCHES:
        m[f"engines.hl.answered_by_{b}_frac"] = (branches.count(b) / max(1, len(branches)), "frac")
    m["engines.hl.search_hit_ratio"] = (branches.count("search") / max(1, searches), "ratio")
    stats = {"bfs": [r.stats for r in oracle_res]}
    for name in ("bibfs", "hn", "hl"):
        stats[name] = [r.stats for r in results[name] if r is not None]
    for name in ENGINES:
        m[f"engines.{name}.enqueued"] = (mean([st.enqueued for st in stats[name]]), "vertices/query")
        m[f"engines.{name}.expanded"] = (mean([st.visited for st in stats[name]]), "vertices/query")
    m["trace.overhead_frac"] = (traced_ns / max(1, plain_ns) - 1.0, "frac")
    return m


def machine_info():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": np.__version__}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not Path(hubpath.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported hubpath from {hubpath.__file__}, not from {SRC}")
    spec = WORKLOADS[args.workload]
    data = make_graph_bytes(spec, args.seed)
    pairs = make_pairs(N, POOL, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{spec.name}-seed{args.seed}-trace{args.trace}"
    index_path = OUT_DIR / f"{stem}-{os.getpid()}.hub2"
    tr = Tracer() if args.trace else NullTracer()
    ledger = Ledger()
    setup_s, open_s = [], []
    calib = Calibration()

    def rep(c):
        """Set up; in the first OPEN_REPS repetitions also open and compare."""
        calib.sample("setup", CALIB_AROUND)
        dt, out = timed(setup, tr, data, spec.directed, index_path)
        setup_s.append(dt)
        calib.sample("setup", CALIB_AROUND)
        if c >= OPEN_REPS:
            gc.collect()
            return out, None
        dt, opened = timed(open_index, tr, data, spec.directed, index_path)
        open_s.append(dt)
        calib.sample("setup", CALIB_AROUND)
        _, idx, matches = opened
        ledger.record(matches and idx == out[3], "opened index differs from the built one")
        gc.collect()
        return out, opened

    try:
        (_, hubs, net, _, index_bytes), (g, idx, _) = rep(0)
        plain = engine_table(g, hubs, net, idx)
        for s, t in pairs[:WARMUP_PAIRS]:
            for fn in plain.values():
                fn(s, t)
        gc.collect()
        gc.freeze()
        oracle = Oracle(g, pairs)
        if args.trace:
            step = TracedQueries(g, plain, traced_table(tr, g, hubs, net, idx), oracle, ledger)
        else:
            step = TimedQueries(g, plain, oracle, ledger)
        deadline = time.perf_counter() + args.seconds
        interleaved(len(pairs), step, rep, SETUP_REPS, calib)
    finally:
        index_path.unlink(missing_ok=True)

    if args.trace:
        branches = [c[1] for c in step.traced_hl if c is not None]
        metrics = per_layer_metrics(tr, g, hubs, net, idx, step.results, oracle.results,
                                    branches, step.plain_ns, step.traced_ns)
        tr.write(OUT_DIR / f"{stem}.spans.jsonl")
    else:
        while time.perf_counter() < deadline:
            for j in range(len(pairs)):
                step(j)
        metrics = {
            "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
            "open_s": (statistics.median(open_s), "s", len(open_s)),
            "index_bytes": (index_bytes, "bytes"),
            **latency_metrics(step.lat, step.answered),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    slowdowns = {phase: calib.slowdown(phase) for phase in ("setup", "query")}
    raw = metrics
    metrics = normalized(raw, slowdowns["setup"], slowdowns["query"])
    if args.trace:
        for phase, value in slowdowns.items():
            metrics[f"calib.{phase}_slowdown"] = (value, "ratio", len(calib.samples_ns[phase]))
    ungated = {name: metrics.pop(name) for name in UNGATED if name in metrics}
    wrong_frac = ledger.failed / max(1, ledger.attempted)

    record = {
        "workload": spec.name, "why": spec.why, "seed": args.seed, "trace": args.trace,
        "inputs": {"edge_list_sha256_16": digest(data), "pairs_sha256_16": pairs_digest(pairs),
                   "n": N, "k": K, "beta": BETA, "pairs": len(pairs)},
        "machine": machine_info(),
        "wrong_frac": wrong_frac, "failures": ledger.notes,
        "calibration": {"slowdowns": slowdowns, "samples_ns": calib.samples_ns},
        "raw_metrics": {name: {"value": v[0], "unit": v[1]} for name, v in raw.items()},
        "metrics": {name: {"value": v[0], "unit": v[1],
                           **({"samples": v[2]} if len(v) > 2 else {})}
                    for name, v in metrics.items()},
        "ungated_metrics": {name: {"value": v[0], "unit": v[1], "samples": v[2]}
                            for name, v in ungated.items()},
    }
    (OUT_DIR / f"{stem}.result.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {spec.name} seed {args.seed} trace {args.trace}: {spec.why}")
    print(f"inputs {json.dumps(record['inputs'])}")
    print(f"machine {json.dumps(record['machine'])}")
    for note in ledger.notes:
        print(f"FAILED {note}")
    print(f"wrong_frac {wrong_frac:.6g} frac (n={ledger.attempted})")
    for phase, value in slowdowns.items():
        print(f"{phase} slowdown {value:.4f} (calibration samples n={len(calib.samples_ns[phase])})")
    for name, v in [*metrics.items(), *ungated.items()]:
        samples = f" (n={v[2]})" if len(v) > 2 else ""
        note = " not gated" if name in ungated else ""
        measured = f" raw {raw[name][0]:.6g}" if name in raw and raw[name][0] != v[0] else ""
        print(f"{name} {v[0]:.6g} {v[1]}{samples}{measured}{note}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": v[0], "unit": v[1]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
