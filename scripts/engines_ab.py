#!/usr/bin/env python3
"""Same-process A/B of the query engines, or of the set-up, between this checkout and another.

From the root of a checkout:

    python3 scripts/engines_ab.py --other ../parent --seeds 21 2501 [--pairs N]
    python3 scripts/engines_ab.py --other ../parent --seeds 21 --setup [--kind er --n 80000]

The other checkout's src/hubpath is loaded as a second package, hubpath_other,
so both trees run in one process on one interpreter.  For each seed and
perfbench workload, each tree builds its own graph, hubs, network and index
from perfbench's inputs (imported from perfbench/inputs.py and
perfbench/run.py, which this script only reads), and both answer the pairs
make_pairs(N, pairs, seed).  Per pair and engine (bibfs, hn, hl, then the
reference bfs), each tree's time is the best of three calls in thread CPU
time, and the tree that runs first alternates from pair to pair.  Before
timing, the first pairs warm up both trees and the heap is frozen
(gc.collect(); gc.freeze()), as perfbench does.

It prints one line per seed, workload and engine: the mean µs per call of
this tree and the other, their ratio (this / other), and the median of the
per-pair ratios.  A ratio below 1 means this tree is faster.  It exits with
status 1 at the first pair whose distance or path differs between the trees.

--setup times the set-up instead: per seed and graph, each tree's discover,
build, to_bytes and from_bytes on its own graph and hubs (perfbench's β and
k), the best of three rounds in thread CPU time, the tree that runs first
alternating from round to round.  from_bytes reads an index the tree
serialized before the timed rounds and runs first in its round, so it does
not start from the heap that round's to_bytes left.  One more round per tree,
untimed, runs under tracemalloc (tracing would slow the timed rounds) and
takes each stage's peak: the most it held above what was live when it began,
its result included.  The graphs are perfbench's workloads, or
with --kind one gen_synthetic graph of --n vertices (average degree 10 for
er, 5 edges per new vertex for ba) with default_beta(n) hubs.  It prints one
line per seed, graph and stage with each tree's seconds, their ratio and each
tree's peak in MB, and
one line with the sha256 of the index bytes and of the network (member ids,
basic_pairs and added_per_pair), as scripts/answers_digest.py digests them.
It exits with status 1 when the trees' index or network digests differ.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import hubpath  # noqa: E402
from inputs import N, WORKLOADS, make_graph_bytes, make_pairs  # noqa: E402
from run import BETA, K, POOL, WARMUP_PAIRS  # noqa: E402

ENGINES = ("bibfs", "hn", "hl", "bfs")
REPS = 3
STAGES = ("discover", "build", "to_bytes", "from_bytes")
SYNTHETIC_PARAM = {"er": 10, "ba": 5}


def load_other(checkout):
    """The hubpath package of another checkout, imported as hubpath_other
    afresh: the modules of an earlier load are dropped first."""
    for name in [m for m in sys.modules if m.partition(".")[0] == "hubpath_other"]:
        del sys.modules[name]
    pkg = Path(checkout).resolve() / "src" / "hubpath"
    spec = importlib.util.spec_from_file_location(
        "hubpath_other", pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules["hubpath_other"] = module
    spec.loader.exec_module(module)
    return module


def engine_table(pkg, spec, seed):
    """{engine: query(s, t)} over the tree pkg's own graph, hubs, network and index."""
    g = pkg.load_edge_list(make_graph_bytes(spec, seed), directed=spec.directed)
    hubs = pkg.select_hubs(g, BETA)
    net, idx = pkg.discover(g, hubs, K), pkg.build_index(g, hubs, K)
    e = pkg.engines
    return {"bibfs": lambda s, t: e.bibfs_query(g, s, t, K),
            "hn": lambda s, t: e.hn_query(g, hubs, net, s, t, K),
            "hl": lambda s, t: e.hl_query(g, idx, s, t),
            "bfs": lambda s, t: e.bfs_query(g, s, t, K)}


def best_of(query, s, t):
    """(least thread time in ns over REPS calls, the last call's result)."""
    best = None
    for _ in range(REPS):
        t0 = time.thread_time_ns()
        res = query(s, t)
        dt = time.thread_time_ns() - t0
        best = dt if best is None else min(best, dt)
    return best, res


def compare(tables, pairs):
    """{engine: ([this ns], [other ns])} per pair; None at the first differing answer."""
    times = {engine: ([], []) for engine in ENGINES}
    for i, (s, t) in enumerate(pairs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for engine in ENGINES:
            answers = [None, None]
            for tree in order:
                dt, res = best_of(tables[tree][engine], s, t)
                times[engine][tree].append(dt)
                answers[tree] = (res.distance, res.path)
            if answers[0] != answers[1]:
                print(f"{engine} answers differ on pair ({s}, {t}): this {answers[0]}, "
                      f"other {answers[1]}", file=sys.stderr)
                return None
    return times


def setup_inputs(kind, n, seed):
    """[(name, edge-list bytes, directed, β)]: perfbench's workloads when kind
    is None, else the one gen_synthetic graph."""
    if kind is None:
        return [(name, make_graph_bytes(spec, seed), spec.directed, BETA)
                for name, spec in WORKLOADS.items()]
    data = hubpath.gen_synthetic(kind, n, SYNTHETIC_PARAM[kind], seed)
    return [(f"{kind}-{n}", data, False, hubpath.hubs.default_beta(n))]


def setup_stages(pkg, data, directed, beta):
    """A callable that runs the tree pkg's set-up stages once on its own graph
    and hubs, from_bytes first on an index serialized here: ({stage: thread
    seconds}, {stage: tracemalloc peak bytes above the stage's start, 0 when
    not tracing}, index sha256, network sha256)."""
    g = pkg.load_edge_list(data, directed=directed)
    hubs = pkg.select_hubs(g, beta)
    saved = pkg.hub2.to_bytes(pkg.build_index(g, hubs, K))

    def run():
        seconds, peaks = {}, {}

        def timed(stage, step, *args):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            t0 = time.thread_time_ns()
            out = step(*args)
            seconds[stage] = (time.thread_time_ns() - t0) / 1e9
            peaks[stage] = tracemalloc.get_traced_memory()[1] - start
            return out

        timed("from_bytes", pkg.hub2.from_bytes, saved)
        net = timed("discover", pkg.discover, g, hubs, K)
        blob = timed("to_bytes", pkg.hub2.to_bytes, timed("build", pkg.build_index, g, hubs, K))
        network = [net.members.tolist(), net.basic_pairs, net.added_per_pair]
        return (seconds, peaks, hashlib.sha256(blob).hexdigest(),
                hashlib.sha256(json.dumps(network).encode()).hexdigest())
    return run


def compare_setup(pkgs, args):
    """Print each stage's best-of-REPS seconds and traced peak per tree; 1 at
    differing digests."""
    for seed in args.seeds:
        for name, data, directed, beta in setup_inputs(args.kind, args.n, seed):
            runs = [setup_stages(pkg, data, directed, beta) for pkg in pkgs]
            best = [dict.fromkeys(STAGES, float("inf")) for _ in pkgs]
            digests = [None, None]
            for r in range(REPS):
                for tree in ((0, 1) if r % 2 == 0 else (1, 0)):
                    seconds, _, *digests[tree] = runs[tree]()
                    for stage, dt in seconds.items():
                        best[tree][stage] = min(best[tree][stage], dt)
                    gc.collect()
            peaks = []
            tracemalloc.start()
            try:
                for run in runs:
                    peaks.append(run()[1])
                    gc.collect()
            finally:
                tracemalloc.stop()
            for stage in STAGES:
                this, that = best[0][stage], best[1][stage]
                print(f"{name} seed={seed} {stage} this_s={this:.4f} other_s={that:.4f} "
                      f"ratio={this / that:.3f} this_peak_mb={peaks[0][stage] / 1e6:.3f} "
                      f"other_peak_mb={peaks[1][stage] / 1e6:.3f}", flush=True)
            print(f"{name} seed={seed} digests index={digests[0][0] == digests[1][0]} "
                  f"network={digests[0][1] == digests[1][1]}", flush=True)
            if digests[0] != digests[1]:
                print(f"{name} seed={seed}: the trees' index or network differ", file=sys.stderr)
                return 1
            del runs
            gc.collect()
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--other", required=True, help="root of the checkout to compare with")
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--pairs", type=int, default=POOL)
    p.add_argument("--setup", action="store_true", help="time the set-up stages instead")
    p.add_argument("--kind", choices=sorted(SYNTHETIC_PARAM),
                   help="with --setup: one gen_synthetic graph in place of the workloads")
    p.add_argument("--n", type=int, default=80000, help="with --kind: vertex count")
    args = p.parse_args(argv)
    other = load_other(args.other)
    if args.setup:
        return compare_setup((hubpath, other), args)

    for seed in args.seeds:
        pairs = make_pairs(N, args.pairs, seed)
        for name, spec in WORKLOADS.items():
            tables = (engine_table(hubpath, spec, seed), engine_table(other, spec, seed))
            for s, t in pairs[:WARMUP_PAIRS]:
                for table in tables:
                    for query in table.values():
                        query(s, t)
            gc.collect()
            gc.freeze()
            try:
                times = compare(tables, pairs)
            finally:
                gc.unfreeze()
            if times is None:
                print(f"{name} seed={seed}: the trees' answers differ", file=sys.stderr)
                return 1
            for engine, (this, that) in times.items():
                ratios = [a / b for a, b in zip(this, that)]
                print(f"{name} seed={seed} {engine} this_us={statistics.fmean(this) / 1e3:.1f} "
                      f"other_us={statistics.fmean(that) / 1e3:.1f} "
                      f"mean_ratio={statistics.fmean(this) / statistics.fmean(that):.3f} "
                      f"median_pair_ratio={statistics.median(ratios):.3f}", flush=True)
            del tables
            gc.collect()
    return 0


if __name__ == "__main__":
    sys.exit(main())
