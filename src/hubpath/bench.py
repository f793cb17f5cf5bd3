"""Seeded query workloads and per-engine benchmark runs."""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from .engines import bfs_query, query_with_engine
from .graph import Graph

ENGINES = ("bfs", "bibfs", "hn", "hl")


@dataclass
class Workload:
    """Reproducible query pairs: same seed and graph, same pairs."""

    seed: int
    pairs: list
    filter: str = "any"


@dataclass
class BenchRecord:
    """One engine run on one pair.

    enqueued is the search-space size: vertices the traversal labeled, the
    quantity hub pruning is supposed to shrink.  expanded counts the frontier
    vertices whose edges were scanned.
    """

    engine: str
    s: int
    t: int
    distance: int
    wall_ns: int
    enqueued: int
    expanded: int
    join_ops: int

    def to_json(self):
        return json.dumps({
            "engine": self.engine, "s": self.s, "t": self.t,
            "distance": self.distance, "wall_ns": self.wall_ns,
            "enqueued": self.enqueued, "expanded": self.expanded,
            "join_ops": self.join_ops,
        }, sort_keys=True)


def check_workload(count: int, k: int = None, min_dist: int = 0):
    """ValueError for a pair count or distance filter that no graph can meet;
    make_workload checks them first, and the command line before it reads a graph."""
    if count < 0:
        raise ValueError(f"pair count {count} is negative")
    if min_dist > 0 and k is None:
        raise ValueError("min_dist filtering needs k")
    if min_dist > 0 and min_dist > k:
        raise ValueError(f"min_dist {min_dist} exceeds k={k}: no pair can pass the filter")


def make_workload(g: Graph, count: int, seed: int, k: int = None,
                  min_dist: int = 0, non_hub_only: bool = False,
                  hubs=None) -> Workload:
    """Sample count pairs uniformly over V x V, s != t, honoring filters.

    min_dist keeps pairs whose true distance lies in [min_dist, k];
    non_hub_only keeps pairs with both endpoints outside the hub set.
    """
    check_workload(count, k, min_dist)
    if non_hub_only and hubs is None:
        raise ValueError("non_hub_only filtering needs a hub set")
    rng = np.random.Generator(np.random.PCG64(seed))
    pairs = []
    attempts = 0
    limit = max(100_000, 5000 * count)
    while len(pairs) < count:
        attempts += 1
        if attempts > limit:
            raise ValueError(f"workload filters passed {len(pairs)} of {limit} sampled "
                             f"pairs; {count} are needed")
        s, t = (int(x) for x in rng.integers(0, g.n, size=2))
        if s == t:
            continue
        if non_hub_only and (hubs.is_hub[s] or hubs.is_hub[t]):
            continue
        if min_dist > 0:
            d = bfs_query(g, s, t, k).distance
            if d is None or d < min_dist:
                continue
        pairs.append((s, t))
    name = "any"
    if min_dist > 0:
        name = f"dist_ge:{min_dist}"
    if non_hub_only:
        name = name + "+non_hub_only" if name != "any" else "non_hub_only"
    return Workload(seed=seed, pairs=pairs, filter=name)


def run_engine(engine, g, pairs, k, net=None, idx=None):
    """Benchmark one engine over the workload, records in pair order.

    hn needs net, hl idx (query_with_engine).  One unmeasured warm-up pass
    per engine precedes the measured one.
    """
    for s, t in pairs:
        query_with_engine(engine, g, s, t, k, net=net, idx=idx)
    records = []
    for s, t in pairs:
        t0 = time.perf_counter_ns()
        res = query_with_engine(engine, g, s, t, k, net=net, idx=idx)
        wall = time.perf_counter_ns() - t0
        records.append(BenchRecord(engine, s, t,
                                   -1 if res.distance is None else res.distance,
                                   wall, res.stats.enqueued, res.stats.visited,
                                   res.stats.join_ops))
    return records


def summarize(records):
    """Per-engine summary rows: mean/median time, enqueued and expanded."""
    rows = []
    by_engine = {}
    for rec in records:
        by_engine.setdefault(rec.engine, []).append(rec)
    for engine in sorted(by_engine):
        recs = by_engine[engine]
        times = [r.wall_ns for r in recs]
        enqueued = [r.enqueued for r in recs]
        expanded = [r.expanded for r in recs]
        rows.append({
            "engine": engine,
            "queries": len(recs),
            "answered": sum(1 for r in recs if r.distance >= 0),
            "mean_ns": statistics.fmean(times),
            "median_ns": statistics.median(times),
            "mean_enqueued": statistics.fmean(enqueued),
            "median_enqueued": statistics.median(enqueued),
            "mean_expanded": statistics.fmean(expanded),
            "median_expanded": statistics.median(expanded),
        })
    return rows


def summary_tsv(rows) -> str:
    header = ["engine", "queries", "answered", "mean_ns", "median_ns",
              "mean_enqueued", "median_enqueued", "mean_expanded", "median_expanded"]
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(_fmt(row[h]) for h in header))
    return "\n".join(lines) + "\n"


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)
