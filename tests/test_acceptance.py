"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Heavy graphs and indexes are built once per module and shared.
"""

import time

import numpy as np
import pytest

import hubpath.hub2 as hub2
from hubpath import (
    IndexFormatError,
    bfs_query,
    bibfs_query,
    build_index,
    core_hubs_oracle,
    discover,
    estimate,
    estimate_full_join,
    hl_query,
    hn_query,
    load_edge_list,
    make_workload,
    network_stats,
    select_hubs,
    validate_path,
    verify_distance_preserving,
)
from hubpath.engines import hp_bbfs
from hubpath.generate import gen_synthetic

from oracles import adjacency_from_graph, all_pairs_dist, some_shortest_path_has_hub


def report(num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} ({name}): {verdict} -- {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ------------------------------------------------------------ shared builds

_CACHE = {}

SUITE_SPECS = [("er", 10.0, seed) for seed in (1, 2, 3)] + \
              [("ba", 5, seed) for seed in (1, 2, 3)]


def suite_2000():
    """Six n=2000 graphs with top-1% hubs; nets and indexes for k in {4, 6}."""
    if "suite" not in _CACHE:
        entries = []
        for kind, param, seed in SUITE_SPECS:
            g = load_edge_list(gen_synthetic(kind, 2000, param, seed))
            hubs = select_hubs(g, 20)
            per_k = {}
            for k in (4, 6):
                per_k[k] = (discover(g, hubs, k), build_index(g, hubs, k))
            entries.append((kind, seed, g, hubs, per_k))
        _CACHE["suite"] = entries
    return _CACHE["suite"]


def small_suite():
    """20 graphs with n <= 300: mixed ER/BA, directed and undirected."""
    if "small" not in _CACHE:
        graphs = []
        sizes = [60, 80, 100, 150, 200]
        combos = [(kind, directed) for kind in ("er", "ba") for directed in (False, True)]
        seed = 0
        for n in sizes:
            for kind, directed in combos:
                seed += 1
                param = 5.0 if kind == "er" else 3
                g = load_edge_list(gen_synthetic(kind, n, param, seed), directed=directed)
                hubs = select_hubs(g, max(3, n // 20))
                graphs.append((g, hubs))
        assert len(graphs) == 20
        _CACHE["small"] = graphs
    return _CACHE["small"]


def ba_20000():
    if "ba20000" not in _CACHE:
        g = load_edge_list(gen_synthetic("ba", 20000, 5, seed=1))
        hubs = select_hubs(g, 200)
        net = discover(g, hubs, 6)
        idx = build_index(g, hubs, 6)
        _CACHE["ba20000"] = (g, hubs, net, idx)
    return _CACHE["ba20000"]


# --------------------------------------------------------------- criteria

def test_criterion_1_exactness_sweep():
    t0 = time.monotonic()
    mismatches = 0
    checked = 0
    for kind, seed, g, hubs, per_k in suite_2000():
        pairs = make_workload(g, 1000, seed=seed * 31 + 7).pairs
        for k in (4, 6):
            net, idx = per_k[k]
            for s, t in pairs:
                truth = bfs_query(g, s, t, k)
                checked += 1
                for res in (bibfs_query(g, s, t, k),
                            hn_query(g, hubs, net, s, t, k),
                            hl_query(g, idx, s, t)):
                    if res.distance != truth.distance:
                        mismatches += 1
                    elif res.found and (len(res.path) != res.distance + 1
                                        or res.path[0] != s or res.path[-1] != t
                                        or not validate_path(g, res.path)):
                        mismatches += 1
    elapsed = time.monotonic() - t0
    report(1, "exactness sweep",
           mismatches == 0 and elapsed < 120,
           f"{checked} pairs x 3 engines, {mismatches} mismatches, {elapsed:.1f}s (< 120s)")


def test_criterion_2_distance_preservation():
    t0 = time.monotonic()
    failures = 0
    bound_violations = 0
    configs = 0
    for kind, seed, g, hubs, per_k in suite_2000():
        for k in (4, 6):
            net, _ = per_k[k]
            rep = verify_distance_preserving(g, hubs, net, k)
            failures += len(rep.failures)
            if net.size > net.size_bound() + hubs.size:
                bound_violations += 1
            configs += 1
    elapsed = time.monotonic() - t0
    report(2, "distance preservation",
           failures == 0 and bound_violations == 0 and elapsed < 60,
           f"{configs} configs, {failures} preservation failures, "
           f"{bound_violations} size-bound violations, {elapsed:.1f}s (< 60s)")


def test_criterion_3_label_correctness():
    k = 4
    mismatches = 0
    vertices = 0
    for g, hubs in small_suite():
        idx = build_index(g, hubs, k)
        ids = idx.hubs.ids
        sides = ("out", "in") if g.directed else ("out",)
        for v in range(g.n):
            vertices += 1
            for side in sides:
                if hubs.is_hub[v]:
                    built = {(int(v), 0)}
                else:
                    table = idx.labels_out if side == "out" else idx.labels_in
                    ranks, dists = table.vertex_slice(v)
                    built = {(int(ids[r]), int(d)) for r, d in zip(ranks, dists)}
                if built != core_hubs_oracle(g, hubs, k, v, side=side):
                    mismatches += 1
    report(3, "label correctness",
           mismatches == 0,
           f"20 graphs, {vertices} vertices, {mismatches} label-set mismatches")


def test_criterion_4_coverage_dichotomy():
    k = 4
    est_violations = 0
    hp_violations = 0
    class1 = class2 = 0
    for g, hubs in small_suite():
        idx = build_index(g, hubs, k)
        rows = all_pairs_dist(adjacency_from_graph(g), k)
        hub_ids = [int(h) for h in hubs.ids]
        for s in range(g.n):
            row = rows[s]
            for t, d in row.items():
                if t == s or d > k:
                    continue
                if some_shortest_path_has_hub(rows, s, t, hub_ids):
                    class1 += 1
                    if estimate(idx, s, t).value != d:
                        est_violations += 1
                else:
                    class2 += 1
                    if hp_bbfs(g, hubs.is_hub, s, t, k + 1).distance != d:
                        hp_violations += 1
    report(4, "coverage dichotomy",
           est_violations == 0 and hp_violations == 0,
           f"{class1} hub-covered pairs ({est_violations} estimate misses), "
           f"{class2} hub-free pairs ({hp_violations} pruned-search misses)")


def test_criterion_5_no_hub_expansion_and_search_space(expanded):
    t0 = time.monotonic()
    g, hubs, net, idx = ba_20000()
    pairs = make_workload(g, 1000, seed=11, non_hub_only=True, hubs=hubs).pairs
    hub_touches = 0
    hl_touched, bi_touched = [], []
    hl_expanded, bi_expanded = [], []
    for s, t in pairs:
        res, seen = expanded(hl_query, g, idx, s, t)
        if hubs.is_hub[seen].any():
            hub_touches += 1
        hl_touched.append(res.stats.enqueued)
        hl_expanded.append(res.stats.visited)
        ref = bibfs_query(g, s, t, 6)
        bi_touched.append(ref.stats.enqueued)
        bi_expanded.append(ref.stats.visited)
    ratio = float(np.median(hl_touched)) / float(np.median(bi_touched))
    expanded_ratio = float(np.median(hl_expanded)) / float(np.median(bi_expanded))
    elapsed = time.monotonic() - t0
    report(5, "no hub expansion / search space",
           hub_touches == 0 and ratio <= 0.5 and elapsed < 180,
           f"1000 non-hub pairs, {hub_touches} hub expansions, "
           f"median touched ratio {ratio:.3f} (<= 0.5; expanded-only ratio "
           f"{expanded_ratio:.2f}), {elapsed:.1f}s (< 180s)")


def test_criterion_6_hub_degree_reduction():
    g, hubs, net, _ = ba_20000()
    stats = network_stats(g, hubs, net)
    ratio = stats["avg_hub_degree_network"] / stats["avg_hub_degree_original"]
    report(6, "hub degree reduction",
           stats["avg_hub_degree_network"] < stats["avg_hub_degree_original"],
           f"avg hub degree {stats['avg_hub_degree_original']:.1f} -> "
           f"{stats['avg_hub_degree_network']:.1f} in the network (ratio {ratio:.3f})")


def test_criterion_7_early_termination_equivalence():
    rng = np.random.Generator(np.random.PCG64(23))
    mismatches = 0
    op_violations = 0
    checked = 0
    targets = [(g, per_k[6][1]) for _, _, g, _, per_k in suite_2000()]
    targets += [(g, build_index(g, hubs, 6)) for g, hubs in small_suite()]
    while checked < 5000:
        g, idx = targets[checked % len(targets)]
        s, t = (int(x) for x in rng.integers(0, g.n, 2))
        fast = estimate(idx, s, t)
        full = estimate_full_join(idx, s, t)
        checked += 1
        if fast.value != full.value:
            mismatches += 1
        if fast.join_ops > full.join_ops:
            op_violations += 1
    report(7, "early-termination equivalence",
           mismatches == 0 and op_violations == 0,
           f"{checked} pairs, {mismatches} value mismatches, "
           f"{op_violations} join-op inversions")


def test_criterion_8_determinism_and_serialization(tmp_path):
    g = load_edge_list(gen_synthetic("er", 800, 8, seed=4))
    hubs = select_hubs(g, 12)
    blob1 = hub2.to_bytes(build_index(g, hubs, 6))
    blob2 = hub2.to_bytes(build_index(g, hubs, 6))
    identical = blob1 == blob2
    round_trip = hub2.from_bytes(blob1) == build_index(g, hubs, 6)
    rejected = 0
    probes = 0
    rng = np.random.Generator(np.random.PCG64(3))
    for pos in rng.integers(0, len(blob1), size=64):
        corrupted = bytearray(blob1)
        corrupted[int(pos)] ^= 0xFF
        probes += 1
        try:
            hub2.from_bytes(bytes(corrupted))
        except IndexFormatError:
            rejected += 1
    truncated_rejected = 0
    for cut in (10, len(blob1) // 3, len(blob1) - 1):
        try:
            hub2.from_bytes(blob1[:cut])
        except IndexFormatError:
            truncated_rejected += 1
    report(8, "determinism and serialization",
           identical and round_trip and rejected == probes and truncated_rejected == 3,
           f"byte-identical={identical}, round-trip={round_trip}, "
           f"corruptions rejected {rejected}/{probes}, truncations 3/3")


def test_criterion_9_symmetric_pair_zero_add():
    violations = 0
    pairs_checked = 0
    for kind, seed, g, hubs, per_k in suite_2000():
        for k in (4, 6):
            net, _ = per_k[k]
            seen = set()
            for (u, v, d), added in zip(net.basic_pairs, net.added_per_pair):
                if (v, u) in seen:
                    pairs_checked += 1
                    if added != 0:
                        violations += 1
                seen.add((u, v))
    report(9, "symmetric second discovery adds nothing",
           violations == 0 and pairs_checked > 0,
           f"{pairs_checked} symmetric rediscoveries, {violations} added vertices")
