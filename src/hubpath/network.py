"""Greedy discovery of the distance-preserving hub network.

From each hub, in ascending id order, the greedy classifies the hubs within
k into basic pairs (no other hub strictly between on any shortest path) and
composite pairs, and for each basic pair pulls one shortest path into the
growing vertex set, preferring paths that reuse vertices already in the
network.  It walks only the hub's unblocked region, the vertices with no hub
strictly between them and the hub, which one bit-parallel bounded BFS per
block of 64 hubs finds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import (Graph, bfs_levels, bit_levels, first_parents, frontier_edges,
                    induced_subgraph, offsets_from_counts, set_bits)
from .hubs import HubSet


@dataclass
class HubNetwork:
    """The extracted vertex set H* with discovery instrumentation.

    basic_pairs holds (source_hub, hub, distance) in discovery order; ordered
    pairs, so undirected graphs record each unordered pair once per direction.
    added_per_pair is aligned with basic_pairs; added_per_hub with hub rank.
    """

    member: np.ndarray
    members: np.ndarray
    k: int
    basic_pairs: list = field(default_factory=list)
    added_per_pair: list = field(default_factory=list)
    added_per_hub: np.ndarray = None

    @property
    def size(self):
        return int(self.members.size)

    def size_bound(self):
        """Worst-case size: one fresh shortest path per unordered basic pair."""
        seen = set()
        total = 0
        for u, v, d in self.basic_pairs:
            key = (min(u, v), max(u, v))
            if key not in seen:
                seen.add(key)
                total += d - 1
        return total


@dataclass
class PreservationReport:
    checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures


def discover(g: Graph, hubs: HubSet, k: int) -> HubNetwork:
    """Extract H*: process hubs in ascending id order, seeding H* = H.

    From hub s, region R_d holds the vertices at distance d with no hub
    strictly between s and them on any shortest path: the free bits of
    graph.bit_levels, run once per block of 64 hubs.  All predecessors of an
    R_d vertex one level up are non-hubs of R_{d-1} (or s), so pushing from
    those finds every candidate parent.  The parent has the highest score,
    then the smallest id, and f(v) = f(parent) + [v in H*].  Each hub in R_d
    is a basic pair, and its parent chain joins H*, hubs in ascending id order.

    This matches a full BFS from s that counts members when it dequeues them:
    a chain pulled in at depth d holds vertices of levels below d only, so no
    vertex joins H* between the start of s's walk and the reading of its own
    membership, and scores depend only on H* as it stood before s.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    member = hubs.is_hub.copy()
    net = HubNetwork(member=member, members=None, k=k,
                     added_per_hub=np.zeros(hubs.size, np.int64))
    offsets, targets = g.adjacency()
    hub_ids = hubs.ids.astype(np.int64)
    mark = np.zeros(g.n, np.int64)  # level in the current hub's region, 0 outside
    score = np.zeros(g.n, np.int64)
    parent = np.zeros(g.n, np.int64)
    for lo in range(0, hub_ids.size, 64):
        roots = hub_ids[lo:lo + 64]
        levels = []
        for *_, free in bit_levels(*g.adjacency(True), hub_ids, roots, k):
            if not free.any():
                break
            vertex, bit = set_bits(free)
            at = offsets_from_counts(np.bincount(bit, minlength=roots.size))
            levels.append((vertex[np.argsort(bit, kind="stable")], at))
        for b, s in enumerate(roots.tolist()):
            regions = [vertex[at[b]:at[b + 1]] for vertex, at in levels]
            front, total = np.array([s]), 0  # score[s] offsets all paths alike
            for d, region in enumerate(regions, 1):
                mark[region] = d
                srcs, dsts = frontier_edges(offsets, targets, front)
                keep = mark[dsts] == d
                new, pred = first_parents(srcs[keep], dsts[keep], -score)
                parent[new] = pred
                score[new] = score[pred] + member[new]
                for u in new[hubs.is_hub[new]].tolist():
                    v, added = u, 0
                    while v != s:
                        added += not member[v]
                        member[v] = True
                        v = int(parent[v])
                    net.basic_pairs.append((s, u, d))
                    net.added_per_pair.append(added)
                    total += added
                front = new[~hubs.is_hub[new]]
            for region in regions:
                mark[region] = 0
            net.added_per_hub[lo + b] = total
    net.members = np.flatnonzero(member).astype(np.uint32)
    return net


def verify_distance_preserving(g: Graph, hubs: HubSet, net: HubNetwork, k: int) -> PreservationReport:
    """Compare hub-pair distances in G against the induced subgraph G[H*].

    Checks every ordered hub pair within k; failures are reported, not thrown.
    """
    report = PreservationReport()
    if hubs.size == 0:
        return report
    sub = induced_subgraph(g, net.member)
    offsets, targets = g.adjacency()
    soff, stgt = sub.adjacency()
    hub_ids = hubs.ids.astype(np.int64)
    for h in hub_ids:
        lv_g = bfs_levels(offsets, targets, h, k, g.n)
        lv_s = bfs_levels(soff, stgt, h, k, g.n)
        dg = lv_g[hub_ids]
        ds = lv_s[hub_ids]
        within = (dg > 0) & (dg <= k)
        report.checked += int(within.sum())
        bad = within & (ds != dg)
        for j in np.flatnonzero(bad):
            v = int(hub_ids[j])
            d_sub = int(ds[j]) if ds[j] >= 0 else None
            report.failures.append((int(h), v, int(dg[j]), d_sub))
    return report


def network_stats(g: Graph, hubs: HubSet, net: HubNetwork) -> dict:
    """Hub degrees before and after restriction to G[H*]."""
    if hubs.size == 0:
        return {"size_hstar": net.size, "avg_hub_degree_original": 0.0,
                "avg_hub_degree_network": 0.0}
    deg = g.total_degrees()
    sub = induced_subgraph(g, net.member)
    sdeg = sub.total_degrees()
    hub_ids = hubs.ids
    return {
        "size_hstar": net.size,
        "avg_hub_degree_original": float(deg[hub_ids].mean()),
        "avg_hub_degree_network": float(sdeg[hub_ids].mean()),
    }
