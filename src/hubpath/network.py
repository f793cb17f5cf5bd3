"""Greedy discovery of the distance-preserving hub network.

One bounded BFS per hub classifies reachable hubs into basic pairs (no other
hub strictly between on any shortest path) and composite pairs, and for each
basic pair pulls one shortest path into the growing vertex set, preferring
paths that reuse vertices already in the network.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, bfs_levels, first_parents, frontier_edges, induced_subgraph
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


def bfs_extract(g: Graph, hubs: HubSet, source_hub: int, k: int, member: np.ndarray):
    """Bounded flag/score BFS from one hub, growing `member` in place.

    Per vertex the traversal maintains: exact level; flag b (1 iff no hub lies
    strictly between the source and the vertex on any shortest path); and,
    read only where b=1, score f (max count of network members along some
    shortest path, counted at dequeue time) and the best predecessor (max f,
    then smallest id).  Dequeuing a hub with b=1 records a basic pair, walks
    the predecessor chain into `member`, then clears the flag so descendants
    cannot form further basic pairs.

    Returns (pairs, added_counts, total_added).
    """
    offsets, targets = g.adjacency()
    n = g.n
    is_hub = hubs.is_hub
    level = np.full(n, -1, np.int32)
    bflag = np.zeros(n, np.uint8)
    fscore = np.zeros(n, np.int32)
    parent = np.full(n, -1, np.int32)

    level[source_hub] = 0
    bflag[source_hub] = 1
    frontier = np.array([source_hub], dtype=np.int64)
    pairs, added_counts = [], []
    total_added = 0

    for depth in range(k + 1):
        if depth > 0:
            for u in frontier[is_hub[frontier]]:
                u = int(u)
                if bflag[u]:
                    chain = []
                    v = u
                    while v != source_hub:
                        chain.append(v)
                        v = int(parent[v])
                    added = 0
                    for v in chain:
                        if not member[v]:
                            member[v] = True
                            added += 1
                    pairs.append((int(source_hub), u, depth))
                    added_counts.append(added)
                    total_added += added
                    bflag[u] = 0
        # score self-update happens at dequeue, before expansion; membership
        # gained later in the traversal is not back-propagated
        fscore[frontier] += member[frontier]
        if depth == k:
            break
        srcs, dsts = frontier_edges(offsets, targets, frontier)
        fresh = level[dsts] < 0
        # blocked predecessors first, then highest score, then smallest id.
        # Copying the pick's flag gives the AND of all predecessor flags.  An
        # unblocked vertex has only unblocked predecessors, so its pick is
        # (max score, min id); the score and parent of a blocked vertex are
        # never read, since chains are walked only from unblocked hubs and
        # scores only compared between unblocked predecessors.
        new, pred = first_parents(srcs[fresh], dsts[fresh], -fscore, bflag)
        if new.size == 0:
            break
        parent[new] = pred
        fscore[new] = fscore[pred]
        bflag[new] = bflag[pred]
        level[new] = depth + 1
        frontier = new
    return pairs, added_counts, total_added


def discover(g: Graph, hubs: HubSet, k: int) -> HubNetwork:
    """Extract H*: process hubs in ascending id order, seeding H* = H."""
    if k < 1:
        raise ValueError("k must be >= 1")
    member = hubs.is_hub.copy()
    net = HubNetwork(member=member, members=None, k=k,
                     added_per_hub=np.zeros(hubs.size, np.int64))
    for i, h in enumerate(hubs.ids):
        pairs, added, total = bfs_extract(g, hubs, int(h), k, member)
        net.basic_pairs.extend(pairs)
        net.added_per_pair.extend(added)
        net.added_per_hub[i] = total
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
