"""Greedy discovery of the distance-preserving hub network.

From each hub, in ascending id order, the greedy classifies the hubs within
k into basic pairs (no other hub strictly between on any shortest path) and
composite pairs, and for each basic pair pulls one shortest path into the
growing vertex set, preferring paths that reuse vertices already in the
network.  The basic pairs are the hubs of the source hub's unblocked region,
the vertices with no hub strictly between them and the hub, read from the
free words that one bit-parallel bounded BFS per block of 64 hubs leaves.
Of that region the walk visits only the backward cone of the basic pairs,
the vertices whose parent or score a pulled path reads, found level by level
from the deepest basic pair up, and picks each cone vertex's parent by a
pull over its in-slice, so no level is sorted.  The preservation check
reads hub-pair distances from the same bit-parallel levels, run with no
blocking hubs on G and on G[H*].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import (BIT_BLOCK, Graph, bit_levels, csr_slices, induced_subgraph,
                    offsets_from_counts, set_bits, sort_unique)
from .hubs import HubSet


@dataclass
class HubNetwork:
    """The extracted vertex set H* (the mask member) with discovery
    instrumentation, and the hub set (hubs), graph (graph_checksum) and k it
    was discovered from; check refuses any other graph or hub set.

    basic_pairs holds (source_hub, hub, distance) in discovery order; ordered
    pairs, so undirected graphs record each unordered pair once per direction.
    added_per_pair is aligned with basic_pairs.
    """

    hubs: HubSet
    graph_checksum: int
    member: np.ndarray
    k: int
    basic_pairs: list = field(default_factory=list)
    added_per_pair: list = field(default_factory=list)
    _views: tuple = field(default=None, init=False, compare=False, repr=False)

    @property
    def members(self):
        return np.flatnonzero(self.member).astype(np.uint32)

    @property
    def size(self):
        return int(np.count_nonzero(self.member))

    def check(self, g: Graph, hubs: HubSet):
        """Refuse a graph with another checksum (an equal one loaded apart
        passes), then any hub set but this network's own, with ValueError."""
        if g.checksum != self.graph_checksum:
            raise ValueError("graph is not the one this network was discovered on")
        if hubs is not self.hubs and hubs != self.hubs:
            raise ValueError(f"hub set of {hubs.size} hubs is not the {self.hubs.size} "
                             f"hubs this network was discovered from")

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

    def search_views(self, g: Graph):
        """hn's (forward, reverse) views (offsets, targets, lists): rows of the
        network's hubs keep only H* members, non-hub rows are g's own list
        objects, and an undirected graph shares one view.  Cached on first
        use; check refuses any g but the one this network was discovered on.
        """
        self.check(g, self.hubs)
        if self._views is None:
            is_hub = self.hubs.is_hub
            fwd = _hub_view(g, is_hub, self.member, False)
            self._views = (fwd, _hub_view(g, is_hub, self.member, True) if g.directed else fwd)
        return self._views


def _hub_view(g, is_hub, member, reverse):
    offsets, targets = g.adjacency(reverse)
    keep = member[targets] | np.repeat(~is_hub, np.diff(offsets))
    offsets, targets = offsets_from_counts(keep)[offsets], targets[keep]
    lists = list(g.adj_lists(reverse))
    for v in np.flatnonzero(is_hub).tolist():
        lists[v] = targets[offsets[v]:offsets[v + 1]].tolist()
    return offsets, targets, lists


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
    strictly between s and them on any shortest path: bit b of the free words
    graph.bit_levels yields at depth d, one pass per block of 64 hubs.  The
    block keeps each level's free words and reads them at the hubs once, so
    the hubs of R_d, found_d, come out in ascending order.  Each is a basic
    pair, and its parent chain joins H*, hubs in ascending id order.

    Only those chains are read, so the walk covers the backward cone of the
    basic pairs, not the whole region.  With D the deepest level holding a
    basic pair, cone_D = found_D, and for d = D down to 2, cone_{d-1} is the
    in-neighbours of cone_d free on bit b at depth d - 1, together with
    found_{d-1}; the in-slices gathered on the way are kept for the pulls.
    A hub with no basic pair walks nothing.  Every predecessor one level up
    of an R_d vertex is s or a non-hub of R_{d-1}, and there is at least one,
    so pulling over a cone vertex's in-slice (bottom-up, as in
    direction-optimizing BFS) sees every candidate parent and never none.
    The parent has the highest score, then the smallest id, and
    f(v) = f(parent) + [v in H*].

    The cone gives the parents and scores the full region would.  Every
    candidate parent of a vertex of cone_d is a non-hub of R_{d-1} in its
    in-slice, so it is in cone_{d-1}; keys are nonzero only at the non-hubs
    of cone_{d-1}, so each pull sees exactly the nonzero keys a pull over all
    of R_{d-1} would, and by induction on d with the same scores.  The free
    in-neighbours that are hubs lie in found_{d-1} anyway, so cone_{d-1}
    needs no filter on hubs.

    This matches a full BFS from s that counts members when it dequeues them:
    a chain pulled in at depth d holds vertices of levels below d only, so no
    vertex joins H* between the start of s's walk and the reading of its own
    membership, and scores depend only on H* as it stood before s.  A chain
    from depth d is walked exactly d steps, so a wrong parent gives a wrong
    network, never an endless walk.  The walk reads parents and membership
    as Python ints, through a memoryview of the parent array and a bytearray
    under the member mask, not as numpy scalars.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    # the chain walk reads parents through up and membership through in_net;
    # the vectorized steps use the arrays over the same buffers
    in_net = bytearray(hubs.is_hub.tobytes())
    member = np.frombuffer(in_net, bool)
    net = HubNetwork(hubs=hubs, graph_checksum=g.checksum, member=member, k=k)
    pull, push = g.adjacency(True), g.adjacency()
    offsets, sources = pull
    n, one, is_hub, hub_ids = np.uint64(g.n), np.uint64(1), hubs.is_hub, hubs.ids
    # key[u] > 0 exactly at the candidate parents of the level being walked,
    # the non-hubs of the cone one level up: score * n + n - u with the score
    # counted from s, so the largest key has the highest score, then the
    # smallest id.  A score counts members among the d - 1 vertices after s
    # on a shortest path, and d < n, so keys stay below n^2: within uint64
    # for every n up to 2^32, and load_edge_list caps ids at MAX_VERTEX_ID
    key = np.zeros(g.n, np.uint64)
    parent = np.zeros(g.n, np.int64)
    up = memoryview(parent)
    for lo in range(0, hub_ids.size, BIT_BLOCK):
        frees = []
        for _, free in bit_levels(pull, push, hub_ids, hub_ids[lo:lo + BIT_BLOCK], k):
            if not free.any():
                break
            frees.append(free)
        at_hubs = [free[hub_ids] for free in frees]
        for b, s in enumerate(hub_ids[lo:lo + BIT_BLOCK].tolist()):
            bit = np.uint64(1 << b)
            found = [hub_ids[(at & bit) != 0] for at in at_hubs]
            depth = max((d for d, t in enumerate(found, 1) if t.size), default=0)
            if not depth:
                continue
            # backward: each level's cone is the candidate parents of the
            # cone below, plus that level's own hubs
            cones, pulls = [found[depth - 1]], []
            for d in range(depth, 1, -1):
                pos, _, at = csr_slices(offsets, cones[-1])
                src = sources[pos]
                pulls.append((src, at))
                cand = src[(frees[d - 2][src] & bit) != 0]
                cones.append(sort_unique(np.concatenate((cand, found[d - 2]))))
            front = np.empty(0, np.int64)
            for d, cone in enumerate(reversed(cones), 1):
                if d == 1:
                    parent[cone] = s
                    score = member[cone]
                else:
                    src, at = pulls[depth - d]
                    best = np.maximum.reduceat(key[src], at) - one
                    parent[cone] = n - one - best % n
                    score = best // n + member[cone]
                    key[front] = 0
                on = ~is_hub[cone]
                front = cone[on]
                key[front] = score[on] * n + (n - front.astype(np.uint64))
                for t in found[d - 1].tolist():
                    w, added = t, 0
                    for _ in range(d):
                        added += not in_net[w]
                        in_net[w] = 1
                        w = up[w]
                    net.basic_pairs.append((s, t, d))
                    net.added_per_pair.append(added)
            key[front] = 0
    return net


def verify_distance_preserving(g: Graph, net: HubNetwork) -> PreservationReport:
    """Compare hub-pair distances in G against the induced subgraph G[H*].

    Checks every ordered pair of net's hubs within net.k; failures are
    reported, not thrown, by source hub, then target hub in rank order.  The
    distances come from graph.bit_levels with no blocking hubs, one pass per
    block of 64 source hubs on each graph: bit b first set at hub j on depth
    d is d(root_b, j).  g must be net's own (HubNetwork.check).
    """
    hubs, k = net.hubs, net.k
    net.check(g, hubs)
    report = PreservationReport()
    sub = induced_subgraph(g, net.member)
    for lo in range(0, hubs.size, BIT_BLOCK):
        roots = hubs.ids[lo:lo + BIT_BLOCK]
        dg, ds = (_hub_distances(graph, roots, hubs.ids, k) for graph in (g, sub))
        within = dg > 0
        report.checked += int(within.sum())
        for b, j in zip(*np.nonzero(within & (ds != dg))):
            d_sub = int(ds[b, j]) if ds[b, j] > 0 else None
            report.failures.append((int(roots[b]), int(hubs.ids[j]), int(dg[b, j]), d_sub))
    return report


def _hub_distances(g, roots, hub_ids, k):
    """(roots, hubs) int64 distances within k from each root, 0 where unreached;
    each level is read at the hubs with set_bits, as hub2._pass fills its matrix."""
    dist = np.zeros((roots.size, hub_ids.size), np.int64)
    levels = bit_levels(g.adjacency(True), g.adjacency(), hub_ids[:0], roots, k)
    for d, (new, _) in enumerate(levels, 1):
        j, bit = set_bits(new[hub_ids])
        dist[bit, j] = d
    return dist


def network_stats(g: Graph, hubs: HubSet, net: HubNetwork) -> dict:
    """Hub degrees before and after restriction to G[H*]; g and hubs must be
    the network's own (HubNetwork.check)."""
    net.check(g, hubs)
    if hubs.size == 0:
        return {"size_hstar": net.size, "avg_hub_degree_original": 0.0,
                "avg_hub_degree_network": 0.0}
    deg = g.total_degrees()
    sub = induced_subgraph(g, net.member)
    sdeg = sub.total_degrees()
    return {
        "size_hstar": net.size,
        "avg_hub_degree_original": float(deg[hubs.ids].mean()),
        "avg_hub_degree_network": float(sdeg[hubs.ids].mean()),
    }
