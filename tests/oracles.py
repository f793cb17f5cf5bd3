"""Independent brute-force oracles used to check the library.

Everything here is deliberately written with plain queues and dicts, not the
library's vectorized kernels, so a defect in the package cannot hide in its
own verifier.  The exceptions are hn_wrong_answers, which runs hn_query
against bfs_query on every pair, and build_reference, discover_reference and
verify_reference at the end: the earlier per-hub index builder, hub-network
discovery and preservation check, kept as the references of hub2.build,
network.discover and network.verify_distance_preserving.
"""

from collections import deque

import numpy as np

from hubpath.engines import bfs_query, check_result, hn_query
from hubpath.graph import Graph, bfs_tree, csr_slices, induced_subgraph, offsets_from_counts
from hubpath.hub2 import INF, MAX_K, Hub2Index, Hub2Matrix, LabelTable
from hubpath.hubs import HubSet, select_hubs
from hubpath.network import HubNetwork, PreservationReport, discover


def adjacency_from_graph(g, reverse=False):
    """Neighbor lists rebuilt from the raw CSR arrays."""
    offsets, targets = (g.in_offsets, g.in_targets) if (reverse and g.directed) \
        else (g.out_offsets, g.out_targets)
    offs = offsets.tolist()
    tgts = targets.tolist()
    return [tgts[offs[i]:offs[i + 1]] for i in range(g.n)]


def bfs_dist(adj, source, max_depth=None):
    """Plain FIFO BFS; returns dict vertex -> distance."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        if max_depth is not None and du >= max_depth:
            continue
        for v in adj[u]:
            if v not in dist:
                dist[v] = du + 1
                queue.append(v)
    return dist


def all_pairs_dist(adj, max_depth=None):
    return [bfs_dist(adj, s, max_depth) for s in range(len(adj))]


def classify_hub_pair(dist_rows, u, v, hub_ids):
    """'basic' iff no other hub splits d(u,v) exactly; 'composite' otherwise."""
    d = dist_rows[u].get(v)
    assert d is not None
    for w in hub_ids:
        if w in (u, v):
            continue
        left = dist_rows[u].get(w)
        right = dist_rows[w].get(v)
        if left is not None and right is not None and left + right == d:
            return "composite"
    return "basic"


def core_hub_set(dist_rows, v, hub_ids, k, incoming=False):
    """Definition-literal core hubs of v with distances, bounded by k.

    incoming=True tests hubs reaching v (distances read as d(h, v)).
    """
    if v in hub_ids:
        return {(v, 0)}
    result = set()
    for h in hub_ids:
        d = dist_rows[h].get(v) if incoming else dist_rows[v].get(h)
        if d is None or d == 0 or d > k:
            continue
        blocked = False
        for h2 in hub_ids:
            if h2 == h:
                continue
            if incoming:
                a, b = dist_rows[h].get(h2), dist_rows[h2].get(v)
            else:
                a, b = dist_rows[v].get(h2), dist_rows[h2].get(h)
            if a is not None and b is not None and a + b == d:
                blocked = True
                break
        if not blocked:
            result.add((h, d))
    return result


def some_shortest_path_has_hub(dist_rows, s, t, hub_ids):
    """True iff a hub lies on at least one shortest s-t path (endpoints count)."""
    d = dist_rows[s].get(t)
    assert d is not None
    for h in hub_ids:
        a = dist_rows[s].get(h)
        b = dist_rows[h].get(t)
        if a is not None and b is not None and a + b == d:
            return True
    return False


def plain_landmark_estimate(dist_rows, s, t, hub_ids, k):
    """Single-landmark routing bound: min over hubs of d(s,x)+d(x,t), capped at k."""
    best = None
    for x in hub_ids:
        a = dist_rows[s].get(x)
        b = dist_rows[x].get(t)
        if a is None or b is None:
            continue
        total = a + b
        if total <= k and (best is None or total < best):
            best = total
    return best


def hn_wrong_answers(g, betas, ks):
    """hn_query on every ordered pair of g, per hub count beta and bound k.

    Returns the (beta, k, s, t) whose answer is not bfs_query's distance with
    a path check_result certifies, running from s to t.
    """
    wrong = []
    for beta in betas:
        hubs = select_hubs(g, beta)
        for k in ks:
            net = discover(g, hubs, k)
            for s in range(g.n):
                for t in range(g.n):
                    res = hn_query(g, hubs, net, s, t, k)
                    if (not check_result(g, res, bfs_query(g, s, t, k).distance)
                            or res.found and (res.path[0], res.path[-1]) != (s, t)):
                        wrong.append((beta, k, s, t))
    return wrong


def masked_bfs_dist(adj, source, masked, max_depth=None):
    """BFS that never enters masked vertices (source assumed unmasked)."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        if max_depth is not None and du >= max_depth:
            continue
        for v in adj[u]:
            if v not in dist and not masked[v]:
                dist[v] = du + 1
                queue.append(v)
    return dist


# ------------------------------------------------------- reference index build
#
# One vectorized bounded BFS per hub (two on a directed graph), as hub2.build
# ran before its bit-parallel pass.  Its edges come from frontier_edges over
# the library's csr_slices, so it checks the pass, not that gather; parents
# are picked by its own first_parents, keyed by the flags the bit-parallel
# pass does not keep.


def frontier_edges(offsets, targets, frontier):
    """All (src, dst) pairs leaving the frontier, concatenated in slice order."""
    pos, counts, _ = csr_slices(offsets, frontier)
    return np.repeat(frontier, counts), targets[pos].astype(np.int64)


def first_parents(srcs, dsts, *keys):
    """Pick each new vertex's parent from the fresh edges of one BFS level.

    Returns the distinct destinations in ascending order and, for each, the
    source with the smallest (keys..., id).  Each key is a per-vertex array
    read at the source; the last key is the most significant.
    """
    order = np.lexsort((srcs, *(key[srcs] for key in keys), dsts))
    ds = dsts[order]
    first = np.ones(ds.size, bool)
    first[1:] = ds[1:] != ds[:-1]
    return ds[first], srcs[order][first]


def table_from_chunks(n, chunks):
    """Merge per-hub contribution buffers into one deterministic table.

    Sorting by (vertex, dist, hub_rank) makes the result independent of
    the order the per-hub traversals ran in.
    """
    if chunks:
        vertex = np.concatenate([c[0] for c in chunks])
        dist = np.concatenate([c[1] for c in chunks])
        rank = np.concatenate([c[2] for c in chunks])
    else:
        vertex = dist = rank = np.empty(0, np.int64)
    order = np.lexsort((rank, dist, vertex))
    offsets = offsets_from_counts(np.bincount(vertex, minlength=n))
    return LabelTable(offsets, rank[order].astype(np.int32), dist[order].astype(np.uint8))


def label_bfs(g: Graph, hubs: HubSet, h: int, k: int, reverse=False):
    """Bounded BFS from hub h: (matrix row, label arrays).

    The label arrays are (vertex, dist, rank, next hop) per BFS level.  A
    reached hub some shortest path reaches with no hub between gets a label,
    the path of its basic pair.

    reverse=True walks in-edges (directed graphs), producing outgoing-side
    labels for non-hubs only; the forward walk produces incoming-side labels.
    Parent choice is the smallest-id predecessor on the previous level,
    blocked predecessors first; a labeled vertex has no blocked predecessor
    there, so its parent is the smallest-id one, the next hop its label's walk
    must take toward h.
    """
    if not hubs.is_hub[h]:
        raise ValueError(f"vertex {h} is not a hub")
    offsets, targets = g.adjacency(reverse)
    n = g.n
    rank = hubs.rank
    is_hub = hubs.is_hub
    dim = hubs.size

    row = np.full(dim, INF, np.uint8)
    row[rank[h]] = 0
    level = np.full(n, -1, np.int32)
    bflag = np.zeros(n, np.uint8)
    parent = np.full(n, -1, np.int32)
    level[h] = 0
    bflag[h] = 1
    frontier = np.array([h], dtype=np.int64)

    lab_vertex, lab_dist, lab_rank, lab_hop = [], [], [], []

    for depth in range(k + 1):
        if depth > 0:
            hub_mask = is_hub[frontier]
            labeled = frontier[bflag[frontier] == 1]
            if reverse:
                labeled = labeled[~is_hub[labeled]]
            for u in frontier[hub_mask]:
                row[rank[u]] = depth
                bflag[u] = 0
            if labeled.size:
                lab_vertex.append(labeled)
                lab_dist.append(np.full(labeled.size, depth, np.int64))
                lab_rank.append(np.full(labeled.size, rank[h], np.int64))
                lab_hop.append(parent[labeled].astype(np.int64))
        if depth == k:
            break
        srcs, dsts = frontier_edges(offsets, targets, frontier)
        fresh = level[dsts] < 0
        # blocked predecessors sort first, so the pick's flag is the AND of
        # all predecessor flags; labeled vertices have all-unblocked
        # predecessors, so their parent is the smallest-id one; parents of
        # blocked vertices are never walked
        new, pred = first_parents(srcs[fresh], dsts[fresh], bflag)
        if new.size == 0:
            break
        bflag[new] = bflag[pred]
        parent[new] = pred
        level[new] = depth + 1
        frontier = new
    contribution = (lab_vertex, lab_dist, lab_rank, lab_hop)
    return row, contribution


def build_reference(g: Graph, hubs: HubSet, k: int) -> Hub2Index:
    """Run one (two when directed) label traversal per hub and merge the output.

    The merge is a global sort by (vertex, level, hub rank), so the result does
    not depend on traversal scheduling.
    """
    if hubs.size == 0:
        raise ValueError("cannot build an index over an empty hub set")
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be in [1, {MAX_K}]")
    dim = hubs.size
    dist = np.empty((dim, dim), np.uint8)
    chunks_in, chunks_out = [], []
    for i, h in enumerate(hubs.ids):
        dist[i], (lv, ld, lr, _) = label_bfs(g, hubs, int(h), k)
        chunks_in.extend(zip(lv, ld, lr))
        if g.directed:
            _, (lv, ld, lr, _) = label_bfs(g, hubs, int(h), k, reverse=True)
            chunks_out.extend(zip(lv, ld, lr))
    labels_in = table_from_chunks(g.n, chunks_in)
    labels_out = table_from_chunks(g.n, chunks_out) if g.directed else labels_in
    return Hub2Index(k=k, directed=g.directed, n=g.n, m=g.m,
                     graph_checksum=g.checksum, hubs=hubs,
                     matrix=Hub2Matrix(dim, dist),
                     labels_in=labels_in, labels_out=labels_out)


# ------------------------------------------------ reference hub-network discovery
#
# One full bounded BFS per hub, as network.discover ran before it walked only
# each hub's unblocked region.  Like build_reference it uses the library's
# level-step helpers.


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


def discover_reference(g: Graph, hubs: HubSet, k: int) -> HubNetwork:
    """Extract H*: process hubs in ascending id order, seeding H* = H."""
    if k < 1:
        raise ValueError("k must be >= 1")
    member = hubs.is_hub.copy()
    net = HubNetwork(hubs=hubs, graph_checksum=g.checksum, member=member, k=k)
    for h in hubs.ids:
        pairs, added, _ = bfs_extract(g, hubs, int(h), k, member)
        net.basic_pairs.extend(pairs)
        net.added_per_pair.extend(added)
    return net


def verify_reference(g: Graph, hubs: HubSet, net: HubNetwork, k: int) -> PreservationReport:
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
        lv_g = bfs_tree(offsets, targets, h, k)[0]
        lv_s = bfs_tree(soff, stgt, h, k)[0]
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
