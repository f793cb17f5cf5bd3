"""Query engines answering bounded shortest-path queries with certified paths.

Four engines share one contract: return the exact distance and one shortest
path when the distance is within k, otherwise report nothing.

- bfs_query: plain bounded BFS (graph.bfs_tree), the ground-truth oracle;
  its path is read back from the levels by graph.level_path.
- bibfs_query: bidirectional BFS, smaller frontier first, level-sum cutoff.
- hn_query: bidirectional BFS in which hubs expand only their neighbors
  inside the discovered hub network; once the radii reach the cutoff or a
  side is exhausted, it stops as soon as the nearest hub each side has
  labeled can no longer close a path below the best meet.
- hl_query: two steps -- a label join against the hub matrix for an upper
  bound, then a bidirectional BFS that never touches a hub.

bibfs, hn and hl's search share one hybrid level step with no filter in it.
Each direction searches a view (offsets, targets, lists), the graph's own
(Graph.search_view) or hn's (HubNetwork.search_views, hub rows cut to H* by
graph.keep_edges); hl's search starts with the hubs labeled.  A frontier with
at most SCALAR_EDGES out-edges is expanded by a plain Python loop over the
view's lists, a larger one by the vectorized step over its CSR arrays:
numpy's fixed cost per call dominates small levels and Python's per-edge
cost large ones, and a sweep over the perfbench workloads found 256 to 512
fastest for all three engines.  One rule, _next_side, picks the side to
expand and stops all three searches: bibfs and hl's search end at the
level-sum cutoff or as soon as one side is exhausted; hn goes on past either
while the nearest hub a side has labeled can still close a shorter path.
Both steps write levels only, and the same ones, so answers, paths and
counters do not depend on which step ran; _stitch reads the path back over
the graph's own lists.  Levels are stored as level + 1 in one byte per
vertex, so these searches take k <= hub2.MAX_K.  Either step takes either
frontier type, and each returns its level's meet: of the new vertices the
other side has labeled, the one with the lowest other-side level, the
smallest id among ties.  One comparison folds it into the best meet.  The
label join is a scalar loop over the stored labels, read in place through
the label tables' memoryviews.

bfs_query and estimate_full_join are the oracles the fast paths are checked
against, so they share no level step or join with them: bfs_query runs
graph.bfs_tree, the library's other single-source level loop, reads its
path with graph.level_path, not _stitch, and estimate_full_join joins whole
label arrays at once.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .graph import (Graph, bfs_tree, csr_slices, level_path, sort_unique, validate_path,
                    vertex_id)
from .hub2 import INF, MAX_K, Hub2Index, IndexIntegrityError
from .hubs import HubSet
from .network import HubNetwork

_UNSET = 1 << 30

# Out-edge count at or below which a frontier takes the scalar step.
SCALAR_EDGES = 256


@dataclass
class SearchStats:
    """Work counters of one query.

    visited counts the frontier vertices expanded, enqueued the vertices
    labeled and join_ops the hub-matrix cells the label join read.
    answered_by names the hl step whose answer was returned (None for the
    other engines): "hub_endpoint" when s or t is a hub and the estimate is
    exact, "search" when the hub-free search found the distance, "estimate"
    when it found nothing shorter than the estimate, "none" when neither
    reached t within k.  s == t counts as hub_endpoint or search.
    """

    engine: str
    visited: int = 0
    enqueued: int = 0
    join_ops: int = 0
    answered_by: str = None


@dataclass
class Estimate:
    """Label-join upper bound on the distance, with the hub pair attaining it."""

    value: int = None
    argpair: tuple = None
    join_ops: int = 0


@dataclass
class QueryResult:
    distance: int = None
    path: list = None
    stats: SearchStats = field(default_factory=lambda: SearchStats("none"))

    @property
    def found(self):
        return self.distance is not None


def _check_pair(g, s, t):
    """(s, t) as ints; ValueError unless both are vertex ids of g (vertex_id)."""
    try:
        return vertex_id(s, g.n, "s"), vertex_id(t, g.n, "t")
    except ValueError as exc:
        raise ValueError(f"query pair ({s!r}, {t!r}) is not a pair of integers "
                         f"in [0, {g.n}): {exc}") from None


def bfs_query(g: Graph, s: int, t: int, k: int) -> QueryResult:
    """Bounded BFS from s; the reference engine the others are checked against.

    It runs graph.bfs_tree, not the engines' level step, and reads the path
    back from the levels with graph.level_path, not _stitch, so a fault in
    the engines' step or read-back cannot hide in its own reference.  The
    path steps back from t to the smallest-id in-neighbour one level up.
    k must be nonnegative.
    """
    s, t = _check_pair(g, s, t)
    if k < 0:
        raise ValueError(f"k={k} is negative")
    stats = SearchStats("bfs")
    if s == t:
        return QueryResult(0, [s], stats)
    level, stats.visited = bfs_tree(*g.adjacency(), s, k, stop=t)
    stats.enqueued = int(np.count_nonzero(level >= 0))
    if level[t] < 0:
        return QueryResult(None, None, stats)
    return QueryResult(int(level[t]), level_path(*g.adjacency(True), level, t), stats)


class _Side:
    """One direction of a bidirectional search over one adjacency view.

    The view (offsets, targets, lists) holds the same rows as CSR arrays for
    the vectorized step and as Python lists for the scalar one.  lv holds
    level + 1 (0 = unlabeled) in one bytearray, written by the scalar step
    and, through a numpy array over the same bytes, by the vectorized one;
    _stitch reads the path back from it and _hub_level hn's nearest hub.
    other_lv is the other side's lv, set by _bidirectional once both sides
    exist; each step reads it to pick its level's meet.  The frontier is a
    list in discovery order after a scalar step and an ascending int64 array
    after a vectorized one; either takes either.

    Vertices in the labeled mask start labeled, so no step enters them, and
    nothing reads their level: meets are checked on fresh labels only, and
    _stitch steps only onto marks above the start's.
    """

    __slots__ = ("lv", "other_lv", "frontier", "radius", "offsets", "targets", "adj")

    def __init__(self, view, start, labeled):
        self.offsets, self.targets, self.adj = view
        self.lv = bytearray(len(self.adj) if labeled is None else np.asarray(labeled, bool))
        self.lv[start] = 1
        self.frontier = [start]
        self.radius = 0


def _hub_level(side, hub_ids):
    """Level of the nearest hub the side has labeled (its start too); _UNSET if none."""
    marks = np.frombuffer(side.lv, np.uint8)[hub_ids]
    marks = marks[marks != 0]
    return int(marks.min()) - 1 if marks.size else _UNSET


def _scalar_step(side, frontier):
    """Label the next level with Python scalars; returns (new, meet).

    new is the level as a list in discovery order.  meet is its vertex with
    the lowest mark in other_lv, the smallest id among ties, or -1 if the
    other side has labeled none of it; discovery order is not ascending, so
    ties are broken by id.
    """
    lv, other_lv, adj = side.lv, side.other_lv, side.adj
    mark = side.radius + 2
    new, meet, low = [], -1, 0x100  # low starts above every byte mark
    for v in frontier:
        for w in adj[v]:
            if not lv[w]:
                lv[w] = mark
                new.append(w)
                if other_lv[w]:
                    other = other_lv[w]
                    if other < low or other == low and w < meet:
                        meet, low = w, other
    return new, meet


def _vector_step(side, frontier):
    """Label the next level with whole-array operations; returns (new, meet).

    new is the level as an ascending int64 array, and meet is what
    _scalar_step returns: the candidates are ascending and min keeps the
    first of equal marks.
    """
    lv = np.frombuffer(side.lv, np.uint8)
    dsts = side.targets[csr_slices(side.offsets, np.asarray(frontier, np.int64))[0]]
    new = sort_unique(dsts[lv[dsts] == 0]).astype(np.int64)
    lv[new] = side.radius + 2
    both = new[np.frombuffer(side.other_lv, np.uint8)[new] != 0].tolist()
    return new, min(both, key=side.other_lv.__getitem__) if both else -1


def _few_edges(side, frontier):
    """Whether the frontier has at most SCALAR_EDGES out-edges, counted over
    the view's lists only until the count passes the threshold."""
    adj, left = side.adj, SCALAR_EDGES
    for v in frontier:
        left -= len(adj[v])
        if left < 0:
            return False
    return True


def _expand(side, stats):
    """Advance one side by one level; returns the level's meet, or -1.

    Neither step filters: the side's view and pre-labeled vertices decide.
    Frontiers with at most SCALAR_EDGES out-edges take the scalar step,
    which leaves a list in discovery order as the frontier; larger ones the
    vectorized step, which leaves an ascending array.  Both label the same
    vertices and return the same meet, so only the order within a level
    depends on the step.
    """
    frontier = side.frontier
    stats.visited += len(frontier)
    new, meet = (_scalar_step if _few_edges(side, frontier) else _vector_step)(side, frontier)
    side.frontier = new
    if len(new):
        side.radius += 1
        stats.enqueued += len(new)
    return meet


def _stitch(g, fwd, bwd, meet, s, t):
    """The s-t path through meet, read back from both sides' levels: each
    side steps over g's own lists (in-lists toward s) to the smallest-id
    neighbor one level lower, which exists because a step labeled the vertex
    from one, and from level 1 to its start, never onto a pre-labeled vertex.
    """
    halves = []
    for lv, adj, start in ((fwd.lv, g.search_view(True)[2], s), (bwd.lv, g.search_view()[2], t)):
        v, half = meet, [meet]
        for mark in range(lv[v] - 1, 1, -1):
            for w in adj[v]:
                if lv[w] == mark:
                    break
            v = w
            half.append(v)
        if v != start:
            half.append(start)
        halves.append(half)
    return halves[0][::-1] + halves[1][1:]


def _next_side(fwd, bwd, best, cap, hub_ids):
    """The side to expand next, or None once no meet can sum below min(best, cap).

    Let target = min(best, cap).  (A) While both frontiers are nonempty and
    r_f + r_b < target - 1, the smaller frontier grows.  After that, forward
    grows while r_f + 1 + h_b < target and backward while
    h_f + r_b + 1 < target, where h_x is the level of the nearest hub side x
    has labeled (_hub_level), or _UNSET.  A side with an empty frontier
    never grows; when both can, the smaller frontier goes first.  bibfs, hl
    and hp_bbfs pass no hub_ids, so they stop right after (A): at the radius
    sum, or as soon as one side is exhausted.

    h_x need not skip hubs both sides have labeled: such a hub, say forward's
    nearest, was a meet candidate when the second side labeled it, so
    best <= h_f + r_b and backward's test fails on it (mirrored for
    backward's nearest).  A hub only one side has labeled is no nearer than
    that side's nearest, so h_x decides as the nearest such hub would.

    Why no path shorter than target is missed.  Let P be a shortest s-t
    path of length L < target.  A side is exhausted only once it has
    labeled everything its view reaches.  If P has no hub, both views keep
    all of it, so once r_f + r_b >= L, or once either side is exhausted (it
    has then labeled P's far end), some vertex of P is labeled by both sides
    at its true distances and best <= L already.  Otherwise let x be P's
    first hub and y its last, and replace P's x..y part by a shortest x-y path in
    G[H*] (discovery preserves hub-pair distances within k).  The forward
    view keeps every edge of P up to y and the reverse view every edge from
    x, so forward levels are exact on P up to y, backward levels from x,
    and a vertex of x..y labeled by both sides gives best <= L.  A stop
    short of that needs one of three cases, and none can stop the search.
    Forward labeled x and backward did not: then h_f <= pos(x), and
    backward, whose frontier cannot empty before it labels x, grows until
    r_b >= L - pos(x) and labels x.  Backward labeled y and forward did
    not: the mirror case.  Forward has not reached x nor backward y: then
    neither side is exhausted and r_f + r_b <= L - 2, so (A) goes on.  An
    exhausted side has labeled x (forward) or y (backward), so exhaustion
    short of a meet is one of the first two cases, where the other side grows.

    The stitched path is the one the search would end with anyway: only a
    strictly smaller sum replaces best, and labels never change.
    """
    target = min(best, cap)
    grow_f, grow_b = len(fwd.frontier) > 0, len(bwd.frontier) > 0
    if fwd.radius + bwd.radius >= target - 1 or not (grow_f and grow_b):
        if hub_ids is None:
            return None
        grow_f = grow_f and fwd.radius + 1 + _hub_level(bwd, hub_ids) < target
        grow_b = grow_b and _hub_level(fwd, hub_ids) + bwd.radius + 1 < target
    if grow_f and grow_b:
        return fwd if len(fwd.frontier) <= len(bwd.frontier) else bwd
    return fwd if grow_f else bwd if grow_b else None


def _bidirectional(g, views, s, t, cap, stats, labeled=None, hub_ids=None):
    """Shared core over the (forward, reverse) views, labeled vertices excluded;
    only distances strictly below cap are reported, and the work is counted
    into the caller's stats.  _next_side picks each side to expand and ends
    the search; hub_ids (hn's hub ids) lets it read each side's nearest hub.
    A side labels levels up to cap - 1, stored as marks up to cap in its
    byte buffer, so cap outside [1, MAX_K + 1 = 0xFF] is an error.
    """
    if cap < 1:
        raise ValueError(f"k={cap - 1} is negative")
    if cap > MAX_K + 1:
        raise ValueError(f"k={cap - 1} exceeds MAX_K={MAX_K}: the search stores "
                         f"level + 1 in one byte per vertex")
    if s == t:
        return QueryResult(0, [s], stats)
    fwd = _Side(views[0], s, labeled)
    bwd = _Side(views[1], t, labeled)
    fwd.other_lv, bwd.other_lv = bwd.lv, fwd.lv
    stats.enqueued = 2
    best, meet = _UNSET, -1
    while (side := _next_side(fwd, bwd, best, cap, hub_ids)) is not None:
        w = _expand(side, stats)
        if w >= 0 and (total := side.radius + side.other_lv[w] - 1) < best:
            best, meet = total, w
    if best >= cap:
        return QueryResult(None, None, stats)
    return QueryResult(best, _stitch(g, fwd, bwd, meet, s, t), stats)


def bibfs_query(g: Graph, s: int, t: int, k: int) -> QueryResult:
    """Bidirectional BFS, expanding the smaller frontier first; 0 <= k <= MAX_K."""
    s, t = _check_pair(g, s, t)
    return _bidirectional(g, (g.search_view(), g.search_view(True)), s, t, k + 1,
                          SearchStats("bibfs"))


def hn_query(g: Graph, hubs: HubSet, net: HubNetwork, s: int, t: int, k: int) -> QueryResult:
    """Bidirectional BFS where hubs expand only inside the hub network.

    Both directions search net.search_views.  Levels on vertices shadowed by
    restricted hubs can exceed true distances, but some shortest path within
    k has its stretch from first to last hub (all of it, if hub-free) at true
    levels in both directions, so the minimum over meeting vertices is still
    the distance.  The search stops once neither the radius sum nor the
    nearest hub either side has labeled, read from its levels at the hub
    ids, leaves room for a shorter path (_next_side).
    The path is read back over g's own lists, not the views, so it may step
    from a hub to a vertex outside H*; it is still a shortest path of G.
    Discovery preserves hub-pair distances only up to net.k and only between
    the network's own hubs on its own graph, so a larger k is an error, and
    so are another graph or hub set (HubNetwork.check) and k above MAX_K.
    """
    s, t = _check_pair(g, s, t)
    net.check(g, hubs)
    if k > net.k:
        raise ValueError(f"k={k} exceeds the hub network's k={net.k}; engine hn "
                         f"needs k <= {net.k} or a network discovered with k={k}")
    return _bidirectional(g, net.search_views(g), s, t, k + 1, SearchStats("hn"), hub_ids=hubs.ids)


def hp_bbfs(g: Graph, hub_mask, s: int, t: int, bound: int):
    """Bidirectional BFS that never enqueues a masked vertex.

    Masked vertices start labeled (hub_mask, as bytes, is the initial level
    buffer), so no level step enters one.  Returns a QueryResult whose
    distance is strictly below bound, or absent; bound - 1 is the search's
    k, so bound must lie in [1, MAX_K + 1].
    """
    s, t = _check_pair(g, s, t)
    if hub_mask[s] or hub_mask[t]:
        raise ValueError("hub-pruning search requires unmasked endpoints")
    return _bidirectional(g, (g.search_view(), g.search_view(True)), s, t, bound,
                          SearchStats("hp-bbfs"), labeled=hub_mask)


def estimate(idx: Hub2Index, s: int, t: int) -> Estimate:
    """Label join: the minimum of d(s,x) + matrix[x,y] + d(y,t) within k.

    One row-major scan of s's out-labels by t's in-labels, each in stored
    (distance, rank) order.  Only a strictly smaller total replaces the best,
    and a row ends, or the scan stops, once the label sum alone reaches the
    best, so every skipped pair totals no less than a pair already scanned.
    The result is estimate_full_join's value and hub pair, the first minimum
    in row-major order; join_ops counts the matrix cells read.
    """
    xs, dxs = idx.labels(s, "out")
    ys, dys = idx.labels(t, "in")
    dim, cells = idx.matrix.dim, idx.matrix.cells
    dy_min = dys[0] if dys else INF
    # best <= k + 1 <= INF, so a missing middle leg (INF) never replaces it
    best, arg, join_ops = idx.k + 1, None, 0
    for x, dx in zip(xs, dxs):
        if dx + dy_min >= best:
            break
        row = x * dim
        for y, dy in zip(ys, dys):
            if dx + dy >= best:
                break
            join_ops += 1
            mid = cells[row + y]
            if mid < best - dx - dy:
                best, arg = dx + mid + dy, (x, y)
    if arg is None:
        return Estimate(None, None, join_ops)
    ids = idx.hubs.ids
    return Estimate(best, (int(ids[arg[0]]), int(ids[arg[1]])), join_ops)


def estimate_full_join(idx: Hub2Index, s: int, t: int) -> Estimate:
    """Exhaustive pairwise join over both label lists; estimate's oracle.

    Of the pairs attaining the minimum it picks the first in row-major order
    (np.argmin), and join_ops counts every pair."""
    k = idx.k
    xs, dxs = (np.asarray(a) for a in idx.labels(s, "out"))
    ys, dys = (np.asarray(a) for a in idx.labels(t, "in"))
    ids = idx.hubs.ids
    join_ops = int(xs.size * ys.size)
    if join_ops == 0:
        return Estimate(None, None, join_ops)
    mid = idx.matrix.dist[np.ix_(xs, ys)].astype(np.int32)
    totals = dxs[:, None] + mid + dys[None, :]
    valid = (mid != INF) & (totals <= k)
    if not np.any(valid):
        return Estimate(None, None, join_ops)
    masked = np.where(valid, totals, _UNSET)
    flat = int(np.argmin(masked))
    i, j = divmod(flat, ys.size)
    return Estimate(int(masked.flat[flat]), (int(ids[xs[i]]), int(ids[ys[j]])), join_ops)


def hl_query(g: Graph, idx: Hub2Index, s: int, t: int) -> QueryResult:
    """Two-step query: label-join estimate, then hub-pruning bidirectional BFS.

    A hub endpoint makes the estimate exact (its implicit self label joins the
    core-hub recursion), so the second step runs only for non-hub endpoints,
    bounded by the estimate (hp_bbfs's search, on a pair already checked).
    On equal distances the estimate's path wins.  The index answers for the
    graph it was built on only (Hub2Index.matches), so any other is an error.
    """
    s, t = _check_pair(g, s, t)
    if not idx.matches(g):
        raise ValueError("graph is not the one this index was built on")
    hub_endpoint = bool(idx.hubs.is_hub[s] or idx.hubs.is_hub[t])
    stats = SearchStats("hl", answered_by="hub_endpoint" if hub_endpoint else "search")
    if s == t:
        return QueryResult(0, [s], stats)
    est = estimate(idx, s, t)
    stats.join_ops = est.join_ops
    if not hub_endpoint:
        bound = est.value if est.value is not None else idx.k + 1
        res = _bidirectional(g, (g.search_view(), g.search_view(True)), s, t, bound, stats,
                             labeled=idx.hubs.is_hub)
        if res.found:
            return res
        stats.answered_by = "estimate"
    if est.value is None:
        stats.answered_by = "none"
        return QueryResult(None, None, stats)
    x, y = est.argpair
    path = reconstruct_estimated_path(idx, g, s, x, y, t)
    if len(path) != est.value + 1:
        raise IndexIntegrityError(f"estimated path has {len(path) - 1} hops, not the "
                                  f"estimate's {est.value}; index is corrupted")
    return QueryResult(est.value, path, stats)


def _walk(idx, g, v, rank, d, incoming):
    """Vertex sequence from v to the hub ranked rank, given v's label distance d.

    Each hop goes to the smallest-id neighbor in walk order (in-neighbors for
    incoming labels) with the label (rank, d - 1), found by bisecting its
    label distances and then that class's ranks, or to the hub once d == 1;
    the hub2 module docstring says why that neighbor exists.  Every hop is an
    edge of g and lowers d by one, so a vertex with no such neighbor means the
    index is corrupted.
    """
    table = idx.labels_in if incoming else idx.labels_out
    offsets, dists, ranks = table.views
    adj = g.search_view(incoming)[2]
    path = [v]
    while d > 1:
        d -= 1
        for w in adj[v]:
            hi = offsets[w + 1]
            lo = bisect_left(dists, d, offsets[w], hi)
            hi = bisect_right(dists, d, lo, hi)
            at = bisect_left(ranks, rank, lo, hi)
            if at < hi and ranks[at] == rank:
                break
        else:
            raise IndexIntegrityError(f"no neighbor of vertex {v} carries the label "
                                      f"(hub rank {rank}, {d}); index is corrupted")
        v = w
        path.append(v)
    if d:
        hub, nbrs = int(idx.hubs.ids[rank]), adj[v]
        at = bisect_left(nbrs, hub)
        if at == len(nbrs) or nbrs[at] != hub:
            raise IndexIntegrityError(f"vertex {v} has a label at distance 1 from hub {hub}, "
                                      f"which is not its neighbor; index is corrupted")
        path.append(hub)
    return path


def _label_dist(idx, v, rank, side):
    """v's label distance to the hub ranked rank on side "out" or "in"."""
    for r, d in zip(*idx.labels(v, side)):
        if r == rank:
            return d
    raise IndexIntegrityError(f"vertex {v} lacks a label for hub rank {rank}; index is corrupted")


def _expand_matrix_path(idx, g, i, j):
    """Vertex sequence between two hubs: a chain of hub-label walks.

    The last hub w before j on a shortest i-j path (i for a basic pair)
    gives hub j an incoming label (w, d) with dist[i, w] + d == dist[i, j].
    Each step takes the last such label in j's slice, prepends j's walk
    back to w and moves j to w, lowering dist[i, j] by d >= 1.
    """
    cells, row, ids = idx.matrix.cells, i * idx.matrix.dim, idx.hubs.ids
    left = cells[row + j]
    if left == INF:
        raise IndexIntegrityError(f"no path stored for hub pair ({i}, {j})")
    path = [int(ids[j])]
    while j != i:
        ranks, dists = idx.labels_in.vertex_slice(path[0])
        at = bisect_right(dists, left)
        while at and cells[row + ranks[at - 1]] + dists[at - 1] != left:
            at -= 1
        if not at:
            raise IndexIntegrityError(f"no label of hub rank {j} splits pair ({i}, {j})")
        j, d = ranks[at - 1], dists[at - 1]
        left -= d
        path[:1] = _walk(idx, g, path[0], j, d, incoming=True)[::-1]
    return path


def reconstruct_estimated_path(idx: Hub2Index, g: Graph, s, x, y, t) -> list:
    """Materialize the estimated path s..x..y..t from label walks and the matrix."""
    rank_x = int(idx.hubs.rank[vertex_id(x, g.n, "hub x")])
    rank_y = int(idx.hubs.rank[vertex_id(y, g.n, "hub y")])
    if rank_x < 0 or rank_y < 0:
        raise IndexIntegrityError("estimate endpoints are not hubs")
    head = _walk(idx, g, s, rank_x, _label_dist(idx, s, rank_x, "out"), incoming=False)
    middle = _expand_matrix_path(idx, g, rank_x, rank_y)
    tail = _walk(idx, g, t, rank_y, _label_dist(idx, t, rank_y, "in"), incoming=True)
    tail.reverse()
    return head + middle[1:] + tail[1:]


def query_with_engine(engine, g, s, t, k, net=None, idx=None) -> QueryResult:
    """Dispatch by engine name; used by the command-line front end and the bench.

    hn searches net with its own hubs (net.hubs); hl answers up to the k its
    index was built for, so any other k is an error.
    """
    if engine == "bfs":
        return bfs_query(g, s, t, k)
    if engine == "bibfs":
        return bibfs_query(g, s, t, k)
    if engine == "hn":
        if net is None:
            raise ValueError("hn engine needs a discovered network")
        return hn_query(g, net.hubs, net, s, t, k)
    if engine == "hl":
        if idx is None:
            raise ValueError("hl engine needs a built index")
        check_index_k(idx, k)
        return hl_query(g, idx, s, t)
    raise ValueError(f"unknown engine {engine!r}")


def check_index_k(idx: Hub2Index, k):
    """ValueError unless k is idx's k: hl answers at the k its index was built for."""
    if k != idx.k:
        raise ValueError(f"k={k} differs from the index's k={idx.k}; engine hl "
                         f"needs k={idx.k} or an index built with k={k}")


def check_result(g: Graph, res: QueryResult, expected_distance) -> bool:
    """Certify a result: the distance is expected_distance (None: no path)
    and the path is a walk of g with distance + 1 vertices.  The query's
    endpoints are not in res, so callers compare the path's ends with them."""
    if res.distance != expected_distance:
        return False
    if res.distance is None:
        return res.path is None
    if res.path is None or len(res.path) != res.distance + 1:
        return False
    return validate_path(g, res.path)
