"""Query engines answering bounded shortest-path queries with certified paths.

Four engines share one contract: return the exact distance and one shortest
path when the distance is within k, otherwise report nothing.

- bfs_query: plain bounded BFS (graph.bfs_tree), the ground-truth oracle.
- bibfs_query: bidirectional BFS, smaller frontier first, level-sum cutoff.
- hn_query: bidirectional BFS in which hubs expand only their neighbors
  inside the discovered hub network; it stops once no hub labeled by one
  side only can close a path below the best meet.
- hl_query: two steps -- a levelwise label join against the hub matrix for an
  upper bound, then a bidirectional BFS that never touches a hub.

bibfs, hn and hl's search share one hybrid level step with no filter in it:
each direction searches an adjacency view (offsets, targets, lists), hn's
keeping only H* members in hub rows, and hl's search starts with the hubs
labeled.  A frontier with at most SCALAR_EDGES out-edges is expanded by a
plain Python loop over the view's lists; a larger one by the vectorized
step over its CSR arrays.  One rule, _next_side, picks the side to expand
and stops all three searches.
Fixed numpy cost per call dominates small levels and Python's per-edge cost
dominates large ones; the threshold comes from a sweep over the perfbench
workloads, where 256 to 512 were fastest for all three engines.  Both steps
pick the smallest-id predecessor as parent -- the scalar one by scanning the
frontier in ascending id order, the vectorized one (like graph.bfs_tree)
through graph.first_parents -- so answers, paths and counters do not depend
on which step ran.  The label join is likewise a scalar loop.

bfs_query and estimate_full_join are the oracles the fast paths are checked
against, so they share no level step or join with them: bfs_query runs
graph.bfs_tree, the library's other single-source level loop, and
estimate_full_join joins whole label arrays at once.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, bfs_tree, first_parents, frontier_edges, validate_path
from .hub2 import INF, Hub2Index, IndexIntegrityError
from .hubs import HubSet
from .network import HubNetwork

_UNSET = 1 << 30

# Out-edge count at or below which a frontier takes the scalar step.
SCALAR_EDGES = 256


@dataclass
class SearchStats:
    """Work counters of one query.

    visited counts the frontier vertices expanded, enqueued the vertices
    labeled and join_ops the label pairs compared.  answered_by names the hl
    step whose answer was returned (None for the other engines):
    "hub_endpoint" when s or t is a hub and the estimate is exact, "search"
    when the hub-free search found the distance, "estimate" when it found
    nothing shorter than the estimate, "none" when neither reached t within
    k.  s == t counts as hub_endpoint or search.
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
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise ValueError(f"query pair ({s}, {t}) out of range [0, {g.n})")


def bfs_query(g: Graph, s: int, t: int, k: int) -> QueryResult:
    """Bounded BFS from s; the reference engine the others are checked against.

    It runs graph.bfs_tree, not the engines' level step, so a fault in that
    step cannot hide in its own reference.
    """
    _check_pair(g, s, t)
    stats = SearchStats("bfs")
    if s == t:
        return QueryResult(0, [s], stats)
    level, parent, stats.visited = bfs_tree(*g.adjacency(), s, k, stop=t)
    stats.enqueued = int(np.count_nonzero(level >= 0))
    if level[t] < 0:
        return QueryResult(None, None, stats)
    path = [t]
    while path[-1] != s:
        path.append(int(parent[path[-1]]))
    path.reverse()
    return QueryResult(int(level[t]), path, stats)


class _Side:
    """One direction of a bidirectional search over one adjacency view.

    The view (offsets, targets, lists) holds the same rows as CSR arrays for
    the vectorized step and as Python lists for the scalar one.  lv holds
    level + 1 (0 = unlabeled) and par the predecessor, which is only read
    where lv is set.  Each is one numpy buffer, written by the vectorized
    step and, through a memoryview, by the scalar one.  The frontier is a
    list after a scalar step and an int64 array after a vectorized one,
    ascending either way.

    Vertices in the labeled mask start labeled, so no step enters them, and
    nothing reads their level: meets are checked on fresh labels only, and
    paths are stitched from parents of vertices some step labeled.

    Given hn's hub mask (is_hub, a memoryview of is_hub_np), hubs lists the
    hubs this side labeled in level order, its start included.  Labels are
    never cleared, so the met hubs before hub_head stay met for good.
    """

    __slots__ = ("lv", "lv_np", "par", "par_np", "frontier", "radius", "offsets",
                 "targets", "adj", "is_hub", "is_hub_np", "hubs", "hub_head")

    def __init__(self, view, start, labeled, hub_mask):
        self.offsets, self.targets, self.adj = view
        n = len(self.adj)
        self.lv_np = np.zeros(n, np.uint16) if labeled is None else labeled.astype(np.uint16)
        self.par_np = np.empty(n, np.uint32)
        self.lv, self.par = memoryview(self.lv_np), memoryview(self.par_np)
        self.lv[start] = 1
        self.frontier = [start]
        self.radius = 0
        self.is_hub_np = hub_mask
        self.is_hub = None if hub_mask is None else memoryview(hub_mask)
        self.hubs = [start] if hub_mask is not None and hub_mask[start] else []
        self.hub_head = 0

    def add_hubs(self, new):
        """Append the hubs among the fresh labels new, one level's worth."""
        if isinstance(new, list):
            is_hub = self.is_hub
            self.hubs += [w for w in new if is_hub[w]]
        else:
            self.hubs += new[self.is_hub_np[new]].tolist()

    def min_open_hub(self, other):
        """Level of the first hub this side labeled and other has not; _UNSET if none."""
        hubs, head, other_lv = self.hubs, self.hub_head, other.lv
        while head < len(hubs) and other_lv[hubs[head]]:
            head += 1
        self.hub_head = head
        return self.lv[hubs[head]] - 1 if head < len(hubs) else _UNSET


def _scalar_step(side, frontier):
    """Label the next level with Python scalars; frontier is an ascending list.

    Scanning the frontier in ascending order makes the first discoverer of a
    vertex its smallest-id predecessor, as in the vectorized step.
    """
    lv, par, adj = side.lv, side.par, side.adj
    mark = side.radius + 2
    new = []
    for v in frontier:
        for w in adj[v]:
            if not lv[w]:
                lv[w] = mark
                par[w] = v
                new.append(w)
    new.sort()
    return new


def _vector_step(side, frontier):
    """Label the next level with whole-array operations; frontier and result are int64 arrays."""
    srcs, dsts = frontier_edges(side.offsets, side.targets, frontier)
    fresh = side.lv_np[dsts] == 0
    new, pred = first_parents(srcs[fresh], dsts[fresh])
    side.lv_np[new] = side.radius + 2
    side.par_np[new] = pred
    return new


def _out_edges(side, frontier):
    if isinstance(frontier, list):
        adj = side.adj
        return sum([len(adj[v]) for v in frontier])
    offsets = side.offsets
    return int(offsets[frontier + 1].sum() - offsets[frontier].sum())


def _expand(side, stats):
    """Advance one side by one level; returns the newly labeled vertices.

    Neither step filters: the side's view and pre-labeled vertices decide.
    Frontiers with at most SCALAR_EDGES out-edges take the scalar step.
    """
    frontier = side.frontier
    stats.visited += len(frontier)
    if _out_edges(side, frontier) <= SCALAR_EDGES:
        new = _scalar_step(side, frontier if isinstance(frontier, list) else frontier.tolist())
    else:
        new = _vector_step(side, np.asarray(frontier, dtype=np.int64))
    side.frontier = new
    if len(new):
        side.radius += 1
        stats.enqueued += len(new)
    return new


def _register_meets(new, side, other, best, meet):
    """Fold newly double-labeled vertices into the best meeting candidate.

    Candidates are scanned in ascending id order and only a strictly smaller
    sum replaces the best, so the meeting vertex is the smallest id among
    those attaining the minimum.
    """
    radius = side.radius
    if isinstance(new, list):
        other_lv = other.lv
        for w in new:
            hit = other_lv[w]
            if hit and radius + hit - 1 < best:
                best, meet = radius + hit - 1, w
        return best, meet
    hits = other.lv_np[new]
    seen = np.flatnonzero(hits)
    if seen.size:
        sums = hits[seen].astype(np.int64) + (radius - 1)
        pos = int(np.argmin(sums))
        if int(sums[pos]) < best:
            return int(sums[pos]), int(new[seen[pos]])
    return best, meet


def _stitch(fwd, bwd, meet, s, t):
    left = [meet]
    v = meet
    while v != s:
        v = fwd.par[v]
        left.append(v)
    left.reverse()
    v = meet
    while v != t:
        v = bwd.par[v]
        left.append(v)
    return left


def _next_side(fwd, bwd, best, cap):
    """The side to expand next, or None once no meet can sum below min(best, cap).

    Let target = min(best, cap).  (A) While r_f + r_b < target - 1 the
    smaller frontier among the nonempty ones grows.  After that, forward
    grows while r_f + 1 + open_b < target and backward while
    open_f + r_b + 1 < target, where open_x is the level of the first hub
    side x labeled and the other side has not, or _UNSET.  A side with an
    empty frontier never grows; when both can, the smaller frontier goes
    first.  bibfs and hp_bbfs keep no hubs, so they stop right after (A).

    Why no path shorter than target is missed.  Let P be a shortest s-t
    path of length L < target.  If P has no hub, both views keep all of it,
    so once r_f + r_b >= L some vertex of P is labeled by both sides at its
    true distances and best <= L already.  Otherwise let x be P's first hub
    and y its last, and replace P's x..y part by a shortest x-y path in
    G[H*] (discovery preserves hub-pair distances within k).  The forward
    view keeps every edge of P up to y and the reverse view every edge from
    x, so forward levels are exact on P up to y, backward levels from x,
    and a vertex of x..y labeled by both sides gives best <= L.  A stop
    short of that needs one of three cases, and none can stop the search.
    Forward labeled x and backward did not: then open_f <= pos(x), and
    backward, whose frontier cannot empty before it labels x, grows until
    r_b >= L - pos(x) and labels x.  Backward labeled y and forward did
    not: the mirror case.  Forward has not reached x nor backward y: then
    r_f + r_b <= L - 2 and (A) goes on.

    The stitched path is the one the search would end with anyway: only a
    strictly smaller sum replaces best, and labels and parents never change.
    """
    target = min(best, cap)
    grow_f, grow_b = len(fwd.frontier) > 0, len(bwd.frontier) > 0
    if fwd.radius + bwd.radius >= target - 1:
        grow_f = grow_f and fwd.radius + 1 + bwd.min_open_hub(fwd) < target
        grow_b = grow_b and fwd.min_open_hub(bwd) + bwd.radius + 1 < target
    if grow_f and grow_b:
        return fwd if len(fwd.frontier) <= len(bwd.frontier) else bwd
    return fwd if grow_f else bwd if grow_b else None


def _graph_views(g):
    """g's own adjacency, forward and reverse, as the views a _Side searches."""
    return (*g.adjacency(), g.adj_lists()), (*g.adjacency(True), g.adj_lists(True))


def _bidirectional(views, s, t, cap, engine, labeled=None, hub_mask=None):
    """Shared core over the (forward, reverse) views, labeled vertices excluded;
    only distances strictly below cap are reported.  _next_side picks each
    side to expand and ends the search; hub_mask (hn) gives it open hubs.
    """
    stats = SearchStats(engine)
    if s == t:
        return QueryResult(0 if 0 < cap else None, [s] if 0 < cap else None, stats)
    if cap + 2 > 0xFFFF:
        # levels are stored as level + 1 in uint16
        raise ValueError(f"distance bound {cap} does not fit the 16-bit level buffer")
    fwd = _Side(views[0], s, labeled, hub_mask)
    bwd = _Side(views[1], t, labeled, hub_mask)
    stats.enqueued = 2
    best, meet = _UNSET, -1
    while (side := _next_side(fwd, bwd, best, cap)) is not None:
        new = _expand(side, stats)
        if hub_mask is not None:
            side.add_hubs(new)
        other = bwd if side is fwd else fwd
        best, meet = _register_meets(new, side, other, best, meet)
    if best >= cap:
        return QueryResult(None, None, stats)
    return QueryResult(best, _stitch(fwd, bwd, meet, s, t), stats)


def bibfs_query(g: Graph, s: int, t: int, k: int) -> QueryResult:
    """Bidirectional BFS, expanding the smaller frontier first."""
    _check_pair(g, s, t)
    return _bidirectional(_graph_views(g), s, t, k + 1, "bibfs")


def hn_query(g: Graph, hubs: HubSet, net: HubNetwork, s: int, t: int, k: int) -> QueryResult:
    """Bidirectional BFS where hubs expand only inside the hub network.

    Both directions search net.search_views.  Levels on vertices shadowed by
    restricted hubs can exceed true distances, but some shortest path within
    k has its stretch from first to last hub (all of it, if hub-free) at true
    levels in both directions, so the minimum over meeting vertices is still
    the distance.  The search stops once neither the radius sum nor a hub
    labeled by one side only leaves room for a shorter path (_next_side).
    Discovery preserves hub-pair distances only up to net.k, so a larger k
    is an error.
    """
    _check_pair(g, s, t)
    if k > net.k:
        raise ValueError(f"k={k} exceeds the hub network's k={net.k}; engine hn "
                         f"needs k <= {net.k} or a network discovered with k={k}")
    return _bidirectional(net.search_views(g, hubs), s, t, k + 1, "hn",
                          hub_mask=hubs.is_hub)


def hp_bbfs(g: Graph, hub_mask, s: int, t: int, bound: int):
    """Bidirectional BFS that never enqueues a masked vertex.

    Masked vertices start labeled (hub_mask is the initial level buffer), so
    no level step enters one.  Returns a QueryResult whose distance is
    strictly below bound, or absent.
    """
    _check_pair(g, s, t)
    if hub_mask[s] or hub_mask[t]:
        raise ValueError("hub-pruning search requires unmasked endpoints")
    return _bidirectional(_graph_views(g), s, t, bound, "hp-bbfs", labeled=hub_mask)


def _label_lists(idx, v, side):
    """Hub ranks keyed by label distance, as Python lists."""
    ranks, dists = (a.tolist() for a in idx.labels(v, side))
    classes = {}
    lo = 0
    while lo < len(dists):
        hi = bisect_right(dists, dists[lo], lo)
        classes[dists[lo]] = ranks[lo:hi]
        lo = hi
    return classes


def estimate(idx: Hub2Index, s: int, t: int) -> Estimate:
    """Levelwise label join: the minimum of d(s,x) + matrix[x,y] + d(y,t).

    Distance classes are visited in nondecreasing class sum (source level
    ascending within equal sums) and the join stops as soon as the best value
    beats every remaining class sum.  Candidates whose middle leg is missing
    or whose total exceeds k are discarded.  Within a class pair the scan is
    row-major and only a strictly smaller total replaces the best, so the hub
    pair is the one estimate_full_join's argmin would pick in that block.
    """
    k = idx.k
    cls_s = _label_lists(idx, s, "out")
    cls_t = _label_lists(idx, t, "in")
    dim = idx.matrix.dim
    dist = idx.matrix.cells
    best = _UNSET
    arg = None
    join_ops = 0
    for total_pq in range(0, k + 1):
        if best < total_pq:
            break
        for p in range(0, total_pq + 1):
            xs = cls_s.get(p)
            ys = cls_t.get(total_pq - p)
            if xs is None or ys is None:
                continue
            join_ops += len(xs) * len(ys)
            # a middle leg below limit beats best and keeps the total within k
            limit = min(k - total_pq + 1, best - total_pq)
            for x in xs:
                row = x * dim
                for y in ys:
                    mid = dist[row + y]
                    if mid < limit:
                        limit = mid
                        best, arg = mid + total_pq, (x, y)
    if best > k:
        return Estimate(None, None, join_ops)
    ids = idx.hubs.ids
    return Estimate(best, (int(ids[arg[0]]), int(ids[arg[1]])), join_ops)


def estimate_full_join(idx: Hub2Index, s: int, t: int) -> Estimate:
    """Exhaustive pairwise join over both label lists; the levelwise oracle."""
    k = idx.k
    xs, dxs = idx.labels(s, "out")
    ys, dys = idx.labels(t, "in")
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
    bounded by the estimate.  On equal distances the estimate's path wins.
    """
    _check_pair(g, s, t)
    k = idx.k
    hub_endpoint = bool(idx.hubs.is_hub[s] or idx.hubs.is_hub[t])
    stats = SearchStats("hl", answered_by="hub_endpoint" if hub_endpoint else "search")
    if s == t:
        return QueryResult(0, [s], stats)
    est = estimate(idx, s, t)
    stats.join_ops = est.join_ops
    if not hub_endpoint:
        bound = est.value if est.value is not None else k + 1
        res = hp_bbfs(g, idx.hubs.is_hub, s, t, bound)
        res.stats.join_ops = est.join_ops
        res.stats.engine = "hl"
        if res.found:
            res.stats.answered_by = "search"
            return res
        stats = res.stats
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
    adj = g.adj_lists(reverse=incoming)
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
    ranks, dists = idx.labels(v, side)
    ranks = ranks.tolist()
    if rank not in ranks:
        raise IndexIntegrityError(
            f"vertex {v} lacks a label for hub rank {rank}; index is corrupted")
    return int(dists[ranks.index(rank)])


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
        ranks, dists = (a.tolist() for a in idx.labels_in.vertex_slice(path[0]))
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
    rank_x = int(idx.hubs.rank[x])
    rank_y = int(idx.hubs.rank[y])
    if rank_x < 0 or rank_y < 0:
        raise IndexIntegrityError("estimate endpoints are not hubs")
    head = _walk(idx, g, s, rank_x, _label_dist(idx, s, rank_x, "out"), incoming=False)
    middle = _expand_matrix_path(idx, g, rank_x, rank_y)
    tail = _walk(idx, g, t, rank_y, _label_dist(idx, t, rank_y, "in"), incoming=True)
    tail.reverse()
    return head + middle[1:] + tail[1:]


def query_with_engine(engine, g, s, t, k, hubs=None, net=None, idx=None) -> QueryResult:
    """Dispatch by engine name; used by the command-line front end and the bench.

    hl answers up to the k its index was built for, so any other k is an error.
    """
    if engine == "bfs":
        return bfs_query(g, s, t, k)
    if engine == "bibfs":
        return bibfs_query(g, s, t, k)
    if engine == "hn":
        if hubs is None or net is None:
            raise ValueError("hn engine needs a hub set and a discovered network")
        return hn_query(g, hubs, net, s, t, k)
    if engine == "hl":
        if idx is None:
            raise ValueError("hl engine needs a built index")
        if k != idx.k:
            raise ValueError(f"k={k} differs from the index's k={idx.k}; engine hl "
                             f"needs k={idx.k} or an index built with k={k}")
        return hl_query(g, idx, s, t)
    raise ValueError(f"unknown engine {engine!r}")


def check_result(g: Graph, res: QueryResult, expected_distance) -> bool:
    """Certify a result: the distance is expected_distance (None: no path)
    and the path is a walk of g with distance + 1 vertices.  The query's
    endpoints are not in res, so the path's ends are not checked."""
    if res.distance != expected_distance:
        return False
    if res.distance is None:
        return res.path is None
    if res.path is None or len(res.path) != res.distance + 1:
        return False
    return validate_path(g, res.path)
