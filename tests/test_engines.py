import hashlib
import json

import numpy as np
import pytest

from hubpath import engines
from hubpath import (
    Graph,
    HubSet,
    IndexIntegrityError,
    QueryResult,
    bfs_query,
    bibfs_query,
    build_index,
    discover,
    estimate,
    estimate_full_join,
    gen_synthetic,
    hl_query,
    hn_query,
    load_edge_list,
    reconstruct_estimated_path,
    select_hubs,
    validate_path,
)
from hubpath.engines import hp_bbfs
from hubpath.hub2 import MAX_K

from conftest import ba_graph, cyclic_digraph, er_graph
from oracles import (
    adjacency_from_graph,
    all_pairs_dist,
    bfs_dist,
    hn_wrong_answers,
    masked_bfs_dist,
    plain_landmark_estimate,
    some_shortest_path_has_hub,
)


def hubset(g, ids):
    return HubSet.from_ids(g.n, ids)


def assert_certified(g, res, expected):
    assert res.distance == expected
    if expected is None:
        assert res.path is None
    else:
        assert len(res.path) == expected + 1
        assert validate_path(g, res.path)


# ----------------------------------------------------------------- baselines

def test_bfs_trivials(chain4):
    assert_certified(chain4, bfs_query(chain4, 1, 1, 6), 0)
    res = bfs_query(chain4, 0, 3, 6)
    assert res.path == [0, 1, 2, 3]
    assert_certified(chain4, res, 3)


def test_bfs_beyond_bound():
    g = Graph.from_edges(8, range(7), range(1, 8), directed=False)
    assert bfs_query(g, 0, 7, 6).distance is None
    assert bfs_query(g, 0, 6, 6).distance == 6


def test_check_result_none_expects_no_path():
    # an explicit None is the oracle's "no path within k", not "no expectation"
    g = Graph.from_edges(8, range(7), range(1, 8), directed=False)
    found = QueryResult(7, list(range(8)))
    assert engines.check_result(g, found, 7)
    assert not engines.check_result(g, found, None)
    assert engines.check_result(g, QueryResult(), None)
    assert not engines.check_result(g, QueryResult(), 7)


def test_bibfs_matches_bfs_trivials(chain4):
    for s, t in [(1, 1), (0, 3), (3, 0)]:
        assert bibfs_query(chain4, s, t, 6).distance == bfs_query(chain4, s, t, 6).distance


def test_bibfs_oracle_sweep_and_search_space():
    g = er_graph(500, 8, seed=21)
    rng = np.random.Generator(np.random.PCG64(77))
    wins = total = 0
    for _ in range(200):
        s, t = (int(x) for x in rng.integers(0, g.n, 2))
        truth = bfs_query(g, s, t, 6)
        res = bibfs_query(g, s, t, 6)
        assert res.distance == truth.distance
        if res.found:
            assert validate_path(g, res.path) and len(res.path) == res.distance + 1
        total += 1
        if res.stats.visited <= truth.stats.visited:
            wins += 1
    assert wins >= 0.9 * total


def test_cyclic_digraph_has_cycles():
    # the directed sweeps also run on these graphs, since er_graph and
    # ba_graph give DAGs with directed=True
    for g in (cyclic_digraph("er", 50, 4, 71), cyclic_digraph("ba", 60, 2, 72),
              cyclic_digraph("er", 300, 6, 3), cyclic_digraph("ba", 250, 3, 7)):
        src = np.repeat(np.arange(g.n), np.diff(g.out_offsets))
        assert (src > g.out_targets).any() and (src < g.out_targets).any()
        assert any(g.has_edge(v, u) for u, v in zip(src.tolist(), g.out_targets.tolist()))


def test_bibfs_directed_agreement():
    for g in (er_graph(300, 6, seed=3, directed=True), cyclic_digraph("er", 300, 6, 3)):
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(150):
            s, t = (int(x) for x in rng.integers(0, g.n, 2))
            truth = bfs_query(g, s, t, 6)
            res = bibfs_query(g, s, t, 6)
            assert res.distance == truth.distance
            if res.found:
                assert validate_path(g, res.path)


# ------------------------------------------------------------------ hn engine

def test_hn_no_hubs_equals_bibfs():
    g = er_graph(300, 6, seed=31)
    hubs = hubset(g, [])
    net = discover(g, hubs, 6)
    rng = np.random.Generator(np.random.PCG64(8))
    for _ in range(200):
        s, t = (int(x) for x in rng.integers(0, g.n, 2))
        assert hn_query(g, hubs, net, s, t, 6).distance == bibfs_query(g, s, t, 6).distance


def test_hn_chain_meets_inside_network(chain4):
    hubs = hubset(chain4, [1, 2])
    net = discover(chain4, hubs, 6)
    res = hn_query(chain4, hubs, net, 0, 3, 6)
    assert_certified(chain4, res, 3)
    assert res.path == [0, 1, 2, 3]
    # lone hub 2 keeps no neighbor in its search row, and the sides meet on
    # it: the path is read back over the graph's lists, not the views
    chain5 = Graph.from_edges(5, range(4), range(1, 5), directed=False)
    hubs = hubset(chain5, [2])
    res = hn_query(chain5, hubs, discover(chain5, hubs, 6), 0, 4, 6)
    assert res.path == [0, 1, 2, 3, 4]


def test_hn_oracle_sweep_top5pct():
    g = er_graph(500, 8, seed=41)
    hubs = select_hubs(g, 25)
    net = discover(g, hubs, 6)
    rng = np.random.Generator(np.random.PCG64(9))
    for _ in range(200):
        s, t = (int(x) for x in rng.integers(0, g.n, 2))
        res = hn_query(g, hubs, net, s, t, 6)
        assert res.distance == bfs_query(g, s, t, 6).distance
        if res.found:
            assert validate_path(g, res.path) and len(res.path) == res.distance + 1


def test_hn_hub_endpoints_and_directed():
    g = er_graph(300, 6, seed=43, directed=True)
    hubs = select_hubs(g, 15)
    net = discover(g, hubs, 6)
    rng = np.random.Generator(np.random.PCG64(10))
    pairs = [(int(h), int(x)) for h, x in zip(hubs.ids, rng.integers(0, g.n, hubs.size))]
    pairs += [(t, s) for s, t in pairs]
    for s, t in pairs:
        if s == t:
            continue
        assert hn_query(g, hubs, net, s, t, 6).distance == bfs_query(g, s, t, 6).distance


def test_hn_exact_on_every_pair():
    # hn's stop rule bounds the meets still open through hubs, so every
    # ordered pair is checked over hub counts and bounds; the directed graph
    # keeps 60% of an undirected graph's arcs, so some arcs lose their reverse
    und = er_graph(40, 4, seed=91)
    src = np.repeat(np.arange(und.n), np.diff(und.out_offsets))
    keep = np.random.Generator(np.random.PCG64(92)).random(src.size) < 0.6
    directed = Graph.from_edges(und.n, src[keep], und.out_targets[keep], directed=True)
    for g in (ba_graph(50, 2, seed=93), directed):
        assert hn_wrong_answers(g, (1, 3, g.n // 5), (1, 2, 3, 5)) == []


def test_hn_rejects_k_above_the_network():
    # discover preserves hub-pair distances only up to its own k: on this
    # graph a network discovered at k = 1 made hn answer 3 for (7, 5) at
    # k = 6, whose distance is 2
    g = load_edge_list(gen_synthetic("ba", 300, 2, seed=0))
    hubs = select_hubs(g, 20)
    net = discover(g, hubs, 1)
    for k in (2, 6):
        with pytest.raises(ValueError, match=f"k={k} exceeds the hub network's k=1"):
            hn_query(g, hubs, net, 7, 5, k)
    for net_k in (1, 2):
        net = discover(g, hubs, net_k)
        for k in range(1, net_k + 1):
            for s in range(0, g.n, 10):
                for t in range(g.n):
                    res = hn_query(g, hubs, net, s, t, k)
                    assert_certified(g, res, bfs_query(g, s, t, k).distance)


# ----------------------------------------------------------------- estimation

def test_estimate_chain(chain4):
    idx = build_index(chain4, hubset(chain4, [1, 2]), 6)
    est = estimate(idx, 0, 3)
    assert est.value == 3
    assert est.argpair == (1, 2)


def test_estimate_star(star6):
    idx = build_index(star6, hubset(star6, [0]), 6)
    est = estimate(idx, 1, 2)
    assert est.value == 2
    assert est.argpair == (0, 0)


def test_estimate_same_vertex_can_exceed_zero(star6):
    # the query layer short-circuits s == t before estimating
    idx = build_index(star6, hubset(star6, [0]), 6)
    assert estimate(idx, 1, 1).value == 2
    assert hl_query(star6, idx, 1, 1).distance == 0


def test_estimate_never_underestimates():
    g = ba_graph(250, 3, seed=17)
    k = 6
    idx = build_index(g, select_hubs(g, 12), k)
    rows = all_pairs_dist(adjacency_from_graph(g))
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(300):
        s, t = (int(x) for x in rng.integers(0, g.n, 2))
        if s == t:
            continue
        est = estimate(idx, s, t)
        if est.value is not None:
            true = rows[s].get(t)
            assert true is not None and est.value >= true
            x, y = est.argpair
            assert rows[s][x] + rows[x][y] + rows[y][t] == est.value


def test_estimate_full_join_equivalence():
    for g in (ba_graph(400, 4, seed=23), er_graph(300, 12, seed=8, directed=True),
              cyclic_digraph("er", 300, 12, 8)):
        idx = build_index(g, select_hubs(g, 16), 6)
        rng = np.random.Generator(np.random.PCG64(13))
        for _ in range(1000):
            s, t = (int(x) for x in rng.integers(0, g.n, 2))
            fast = estimate(idx, s, t)
            full = estimate_full_join(idx, s, t)
            assert fast.value == full.value
            assert fast.argpair == full.argpair
            assert fast.join_ops <= full.join_ops


def label_dist(idx, v, hub, side):
    """d(v, hub) ("out") or d(hub, v) ("in") as stored in v's labels."""
    if idx.hubs.is_hub[v]:
        return 0 if v == hub else None
    table = idx.labels_out if side == "out" else idx.labels_in
    ranks, dists = table.vertex_slice(v)
    pos = np.flatnonzero(np.asarray(ranks) == idx.hubs.rank[hub])
    return int(dists[pos[0]]) if pos.size else None


def test_estimate_argpair_attains_value():
    for g in (ba_graph(400, 4, seed=23), er_graph(300, 12, seed=8, directed=True)):
        idx = build_index(g, select_hubs(g, 16), 6)
        rng = np.random.Generator(np.random.PCG64(19))
        found = 0
        for _ in range(400):
            s, t = (int(x) for x in rng.integers(0, g.n, 2))
            est = estimate(idx, s, t)
            if est.value is None:
                continue
            found += 1
            x, y = est.argpair
            mid = int(idx.matrix.dist[idx.hubs.rank[x], idx.hubs.rank[y]])
            assert label_dist(idx, s, x, "out") + mid + label_dist(idx, t, y, "in") == est.value
            path = reconstruct_estimated_path(idx, g, s, x, y, t)
            assert path[0] == s and path[-1] == t
            assert len(path) == est.value + 1 and validate_path(g, path)
        assert found >= 50


def test_estimate_empty_labels_gives_none():
    # two components: hubs live in one, the pair in the other
    g = Graph.from_edges(6, [0, 1, 3, 4], [1, 2, 4, 5], directed=False)
    idx = build_index(g, hubset(g, [1]), 6)
    assert estimate(idx, 3, 5).value is None
    assert estimate_full_join(idx, 3, 5).value is None
    assert estimate(idx, 3, 5).join_ops == 0


def test_estimate_dominates_plain_landmark_bound():
    g = er_graph(220, 6, seed=29)
    k = 6
    hubs = select_hubs(g, 10)
    idx = build_index(g, hubs, k)
    rows = all_pairs_dist(adjacency_from_graph(g))
    hub_ids = [int(h) for h in hubs.ids]
    rng = np.random.Generator(np.random.PCG64(14))
    for _ in range(300):
        s, t = (int(x) for x in rng.integers(0, g.n, 2))
        if s == t:
            continue
        single = plain_landmark_estimate(rows, s, t, hub_ids, k)
        if single is not None:
            est = estimate(idx, s, t)
            assert est.value is not None and est.value <= single


# ------------------------------------------------------------------ hp-bbfs

def test_hp_bbfs_empty_mask_behaves_like_bibfs():
    g = er_graph(300, 6, seed=37)
    mask = np.zeros(g.n, bool)
    rng = np.random.Generator(np.random.PCG64(15))
    for _ in range(100):
        s, t = (int(x) for x in rng.integers(0, g.n, 2))
        assert hp_bbfs(g, mask, s, t, 7).distance == bibfs_query(g, s, t, 6).distance


def test_hp_bbfs_never_expands_masked(expanded):
    g = ba_graph(800, 4, seed=39)
    hubs = select_hubs(g, 8)
    rng = np.random.Generator(np.random.PCG64(16))
    done = 0
    while done < 50:
        s, t = (int(x) for x in rng.integers(0, g.n, 2))
        if s == t or hubs.is_hub[s] or hubs.is_hub[t]:
            continue
        res, seen = expanded(hp_bbfs, g, hubs.is_hub, s, t, 7)
        assert not hubs.is_hub[seen].any()
        # nor does its path: hubs share the start's level-0 mark
        if res.found:
            assert res.path[0] == s and res.path[-1] == t
            assert not hubs.is_hub[res.path].any()
        done += 1
    # 1's only route to 3 passes 2, whose smaller neighbor 0 is masked
    g = Graph.from_edges(4, [0, 1, 2], [2, 2, 3], directed=False)
    assert hp_bbfs(g, hubset(g, [0]).is_hub, 1, 3, 7).path == [1, 2, 3]


def test_hp_bbfs_matches_masked_oracle():
    g = ba_graph(2000, 5, seed=41)
    hubs = select_hubs(g, 20)
    adj = adjacency_from_graph(g)
    rng = np.random.Generator(np.random.PCG64(17))
    done = 0
    while done < 500:
        s, t = (int(x) for x in rng.integers(0, g.n, 2))
        if s == t or hubs.is_hub[s] or hubs.is_hub[t]:
            continue
        res = hp_bbfs(g, hubs.is_hub, s, t, 7)
        truth = masked_bfs_dist(adj, s, hubs.is_hub, 6).get(t)
        if truth is not None and truth <= 6:
            assert res.distance == truth
        else:
            assert res.distance is None
        done += 1


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_every_bound_on_small_graphs(directed):
    # the stop rule decides which sums a search still reaches, so every bound
    # from 1 to k + 1 is swept over all ordered pairs
    k = 5
    graphs = [er_graph(50, 4, seed=71, directed=directed),
              ba_graph(60, 2, seed=72, directed=directed)]
    if directed:
        graphs += [cyclic_digraph("er", 50, 4, 71), cyclic_digraph("ba", 60, 2, 72)]
    for g in graphs:
        hubs = select_hubs(g, 4)
        adj = adjacency_from_graph(g)
        for s in range(g.n):
            hub_free = None if hubs.is_hub[s] else masked_bfs_dist(adj, s, hubs.is_hub)
            for t in range(g.n):
                for bound in range(1, k + 2):
                    truth = bfs_query(g, s, t, bound - 1).distance
                    assert_certified(g, bibfs_query(g, s, t, bound - 1), truth)
                    if hub_free is None or hubs.is_hub[t]:
                        continue
                    d = hub_free.get(t)
                    res = hp_bbfs(g, hubs.is_hub, s, t, bound)
                    assert_certified(g, res, d if d is not None and d < bound else None)


def test_search_stops_at_radius_sum_one_below_the_bound():
    # chain 0..11 plus hub 12 adjacent to 0 and 6; both frontiers hold one
    # vertex and the forward side wins ties, so its radius is the radius sum
    g = Graph.from_edges(13, list(range(11)) + [12, 12], list(range(1, 12)) + [0, 6],
                         directed=False)
    mask = np.zeros(g.n, bool)
    mask[12] = True
    for bound in range(1, 7):
        res = hp_bbfs(g, mask, 0, 6, bound)
        assert res.distance is None
        assert (res.stats.visited, res.stats.enqueued) == (bound - 1, bound + 1)
    assert hp_bbfs(g, mask, 0, 6, 7).distance == 6
    # hl: the estimate through the hub is 2, so the pruned search expands once
    res = hl_query(g, build_index(g, hubset(g, [12]), 8), 0, 6)
    assert res.path == [0, 12, 6]
    assert (res.stats.visited, res.stats.enqueued) == (1, 3)
    # bibfs with no path within k stops at radius sum k
    chain = Graph.from_edges(12, range(11), range(1, 12), directed=False)
    for k in range(1, 7):
        res = bibfs_query(chain, 0, 11, k)
        assert res.distance is None
        assert (res.stats.visited, res.stats.enqueued) == (k, k + 2)


def test_search_ends_once_a_side_is_exhausted(monkeypatch, expanded):
    # 301 has no out-arc, so the forward side exhausts at radius 0 and bibfs
    # ends there instead of growing the backward side to the bound
    chain = Graph.from_edges(302, list(range(300)) + [0], list(range(1, 301)) + [301],
                             directed=True)
    res = bibfs_query(chain, 301, 300, MAX_K)
    assert res.distance is None
    assert (res.stats.visited, res.stats.enqueued) == (1, 2)
    # 0's one arc leads to hub 1: the pruned search exhausts at once and the
    # estimate answers
    arcs = Graph.from_edges(4, [0, 1, 2], [1, 2, 3], directed=True)
    hubs = hubset(arcs, [1])
    res = hl_query(arcs, build_index(arcs, hubs, 6), 0, 3)
    assert res.path == [0, 1, 2, 3] and res.stats.answered_by == "estimate"
    assert (res.stats.visited, res.stats.enqueued) == (1, 2)
    # hn's forward side exhausts at radius 1, since hub 1's row keeps only
    # H* members; hub 1 is still open, so the backward side grows to meet it
    res = hn_query(arcs, hubs, discover(arcs, hubs, 6), 0, 3, 6)
    assert_certified(arcs, res, 3)
    assert res.path == [0, 1, 2, 3]
    # bibfs and hp_bbfs expand no level after a step labels nothing
    steps, spy = [], engines._expand

    def record(side, stats):
        meet = spy(side, stats)
        steps.append(len(side.frontier))
        return meet

    monkeypatch.setattr(engines, "_expand", record)
    ended = 0
    for g in (er_graph(300, 6, seed=3, directed=True), ba_graph(250, 3, seed=7, directed=True)):
        hubs = select_hubs(g, 12)
        rng = np.random.Generator(np.random.PCG64(18))
        for s, t in rng.integers(0, g.n, size=(150, 2)).tolist():
            searches = [(bibfs_query, g, s, t, 6)]
            if not (hubs.is_hub[s] or hubs.is_hub[t]):
                searches.append((hp_bbfs, g, hubs.is_hub, s, t, 7))
            for query, *args in searches:
                steps.clear()
                res, seen = expanded(query, *args)
                assert seen.size == res.stats.visited
                assert 0 not in steps[:-1], (query.__name__, s, t)
                ended += steps[-1:] == [0]
    assert ended >= 10


def test_hp_bbfs_rejects_masked_endpoint(star6):
    mask = np.zeros(star6.n, bool)
    mask[0] = True
    with pytest.raises(ValueError):
        hp_bbfs(star6, mask, 0, 3, 7)


# ------------------------------------------------------------------ hl engine

def test_hl_star_leaves(star6, expanded):
    idx = build_index(star6, hubset(star6, [0]), 6)
    res, seen = expanded(hl_query, star6, idx, 1, 2)
    assert_certified(star6, res, 2)
    assert res.path == [1, 0, 2]
    # step 2 expands only leaf 1, whose one neighbor is the pruned center,
    # and ends once that side is exhausted
    assert seen.tolist() == [1]


def test_hl_disconnecting_hub():
    g = Graph.from_edges(5, [0, 1, 2, 3], [1, 2, 3, 4], directed=False)
    idx = build_index(g, hubset(g, [2]), 6)
    res = hl_query(g, idx, 0, 4)
    assert_certified(g, res, 4)
    assert res.path == [0, 1, 2, 3, 4]


def test_hl_tie_prefers_estimate_path():
    # two length-2 routes: via the hub (1) and hub-free (via 3)
    g = Graph.from_edges(5, [0, 1, 0, 3], [1, 4, 3, 4], directed=False)
    idx = build_index(g, hubset(g, [1]), 6)
    res = hl_query(g, idx, 0, 4)
    assert_certified(g, res, 2)
    assert res.path == [0, 1, 4]


def test_hl_hub_endpoints(star6):
    idx = build_index(star6, hubset(star6, [0]), 6)
    res = hl_query(star6, idx, 0, 3)
    assert_certified(star6, res, 1)
    assert res.path == [0, 3]
    res = hl_query(star6, idx, 3, 0)
    assert res.path == [3, 0]


def test_hl_absent_when_beyond_k():
    g = Graph.from_edges(8, range(7), range(1, 8), directed=False)
    idx = build_index(g, hubset(g, [3]), 6)
    assert hl_query(g, idx, 0, 7).distance is None


def test_hl_reports_which_step_answered():
    # the path 0..8 with hub 3 and k = 6
    g = Graph.from_edges(9, range(8), range(1, 9), directed=False)
    idx = build_index(g, hubset(g, [3]), 6)
    cases = {(3, 5): ("hub_endpoint", 2), (5, 7): ("search", 2), (0, 5): ("estimate", 5),
             (0, 8): ("none", None), (3, 3): ("hub_endpoint", 0), (4, 4): ("search", 0)}
    for (s, t), (branch, dist) in cases.items():
        res = hl_query(g, idx, s, t)
        assert_certified(g, res, dist)
        assert res.stats.answered_by == branch
    assert bibfs_query(g, 0, 5, 6).stats.answered_by is None


# ------------------------------------------------------------- reconstruction

def test_reconstruct_star(star6):
    idx = build_index(star6, hubset(star6, [0]), 6)
    assert reconstruct_estimated_path(idx, star6, 1, 0, 0, 2) == [1, 0, 2]


def test_reconstruct_through_via_witness():
    g = Graph.from_edges(5, [0, 1, 2, 3], [1, 2, 3, 4], directed=False)
    idx = build_index(g, hubset(g, [0, 2, 4]), 4)
    assert reconstruct_estimated_path(idx, g, 0, 0, 4, 4) == [0, 1, 2, 3, 4]


def test_reconstruct_self_entry_adjacent(star6):
    idx = build_index(star6, hubset(star6, [0]), 6)
    est = estimate(idx, 0, 3)
    assert est.argpair == (0, 0)
    assert reconstruct_estimated_path(idx, star6, 0, 0, 0, 3) == [0, 3]


def test_reconstruct_rejects_a_hub_pair_the_index_cannot_join():
    # components 0-1 and 2-3 with one hub each: vertex 1 labels only hub 0
    # (rank 0), vertex 3 only hub 2 (rank 1), and matrix cell (0, 1) is INF
    g = Graph.from_edges(4, [0, 2], [1, 3], directed=False)
    idx = build_index(g, hubset(g, [0, 2]), 3)
    assert reconstruct_estimated_path(idx, g, 1, 0, 0, 0) == [1, 0]
    with pytest.raises(IndexIntegrityError, match="vertex 1 lacks a label for hub rank 1"):
        reconstruct_estimated_path(idx, g, 1, 2, 2, 3)
    with pytest.raises(IndexIntegrityError, match="vertex 3 lacks a label for hub rank 0"):
        reconstruct_estimated_path(idx, g, 1, 0, 0, 3)
    with pytest.raises(IndexIntegrityError, match="not hubs"):
        reconstruct_estimated_path(idx, g, 1, 1, 2, 3)
    with pytest.raises(IndexIntegrityError, match=r"no path stored for hub pair \(0, 1\)"):
        reconstruct_estimated_path(idx, g, 1, 0, 2, 3)


# ------------------------------------------------------- engine agreement

def agreement_sweep(g, hubs, k, pairs, seed):
    net = discover(g, hubs, k)
    idx = build_index(g, hubs, k)
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(pairs):
        s, t = (int(x) for x in rng.integers(0, g.n, 2))
        truth = bfs_query(g, s, t, k)
        for res in (bibfs_query(g, s, t, k),
                    hn_query(g, hubs, net, s, t, k),
                    hl_query(g, idx, s, t)):
            assert res.distance == truth.distance, (s, t, res.stats.engine)
            if res.found:
                assert len(res.path) == res.distance + 1
                assert res.path[0] == s and res.path[-1] == t
                assert validate_path(g, res.path)


def test_engine_agreement_small_graphs():
    for seed in (1, 2):
        g = er_graph(200, 6, seed=seed)
        agreement_sweep(g, select_hubs(g, 10), 6, 150, seed + 100)
    g = ba_graph(200, 3, seed=3)
    agreement_sweep(g, select_hubs(g, 10), 4, 150, 55)


def test_engine_agreement_directed():
    for g in (ba_graph(250, 3, seed=7, directed=True), cyclic_digraph("ba", 250, 3, 7)):
        agreement_sweep(g, select_hubs(g, 12), 6, 150, 66)


def test_coverage_dichotomy_small():
    # hub on some shortest path -> estimate exact; hub-free -> hp-bbfs exact
    g = er_graph(180, 6, seed=51)
    k = 6
    hubs = select_hubs(g, 9)
    idx = build_index(g, hubs, k)
    rows = all_pairs_dist(adjacency_from_graph(g))
    hub_ids = [int(h) for h in hubs.ids]
    for s in range(0, g.n, 7):
        for t in range(0, g.n, 11):
            if s == t:
                continue
            d = rows[s].get(t)
            if d is None or d > k:
                continue
            if some_shortest_path_has_hub(rows, s, t, hub_ids):
                assert estimate(idx, s, t).value == d
            elif not (hubs.is_hub[s] or hubs.is_hub[t]):
                assert hp_bbfs(g, hubs.is_hub, s, t, k + 1).distance == d


# ------------------------------------------------------------- level steps

def search_outcomes(expanded, g, hubs, net, pairs, k):
    """Everything the level step decides, per engine and pair.

    bibfs and hn must find bfs_query's distance, hp_bbfs the hub-free one.
    """
    def summary(query, *args):
        res, seen = expanded(query, *args)
        return (res.distance, res.path, res.stats.visited, res.stats.enqueued, seen.tolist())

    adj = adjacency_from_graph(g)
    out = []
    for s, t in pairs:
        truth = bfs_query(g, s, t, k).distance
        row = [summary(bibfs_query, g, s, t, k), summary(hn_query, g, hubs, net, s, t, k)]
        assert row[0][0] == truth and row[1][0] == truth, (s, t)
        if not (hubs.is_hub[s] or hubs.is_hub[t]):
            row.append(summary(hp_bbfs, g, hubs.is_hub, s, t, k + 1))
            assert row[2][0] == masked_bfs_dist(adj, s, hubs.is_hub, k).get(t), (s, t)
        out.append(row)
    return out


def test_scalar_and_vector_steps_agree(monkeypatch, expanded):
    # one directed path 0 -> ... -> 300, plus the arc 0 -> 301: from 1 to 256
    # both frontiers hold one vertex, so forward wins every tie and labels
    # level MAX_K, the most a MAX_K-bounded search can label; from 301 the
    # forward side exhausts at radius 0
    chain = Graph.from_edges(302, list(range(300)) + [0], list(range(1, 301)) + [301],
                             directed=True)
    cases = [(chain, HubSet.from_ids(302, [100, 200]), MAX_K,
              [(1, 256), (301, 300), (0, 254), (0, 255), (3, 250), (300, 0)])]
    for g in (ba_graph(600, 3, seed=61), er_graph(500, 8, seed=62),
              er_graph(400, 6, seed=63, directed=True), cyclic_digraph("er", 400, 6, 63),
              cyclic_digraph("ba", 600, 3, 61)):
        rng = np.random.Generator(np.random.PCG64(64))
        pairs = [(int(s), int(t)) for s, t in rng.integers(0, g.n, size=(60, 2))]
        cases.append((g, select_hubs(g, 20), 6, pairs))
    for g, hubs, k, pairs in cases:
        net = discover(g, hubs, k)
        monkeypatch.setattr(engines, "SCALAR_EDGES", 0)
        vector = search_outcomes(expanded, g, hubs, net, pairs, k)
        monkeypatch.setattr(engines, "SCALAR_EDGES", 1 << 40)
        scalar = search_outcomes(expanded, g, hubs, net, pairs, k)
        assert scalar == vector
    # bibfs on (1, 256) expands only forward, 1 to MAX_K, so it labels
    # vertex MAX_K + 1 at level MAX_K
    res, seen = expanded(bibfs_query, chain, 1, 256, MAX_K)
    assert seen.tolist() == list(range(1, MAX_K + 1))
    assert res.stats.enqueued == MAX_K + 2


def side_copy(side):
    """A fresh _Side over the same view with side's levels, radius and other_lv."""
    copy = engines._Side((side.offsets, side.targets, side.adj), 0, None)
    copy.lv[:] = side.lv
    copy.other_lv, copy.radius = side.other_lv, side.radius
    return copy


def test_steps_leave_the_same_level_and_meet():
    # from identical side states, both steps label the same vertices at the
    # same mark and return the same meet, whether the frontier is a list or an
    # array; hl's hub pre-labels are covered by the labeled mask
    steps = {"scalar": engines._scalar_step, "vector": engines._vector_step}
    compared = meet_levels = 0
    for g in (ba_graph(600, 3, seed=71), er_graph(500, 6, seed=72),
              cyclic_digraph("er", 500, 5, 73)):
        hubs = select_hubs(g, 20)
        rng = np.random.Generator(np.random.PCG64(74))
        pairs = [(s, t) for s, t in rng.integers(0, g.n, size=(40, 2)).tolist()
                 if s != t and not (hubs.is_hub[s] or hubs.is_hub[t])][:12]
        for labeled in (None, hubs.is_hub):
            for s, t in pairs:
                fwd, bwd = (engines._Side(view, v, labeled)
                            for view, v in zip(engines._graph_views(g), (s, t)))
                fwd.other_lv, bwd.other_lv = bwd.lv, fwd.lv
                stats = engines.SearchStats("test")
                for _ in range(3):
                    for side in (fwd, bwd):
                        if not len(side.frontier):
                            continue
                        frontier = side.frontier
                        forms = (np.asarray(frontier, dtype=np.int64),
                                 np.asarray(frontier).tolist())
                        outcomes = set()
                        for step in steps.values():
                            for form in forms:
                                copy = side_copy(side)
                                new, meet = step(copy, form)
                                outcomes.add((tuple(sorted(np.asarray(new).tolist())),
                                              meet, bytes(copy.lv)))
                        assert len(outcomes) == 1, (s, t, side.radius)
                        compared += 1
                        meet_levels += outcomes.pop()[1] >= 0
                        engines._expand(side, stats)
    assert compared >= 400 and meet_levels >= 50


def test_step_choice_at_the_threshold():
    # 0 has exactly SCALAR_EDGES out-arcs, a one more, and the vertices 1 to
    # SCALAR_EDGES none: the scalar step runs up to SCALAR_EDGES out-edges,
    # however many vertices carry them, and the vectorized one from one more
    cap = engines.SCALAR_EDGES
    a = cap + 1
    g = Graph.from_edges(cap + 3, [0] * cap + [a], list(range(1, cap + 1)) + [1], directed=True)
    view = engines._graph_views(g)[0]
    leaves = list(range(1, cap + 1))
    cases = [([0], True), ([0, 5, 6], True), ([6, 0, cap + 2], True), (leaves, True),
             ([a] + leaves, True), ([0, a], False), ([a, 0], False),
             ([cap + 2, a] + leaves + [0], False)]
    for frontier, few in cases:
        for form in (frontier, np.asarray(frontier, dtype=np.int64)):
            side = engines._Side(view, cap + 2, None)
            side.other_lv = bytearray(g.n)
            assert engines._few_edges(side, form) is few, (frontier[:3], len(frontier))
            side.frontier = form
            engines._expand(side, engines.SearchStats("test"))
            new = side.frontier
            assert isinstance(new, list) is few
            assert sorted(np.asarray(new).tolist()) == sorted(
                {w for v in frontier for w in view[2][v]} - {cap + 2})


def test_searches_refuse_k_above_max_k(chain4):
    # the level buffers hold level + 1 in one byte: k = MAX_K labels marks up
    # to MAX_K + 1 = 255, and one more level would not fit
    hubs = HubSet.from_ids(chain4.n, [1])
    net = discover(chain4, hubs, MAX_K + 1)
    unmasked = np.zeros(chain4.n, bool)
    assert bibfs_query(chain4, 0, 3, MAX_K).distance == 3
    assert hn_query(chain4, hubs, net, 0, 3, MAX_K).distance == 3
    assert hp_bbfs(chain4, unmasked, 0, 3, MAX_K + 1).distance == 3
    for query, *args in ((bibfs_query, chain4, 0, 3, MAX_K + 1),
                         (bibfs_query, chain4, 2, 2, MAX_K + 1),
                         (hn_query, chain4, hubs, net, 0, 3, MAX_K + 1),
                         (hp_bbfs, chain4, unmasked, 0, 3, MAX_K + 2)):
        with pytest.raises(ValueError, match=f"exceeds MAX_K={MAX_K}"):
            query(*args)


def test_searches_refuse_negative_k(chain4):
    # bfs_query(g, 3, 3, -1) used to return distance 0 where bibfs and hn
    # return none
    hubs = HubSet.from_ids(chain4.n, [1])
    net = discover(chain4, hubs, 4)
    unmasked = np.zeros(chain4.n, bool)
    for query, *args in ((bfs_query, chain4, 3, 3, -1),
                         (bfs_query, chain4, 0, 3, -2),
                         (bibfs_query, chain4, 3, 3, -1),
                         (bibfs_query, chain4, 0, 3, -2),
                         (hn_query, chain4, hubs, net, 3, 3, -1),
                         (hp_bbfs, chain4, unmasked, 0, 3, 0)):
        with pytest.raises(ValueError, match="is negative"):
            query(*args)


def test_query_ids_must_be_integers():
    # numpy ids used to come back as path endpoints beside int vertices in
    # bibfs, hn and hl, and a float id passed the range check, then failed
    # with an unrelated TypeError or IndexError
    g = ba_graph(300, 2, seed=5)
    hubs = select_hubs(g, 8)
    net, idx = discover(g, hubs, 4), build_index(g, hubs, 4)
    engines_of = {"bfs": lambda s, t: bfs_query(g, s, t, 4),
                  "bibfs": lambda s, t: bibfs_query(g, s, t, 4),
                  "hn": lambda s, t: hn_query(g, hubs, net, s, t, 4),
                  "hl": lambda s, t: hl_query(g, idx, s, t),
                  "hp_bbfs": lambda s, t: hp_bbfs(g, hubs.is_hub, s, t, 5)}
    pairs = [(s, t) for s, t in np.random.Generator(np.random.PCG64(9)).integers(
        0, g.n, size=(60, 2)) if not (hubs.is_hub[s] or hubs.is_hub[t])]
    found = 0
    for name, query in engines_of.items():
        for s, t in pairs:
            res = query(np.int64(s), np.uint32(t))
            assert res.distance == query(int(s), int(t)).distance, (name, s, t)
            if res.found:
                found += 1
                assert all(type(v) is int for v in res.path), (name, s, t, res.path)
        for s, t in ((5.0, 6), (5, 6.0), ("5", 6), (None, 6)):
            with pytest.raises(ValueError, match="not a pair of integers"):
                query(s, t)
    assert found >= 100


def test_hl_refuses_a_graph_other_than_the_indexs():
    # an index built on the seed 3 graph, queried on the seed 4 graph of the
    # same n, gave 4078 wrong answers with no error (s in range(0, 300, 3))
    g = load_edge_list(gen_synthetic("ba", 300, 2, 3))
    idx = build_index(g, select_hubs(g, 6), 4)
    other = load_edge_list(gen_synthetic("ba", 300, 2, 4))
    with pytest.raises(ValueError, match="not the one this index was built on"):
        hl_query(other, idx, 0, 1)
    # the same graph loaded apart is the index's own
    again = load_edge_list(gen_synthetic("ba", 300, 2, 3))
    assert again is not g
    for s in range(0, g.n, 15):
        want = [bfs_query(g, s, t, 4).distance for t in range(g.n)]
        assert [hl_query(again, idx, s, t).distance for t in range(g.n)] == want


def pinned_graph(kind, param, seed, directed):
    """The 600-vertex graph of a pinned row; directed="cyclic" orients it
    with conftest.cyclic_digraph."""
    if directed == "cyclic":
        return cyclic_digraph(kind, 600, param, seed)
    return load_edge_list(gen_synthetic(kind, 600, param, seed), directed=directed)


@pytest.mark.parametrize("kind, param, seed, directed, answers_sha", [
    ("ba", 3, 13, False, "2c985fa283bd012da98621f0b3df1e3d40cd79339b6f87a194ce4ef63d58ce99"),
    ("er", 5, 12, True, "ea81e583edb33a5ac3730bcfee5af59ce64bd70221dd2117ea0539bd237ab10a"),
    ("ba", 3, 13, "cyclic", "baa418b323bd204a851eb96319af39cda539d33e04cdbb45d25e83e7478dd3c4"),
], ids=["ba-undirected", "er-directed", "ba-cyclic"])
def test_pinned_answers(kind, param, seed, directed, answers_sha):
    """Distances and paths of bibfs, hn and hl are pinned to fixed digests.

    Which shortest path an engine returns depends on its parent tie rule and
    on which meeting vertex wins, and no oracle check fixes that across code
    versions.  Work counters are left out: a search-order change may move
    them without changing any answer.
    """
    g = pinned_graph(kind, param, seed, directed)
    hubs = select_hubs(g, 24)
    net = discover(g, hubs, 5)
    idx = build_index(g, hubs, 5)
    rng = np.random.Generator(np.random.PCG64(seed))
    answers = []
    for s, t in rng.integers(0, g.n, size=(300, 2)).tolist():
        for res in (bibfs_query(g, s, t, 5), hn_query(g, hubs, net, s, t, 5),
                    hl_query(g, idx, s, t)):
            answers.append([res.distance, res.path])
    assert hashlib.sha256(json.dumps(answers).encode()).hexdigest() == answers_sha


@pytest.mark.parametrize("kind, param, seed, directed, work_sha", [
    ("ba", 3, 13, False, "915071bc6128162b5d000631110213a586d4521fbf136267922b6c47cdf687cc"),
    ("er", 5, 12, True, "604c15dbd6a525960fc975d2b6c1cd9319c2f5f17f243e303d654606cd7dd210"),
    ("ba", 3, 13, "cyclic", "bb377d79b91d833bf5ce5d23af9b2b39ce074857a679141d3b5c01b6463d7908"),
], ids=["ba-undirected", "er-directed", "ba-cyclic"])
def test_pinned_work_counters(kind, param, seed, directed, work_sha):
    """visited and enqueued of bibfs, hn and hl over test_pinned_answers' pairs.

    The counters follow the search order, which no oracle check fixes, so a
    refactor of the level step must leave these digests as they are.  A
    change that alters the search order on purpose recomputes them and says
    so in CHANGES.md.
    """
    g = pinned_graph(kind, param, seed, directed)
    hubs = select_hubs(g, 24)
    net = discover(g, hubs, 5)
    idx = build_index(g, hubs, 5)
    rng = np.random.Generator(np.random.PCG64(seed))
    work = []
    for s, t in rng.integers(0, g.n, size=(300, 2)).tolist():
        for res in (bibfs_query(g, s, t, 5), hn_query(g, hubs, net, s, t, 5),
                    hl_query(g, idx, s, t)):
            work.append([res.stats.visited, res.stats.enqueued])
    assert hashlib.sha256(json.dumps(work).encode()).hexdigest() == work_sha


@pytest.mark.parametrize("kind, param, seed, directed, bfs_sha", [
    ("ba", 3, 13, False, "48d63b1ead8d659efe01a451c8e6da6de009ad85e061e1617fd972e766431422"),
    ("er", 5, 12, True, "f5f90280a895bae5059c28ed95977988b5e02559e808d1277d38f215b584b2f5"),
    ("ba", 3, 13, "cyclic", "dd1ff5a0fae0012ba04a39987e5a44f2b6d142d0d2fc14ce2129b93e58dbac63"),
], ids=["ba-undirected", "er-directed", "ba-cyclic"])
def test_pinned_bfs_work(kind, param, seed, directed, bfs_sha):
    """Distance, path, visited and enqueued of bfs_query over test_pinned_answers'
    pairs: the reference engine's parent rule and counters, pinned."""
    g = pinned_graph(kind, param, seed, directed)
    rng = np.random.Generator(np.random.PCG64(seed))
    work = []
    for s, t in rng.integers(0, g.n, size=(300, 2)).tolist():
        res = bfs_query(g, s, t, 5)
        work.append([res.distance, res.path, res.stats.visited, res.stats.enqueued])
    assert hashlib.sha256(json.dumps(work).encode()).hexdigest() == bfs_sha
