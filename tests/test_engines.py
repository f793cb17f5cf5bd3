import hashlib
import json

import numpy as np
import pytest

from hubpath import engines
from hubpath import (
    Graph,
    HubSet,
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

from conftest import ba_graph, er_graph
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


def test_bibfs_directed_agreement():
    g = er_graph(300, 6, seed=3, directed=True)
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
    g = ba_graph(400, 4, seed=23)
    idx = build_index(g, select_hubs(g, 16), 6)
    rng = np.random.Generator(np.random.PCG64(13))
    for _ in range(1000):
        s, t = (int(x) for x in rng.integers(0, g.n, 2))
        fast = estimate(idx, s, t)
        full = estimate_full_join(idx, s, t)
        assert fast.value == full.value
        assert fast.join_ops <= full.join_ops


def label_dist(idx, v, hub, side):
    """d(v, hub) ("out") or d(hub, v) ("in") as stored in v's labels."""
    if idx.hubs.is_hub[v]:
        return 0 if v == hub else None
    table = idx.labels_out if side == "out" else idx.labels_in
    ranks, dists = table.vertex_slice(v)
    pos = np.flatnonzero(ranks == idx.hubs.rank[hub])
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
        _, seen = expanded(hp_bbfs, g, hubs.is_hub, s, t, 7)
        assert not hubs.is_hub[seen].any()
        done += 1


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
    for g in (er_graph(50, 4, seed=71, directed=directed),
              ba_graph(60, 2, seed=72, directed=directed)):
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
    # step 2 expands only the two leaves; the center is pruned
    assert sorted(seen.tolist()) == [1, 2]


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
    g = ba_graph(250, 3, seed=7, directed=True)
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
    # one directed path 0 -> ... -> 300, plus the arc 0 -> 301: from 301 the
    # forward side exhausts at radius 0 and the backward side's level
    # reaches 255, the most a MAX_K-bounded search can label
    chain = Graph.from_edges(302, list(range(300)) + [0], list(range(1, 301)) + [301],
                             directed=True)
    cases = [(chain, HubSet.from_ids(302, [100, 200]), MAX_K,
              [(301, 300), (0, 254), (0, 255), (3, 250), (300, 0)])]
    for g in (ba_graph(600, 3, seed=61), er_graph(500, 8, seed=62),
              er_graph(400, 6, seed=63, directed=True)):
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


@pytest.mark.parametrize("kind, param, seed, directed, answers_sha", [
    ("ba", 3, 13, False, "2e70c9207fae89487ae9d9387e6eb26ab706cf44e481d2ff78be0aa267fed61b"),
    ("er", 5, 12, True, "ea81e583edb33a5ac3730bcfee5af59ce64bd70221dd2117ea0539bd237ab10a"),
], ids=["ba-undirected", "er-directed"])
def test_pinned_answers(kind, param, seed, directed, answers_sha):
    """Distances and paths of bibfs, hn and hl are pinned to fixed digests.

    Which shortest path an engine returns depends on its parent tie rule and
    on which meeting vertex wins, and no oracle check fixes that across code
    versions.  Work counters are left out: a search-order change may move
    them without changing any answer.
    """
    g = load_edge_list(gen_synthetic(kind, 600, param, seed), directed=directed)
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
    ("ba", 3, 13, False, "8e315faf4cdd915dfbc22b9289ce0037da769223d3646082d6786a69509584ad"),
    ("er", 5, 12, True, "4563bfe4983edc756d61c6ba918971940744c9dc79f5c038a25ab0ef63dea2c4"),
], ids=["ba-undirected", "er-directed"])
def test_pinned_work_counters(kind, param, seed, directed, work_sha):
    """visited and enqueued of bibfs, hn and hl over test_pinned_answers' pairs.

    The counters follow the search order, which no oracle check fixes, so a
    refactor of the level step must leave these digests as they are.  A
    change that alters the search order on purpose recomputes them and says
    so in CHANGES.md.
    """
    g = load_edge_list(gen_synthetic(kind, 600, param, seed), directed=directed)
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
], ids=["ba-undirected", "er-directed"])
def test_pinned_bfs_work(kind, param, seed, directed, bfs_sha):
    """Distance, path, visited and enqueued of bfs_query over test_pinned_answers'
    pairs: the reference engine's parent rule and counters, pinned."""
    g = load_edge_list(gen_synthetic(kind, 600, param, seed), directed=directed)
    rng = np.random.Generator(np.random.PCG64(seed))
    work = []
    for s, t in rng.integers(0, g.n, size=(300, 2)).tolist():
        res = bfs_query(g, s, t, 5)
        work.append([res.distance, res.path, res.stats.visited, res.stats.enqueued])
    assert hashlib.sha256(json.dumps(work).encode()).hexdigest() == bfs_sha
