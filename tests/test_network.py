import hashlib
import json

import numpy as np
import pytest

from hubpath import (
    Graph,
    bfs_query,
    HubNetwork,
    HubSet,
    discover,
    gen_synthetic,
    hn_query,
    load_edge_list,
    network_stats,
    select_hubs,
    verify_distance_preserving,
)

from conftest import ba_graph, er_graph
from oracles import adjacency_from_graph, all_pairs_dist, bfs_extract, classify_hub_pair


def hubset(g, ids):
    return HubSet.from_ids(g.n, ids)


def test_chain_adjacent_hubs(chain4):
    hubs = hubset(chain4, [1, 2])
    net = discover(chain4, hubs, 4)
    assert sorted(net.members.tolist()) == [1, 2]
    assert net.basic_pairs == [(1, 2, 1), (2, 1, 1)]
    assert net.added_per_pair == [0, 0]


def test_diamond_reuses_network_vertex(diamond):
    # hubs 0,1,2; routes 0-3-2 and 0-4-2 tie on score in the first traversal
    # (3 wins on id), and the traversal from 2 prefers 3 once it is a member
    hubs = hubset(diamond, [0, 1, 2])
    net = discover(diamond, hubs, 4)
    assert sorted(net.members.tolist()) == [0, 1, 2, 3]
    assert 4 not in net.members


def test_parent_pull_prefers_score_then_smallest_id():
    # hubs 0-4.  Hub 0 pulls 6 into H* on its way to hub 2.  Hub 1 then
    # reaches hub 3 through 5 or 6: 6 has the higher score and the larger id
    # and wins, adding nothing.  Hub 3 reaches hub 4 through 7 or 8 with equal
    # scores: 7, the smaller id, wins.  Parents come from in-slices: the
    # out-slices of 3 and 4 hold only 5 and 8 of those candidates
    g = Graph.from_edges(9, [0, 0, 6, 6, 2, 2, 1, 1, 5, 3, 3, 3, 7, 8, 4],
                         [6, 3, 2, 3, 6, 3, 5, 6, 3, 5, 7, 8, 4, 4, 8], directed=True)
    net = discover(g, hubset(g, [0, 1, 2, 3, 4]), 3)
    assert net.members.tolist() == [0, 1, 2, 3, 4, 6, 7]
    assert net.basic_pairs == [(0, 3, 1), (0, 2, 2), (1, 2, 2), (1, 3, 2), (2, 3, 1), (3, 4, 2)]
    assert net.added_per_pair == [0, 1, 0, 0, 0, 1]


def test_bfs_extract_single_hub_star(star6):
    hubs = hubset(star6, [0])
    member = hubs.is_hub.copy()
    pairs, added, total = bfs_extract(star6, hubs, 0, 4, member)
    assert pairs == [] and total == 0
    assert member.sum() == 1


def test_bfs_extract_chain_path_pulled_in():
    g = Graph.from_edges(4, [0, 1, 2], [1, 2, 3], directed=False)
    hubs = hubset(g, [0, 3])
    member = hubs.is_hub.copy()
    pairs, added, total = bfs_extract(g, hubs, 0, 3, member)
    assert pairs == [(0, 3, 3)]
    assert added == [2] and total == 2
    assert member.tolist() == [True, True, True, True]


def test_bfs_extract_respects_bound():
    g = Graph.from_edges(4, [0, 1, 2], [1, 2, 3], directed=False)
    hubs = hubset(g, [0, 3])
    member = hubs.is_hub.copy()
    pairs, _, total = bfs_extract(g, hubs, 0, 2, member)
    assert pairs == [] and total == 0


def test_discover_preserves_distances_randomized():
    for seed in (1, 2, 3):
        g = er_graph(250, 6, seed=seed)
        hubs = select_hubs(g, 12)
        net = discover(g, hubs, 4)
        report = verify_distance_preserving(g, net)
        assert report.checked > 0
        assert report.failures == []


def test_discover_preserves_distances_directed():
    g = er_graph(220, 6, seed=5, directed=True)
    hubs = select_hubs(g, 10)
    net = discover(g, hubs, 4)
    report = verify_distance_preserving(g, net)
    assert report.failures == []


def test_basic_pairs_match_bruteforce_classification():
    g = ba_graph(200, 3, seed=8)
    k = 4
    hubs = select_hubs(g, 10)
    net = discover(g, hubs, k)
    rows = all_pairs_dist(adjacency_from_graph(g), k)
    hub_ids = set(int(h) for h in hubs.ids)
    expected = set()
    for u in hub_ids:
        for v in hub_ids:
            if u == v:
                continue
            d = rows[u].get(v)
            if d is not None and d <= k:
                if classify_hub_pair(rows, u, v, hub_ids) == "basic":
                    expected.add((u, v, d))
    assert {(u, v, d) for u, v, d in net.basic_pairs} == expected


def test_negative_control_detects_missing_vertex():
    g = Graph.from_edges(3, [0, 1], [1, 2], directed=False)
    hubs = hubset(g, [0, 2])
    member = hubs.is_hub.copy()  # drop the middle vertex on purpose
    fake = HubNetwork(hubs=hubs, graph_checksum=g.checksum, member=member, k=4)
    report = verify_distance_preserving(g, fake)
    assert (0, 2, 2, None) in report.failures and (2, 0, 2, None) in report.failures


def test_k1_only_adjacent_pairs(chain4):
    hubs = hubset(chain4, [0, 1, 3])
    net = discover(chain4, hubs, 1)
    report = verify_distance_preserving(chain4, net)
    assert report.failures == []
    assert report.checked == 2  # (0,1) and (1,0)


def test_size_bound_holds():
    for seed in (3, 4):
        g = ba_graph(300, 3, seed=seed)
        hubs = select_hubs(g, 12)
        net = discover(g, hubs, 6)
        assert net.size <= net.size_bound() + hubs.size


def test_symmetric_second_discovery_adds_nothing():
    g = er_graph(250, 6, seed=13)
    hubs = select_hubs(g, 12)
    net = discover(g, hubs, 6)
    seen = set()
    for (u, v, d), added in zip(net.basic_pairs, net.added_per_pair):
        if (v, u) in seen:
            assert added == 0, f"second discovery of {(u, v)} added {added}"
        seen.add((u, v))


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_search_views_keep_hub_rows_inside_the_network(directed):
    g = ba_graph(300, 3, seed=81, directed=directed)
    hubs = select_hubs(g, 12)
    net = discover(g, hubs, 4)
    views = net.search_views(g)
    assert net.search_views(g) is views
    assert (views[0] is views[1]) == (not directed)
    dropped = 0
    for reverse, (offsets, targets, lists) in zip((False, True), views):
        own = g.adj_lists(reverse)
        for v in range(g.n):
            row = targets[offsets[v]:offsets[v + 1]].tolist()
            assert lists[v] == row
            if hubs.is_hub[v]:
                assert row == [w for w in own[v] if net.member[w]]
                dropped += len(own[v]) - len(row)
            else:
                assert lists[v] is own[v]
    assert dropped > 0


def test_readers_refuse_a_hub_set_other_than_the_networks():
    # a network discovered from 3 hubs preserves distances between those 3
    # only: hn_query given 30 hubs answered 897 of 4300 pairs wrongly
    g = load_edge_list(gen_synthetic("ba", 300, 2, 3))
    net = discover(g, select_hubs(g, 3), 4)
    other = select_hubs(g, 30)
    calls = [lambda hubs: hn_query(g, hubs, net, 0, 1, 4),
             lambda hubs: network_stats(g, hubs, net)]
    for call in calls:
        with pytest.raises(ValueError, match="not the 3 hubs this network was discovered from"):
            call(other)
    # an equal set built apart is the network's own
    same = select_hubs(g, 3)
    assert same is not net.hubs
    for s in range(0, g.n, 15):
        want = [bfs_query(g, s, t, 4).distance for t in range(g.n)]
        assert [hn_query(g, same, net, s, t, 4).distance for t in range(g.n)] == want


def test_readers_refuse_a_graph_other_than_the_networks():
    # a network discovered on the seed 3 graph answered 5845 of 9000 hn
    # queries on the seed 4 graph, of the same n, wrongly and with no error
    g = load_edge_list(gen_synthetic("ba", 300, 2, 3))
    net = discover(g, select_hubs(g, 3), 4)
    other = load_edge_list(gen_synthetic("ba", 300, 2, 4))
    calls = [lambda: net.search_views(other),
             lambda: hn_query(other, net.hubs, net, 0, 1, 4),
             lambda: network_stats(other, net.hubs, net),
             lambda: verify_distance_preserving(other, net)]
    for call in calls:
        with pytest.raises(ValueError, match="not the one this network was discovered on"):
            call()
    # the same graph loaded apart is the network's own, checked by content
    again = load_edge_list(gen_synthetic("ba", 300, 2, 3))
    assert again is not g
    assert verify_distance_preserving(again, net).ok
    for s in range(0, g.n, 15):
        want = [bfs_query(g, s, t, 4).distance for t in range(g.n)]
        assert [hn_query(again, net.hubs, net, s, t, 4).distance for t in range(g.n)] == want


def test_network_stats_chain(chain4):
    hubs = hubset(chain4, [1, 2])
    net = discover(chain4, hubs, 4)
    stats = network_stats(chain4, hubs, net)
    assert stats["size_hstar"] == 2
    assert stats["avg_hub_degree_original"] == 2.0
    assert stats["avg_hub_degree_network"] == 1.0


def test_network_stats_full_membership(chain4):
    hubs = hubset(chain4, [0, 1, 2, 3])
    net = discover(chain4, hubs, 4)
    stats = network_stats(chain4, hubs, net)
    assert stats["avg_hub_degree_network"] == stats["avg_hub_degree_original"]


def test_discover_singleton_hub(star6):
    hubs = hubset(star6, [0])
    net = discover(star6, hubs, 6)
    assert sorted(net.members.tolist()) == [0]
    assert net.basic_pairs == []


def test_network_stats_empty_hubs(chain4):
    hubs = hubset(chain4, [])
    net = discover(chain4, hubs, 4)
    stats = network_stats(chain4, hubs, net)
    assert stats["size_hstar"] == 0
    assert stats["avg_hub_degree_original"] == 0.0


def test_discover_is_deterministic():
    g = ba_graph(250, 4, seed=6)
    hubs = select_hubs(g, 10)
    n1 = discover(g, hubs, 5)
    n2 = discover(g, hubs, 5)
    assert np.array_equal(n1.members, n2.members)
    assert n1.basic_pairs == n2.basic_pairs
    assert n1.added_per_pair == n2.added_per_pair


@pytest.mark.parametrize("beta, ba_sha, er_sha", [
    (63, "6f6f34e76c0ddc37ead5ecb3aae4af3742f73c27621aeb51e03d5ce93a103e56",
     "b162ce2965967c5a91e6993c832bee6c19fce50db2d9904e8d076f71e533ad46"),
    (64, "e92666b88af7659ee659f816df4cc776e334154165db7dad5cefc4f013e4bbee",
     "420ff3119f515777016b7fe1b8ca2666cafb043ebf4a81e344a83f11f70154f8"),
    (65, "d68bd55377cccc1af61a504d4c9d9a3c9295f954fcccb1e06b5389af352f3e80",
     "f01f0134cf8eed676f34049fe5f15dc6b321ee47427d6edd784b2262ac657fa8"),
    (130, "123a78cc37782b606b7b73150bc0bd2477bcf88a5b758fe97201c5838080a6b1",
     "a38e91eb301e45556198b86ae83f73c7da22c3aed5b1f41349dd016e172c1e33"),
], ids=["63", "64", "65", "130"])
def test_pinned_discover_across_hub_blocks(beta, ba_sha, er_sha):
    """Discovered networks at hub counts around discover's 64-hub blocks.

    The graphs and the digest are test_pinned_index_and_network_output's
    (tests/test_hub2.py); the digests come from the full per-hub BFS that
    the region walk replaced.
    """
    for kind, param, seed, directed, sha in [("ba", 3, 13, False, ba_sha),
                                             ("er", 5, 12, True, er_sha)]:
        g = load_edge_list(gen_synthetic(kind, 600, param, seed), directed=directed)
        net = discover(g, select_hubs(g, beta), 5)
        blob = json.dumps([net.basic_pairs, net.added_per_pair, net.members.tolist()])
        assert hashlib.sha256(blob.encode()).hexdigest() == sha, kind
