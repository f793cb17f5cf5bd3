import numpy as np
import pytest

from hubpath import (
    Graph,
    HubNetwork,
    HubSet,
    discover,
    network_stats,
    select_hubs,
    verify_distance_preserving,
)
from hubpath.network import bfs_extract

from conftest import ba_graph, er_graph
from oracles import adjacency_from_graph, all_pairs_dist, classify_hub_pair


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
        report = verify_distance_preserving(g, hubs, net, 4)
        assert report.checked > 0
        assert report.failures == []


def test_discover_preserves_distances_directed():
    g = er_graph(220, 6, seed=5, directed=True)
    hubs = select_hubs(g, 10)
    net = discover(g, hubs, 4)
    report = verify_distance_preserving(g, hubs, net, 4)
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
    fake = HubNetwork(member=member, members=np.flatnonzero(member), k=4)
    report = verify_distance_preserving(g, hubs, fake, 4)
    assert (0, 2, 2, None) in report.failures and (2, 0, 2, None) in report.failures


def test_k1_only_adjacent_pairs(chain4):
    hubs = hubset(chain4, [0, 1, 3])
    net = discover(chain4, hubs, 1)
    report = verify_distance_preserving(chain4, hubs, net, 1)
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
