"""The per-hub reference build, discovery and preservation check, and the
block-wise code checked against them."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hubpath.hub2 as hub2
from hubpath import Graph, HubNetwork, HubSet, discover, select_hubs, verify_distance_preserving
from hubpath.hubs import default_beta

from conftest import ba_graph, cyclic_digraph, er_graph
from oracles import build_reference, discover_reference, first_parents, label_bfs, verify_reference


def test_keyed_first_parents():
    srcs = np.array([7, 2, 5, 3, 4, 9], np.int64)
    dsts = np.array([8, 6, 8, 1, 6, 8], np.int64)
    bflag = np.ones(10, np.uint8)
    bflag[[4, 7, 9]] = 0
    score = np.zeros(10, np.int32)
    score[[4, 5, 7, 9]] = [2, 5, 1, 3]

    def pick(*keys):
        new, parent = first_parents(srcs, dsts, *keys)
        return new.tolist(), parent.tolist()

    # destinations ascending, smallest-id source without keys
    assert pick() == ([1, 6, 8], [3, 2, 5])
    # blocked predecessors (flag 0) win over unblocked ones with smaller ids
    assert pick(bflag) == ([1, 6, 8], [3, 4, 7])
    # the last key is the most significant: blocked first, then highest score
    assert pick(-score, bflag) == ([1, 6, 8], [3, 4, 9])
    assert pick(bflag, -score) == ([1, 6, 8], [3, 4, 5])
    empty = np.empty(0, np.int64)
    for keys in ((), (bflag,)):
        new, parent = first_parents(empty, empty, *keys)
        assert new.size == 0 and parent.size == 0


def test_label_bfs_requires_hub(chain4):
    with pytest.raises(ValueError):
        label_bfs(chain4, HubSet.from_ids(chain4.n, [1, 2]), 0, 4)


@st.composite
def graphs_with_hubs(draw):
    """A seeded random graph (directed or not) with trailing isolated vertices,
    a hub set of any size (top degree or arbitrary) and a bound k."""
    n = draw(st.integers(1, 150) | st.integers(65, 150))
    isolated = draw(st.integers(0, min(10, n - 1)))
    m = draw(st.integers(0, 4 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ends = rng.integers(0, n - isolated, size=(2, m))
    g = Graph.from_edges(n, ends[0], ends[1], directed=draw(st.booleans()))
    beta = draw(st.integers(1, n) | st.integers(max(1, n - 30), n))
    if draw(st.booleans()):
        hubs = select_hubs(g, beta)
    else:
        hubs = HubSet.from_ids(n, draw(st.permutations(range(n)))[:beta])
    return g, hubs, draw(st.integers(1, 6) | st.integers(3, 6))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(graphs_with_hubs())
def test_build_matches_reference(case):
    g, hubs, k = case
    assert hub2.to_bytes(hub2.build(g, hubs, k)) == hub2.to_bytes(build_reference(g, hubs, k))


@pytest.mark.parametrize("make", [lambda: er_graph(4000, 10, 3),
                                  lambda: cyclic_digraph("ba", 4000, 5, 3)],
                         ids=["er", "ba-cyclic"])
def test_build_matches_reference_on_dense_words(make):
    # the hypothesis graphs have n <= 150, where few free words carry many
    # bits; here 100 hubs make two blocks, and a level's free words carry many
    g = make()
    hubs = select_hubs(g, 100)
    assert hub2.to_bytes(hub2.build(g, hubs, 6)) == hub2.to_bytes(build_reference(g, hubs, 6))


@pytest.mark.parametrize("chunk", [hub2.LABEL_CHUNK, 7], ids=["default-chunk", "chunk-7"])
@pytest.mark.parametrize("beta, k", [(65, 5), (130, 5), (65, 1)], ids=["65", "130", "k1"])
@pytest.mark.parametrize("make", [lambda: er_graph(700, 6, 9),
                                  lambda: cyclic_digraph("ba", 700, 3, 9)],
                         ids=["er", "ba-cyclic"])
def test_label_read_out_matches_reference(monkeypatch, make, beta, k, chunk):
    # _pass reads the labels out of its (depth, block) words in chunks of
    # LABEL_CHUNK vertices: with 7, the table is written in 100 chunks, each
    # placed by the offsets at its boundaries.  β 65 and 130 leave a last
    # block of 1 and 2 hubs beside full ones, and k 1 a single depth
    monkeypatch.setattr(hub2, "LABEL_CHUNK", chunk)
    g = make()
    hubs = select_hubs(g, beta)
    assert hub2.to_bytes(hub2.build(g, hubs, k)) == hub2.to_bytes(build_reference(g, hubs, k))


def test_label_read_out_memory_follows_the_levels_reached():
    # a 12-vertex path among 60000 isolated vertices at k = MAX_K: the levels
    # stop after 11 depths, so the pass keeps 11 words per vertex, not 254
    # (8 B * 60012 * 254 = 122 MB)
    n = 60012
    src = np.arange(11)
    g = Graph.from_edges(n, src, src + 1)
    hubs = HubSet.from_ids(n, [0, 5, 6])
    tracemalloc.start()
    try:
        blob = hub2.to_bytes(hub2.build(g, hubs, hub2.MAX_K))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blob == hub2.to_bytes(build_reference(g, hubs, hub2.MAX_K))
    assert peak < 12 * 8 * n + 4_000_000


def assert_same_network(got, want):
    assert got.basic_pairs == want.basic_pairs
    assert got.added_per_pair == want.added_per_pair
    assert np.array_equal(got.members, want.members)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(graphs_with_hubs())
def test_discover_matches_reference(case):
    g, hubs, k = case
    assert_same_network(discover(g, hubs, k), discover_reference(g, hubs, k))


@pytest.mark.parametrize("directed", [False, True], ids=["path", "cycle"])
def test_discover_matches_reference_above_max_k(directed):
    # discover has no cap on k (build's is hub2.MAX_K = 254): a 600-vertex
    # path or 600-arc cycle at k = 700, with hub pairs up to 348 apart
    n, k = 600, 700
    src = np.arange(n - 1 + directed)
    g = Graph.from_edges(n, src, (src + 1) % n, directed=directed)
    hubs = HubSet.from_ids(n, [0, 7, 250, 251, 599])
    assert_same_network(discover(g, hubs, k), discover_reference(g, hubs, k))


def test_discover_matches_reference_isolated_and_empty_hubs():
    g = Graph.from_edges(12, [0, 1, 2, 3], [1, 2, 3, 4])
    for ids in ([0, 3, 8, 11], [9, 10], []):
        hubs = HubSet.from_ids(g.n, ids)
        assert_same_network(discover(g, hubs, 4), discover_reference(g, hubs, 4))


@pytest.mark.parametrize("beta", [default_beta(4000), 100], ids=["one-block", "two-blocks"])
@pytest.mark.parametrize("make", [
    lambda: ba_graph(4000, 5, 3), lambda: er_graph(4000, 10, 3),
    lambda: cyclic_digraph("ba", 4000, 5, 3)], ids=["ba", "er", "ba-cyclic"])
def test_discover_matches_reference_past_the_last_basic_pair(make, beta):
    # the hypothesis graphs are small, so their regions seldom reach past a
    # hub's last basic pair; on these the backward cone skips most of each
    # region, on the BA graphs every level after the last basic pair
    g = make()
    hubs = select_hubs(g, beta)
    assert_same_network(discover(g, hubs, 6), discover_reference(g, hubs, 6))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(graphs_with_hubs(), st.floats(0, 1), st.integers(0, 2**32 - 1))
def test_preservation_check_matches_reference(case, drop, seed):
    # members of the discovered network, hubs included, are dropped at random
    # so that both checks have failures to report
    g, hubs, k = case
    member = discover(g, hubs, k).member
    member &= np.random.default_rng(seed).random(g.n) >= drop
    net = HubNetwork(hubs=hubs, graph_checksum=g.checksum, member=member, k=k)
    got, want = verify_distance_preserving(g, net), verify_reference(g, hubs, net, k)
    assert got.checked == want.checked
    assert got.failures == want.failures
