import numpy as np
import pytest

from hubpath import (
    EdgeListParseError,
    Graph,
    bounded_bfs,
    gen_synthetic,
    induced_subgraph,
    load_edge_list,
    validate_path,
)

from hubpath.graph import first_parents

from conftest import ba_graph, er_graph
from oracles import adjacency_from_graph, bfs_dist


def test_load_comments_and_undirected_halves():
    g = load_edge_list(b"# c\n0 1\n1 2\n")
    assert g.n == 3
    assert g.m == 4  # both directions stored
    assert list(g.neighbors(1)) == [0, 2]


def test_load_dedup():
    g = load_edge_list(b"0 1\n0 1\n1 0\n")
    assert g.m == 2
    assert list(g.neighbors(0)) == [1]
    assert list(g.neighbors(1)) == [0]


def test_load_directed_orientation():
    g = load_edge_list(b"0 1\n1 2\n2 0\n", directed=True)
    assert list(g.neighbors(2)) == [0]
    assert list(g.neighbors(2, reverse=True)) == [1]


def test_load_drops_self_loops_and_gaps_are_isolated():
    g = load_edge_list(b"0 0\n0 5\n")
    assert g.n == 6
    assert g.m == 2
    assert list(g.neighbors(3)) == []


def test_load_extra_tokens_ignored():
    g = load_edge_list(b"0 1 1297\n1 2 treated-as-metadata\n")
    assert g.n == 3 and g.m == 4


@pytest.mark.parametrize("payload,fragment", [
    (b"0\n", "line 1"),
    (b"0 1\nx 2\n", "line 2"),
    (b"0 -1\n", "line 1"),
    (b"", "empty"),
    (b"# only comments\n", "empty"),
    (b"3 3\n", "empty"),
])
def test_load_errors_carry_line_numbers(payload, fragment):
    with pytest.raises(EdgeListParseError, match=fragment):
        load_edge_list(payload)


def test_load_deterministic_bytes():
    data = gen_synthetic("er", 200, 6, seed=3)
    g1 = load_edge_list(data)
    g2 = load_edge_list(data)
    assert np.array_equal(g1.out_offsets, g2.out_offsets)
    assert np.array_equal(g1.out_targets, g2.out_targets)
    assert g1.checksum == g2.checksum


def test_slices_sorted_ascending():
    g = er_graph(150, 8, seed=5)
    for v in range(g.n):
        nb = g.neighbors(v)
        assert np.all(np.diff(nb.astype(np.int64)) > 0)


def test_undirected_adjacency_symmetric():
    g = er_graph(120, 6, seed=9)
    pairs = {(int(u), int(v)) for u in range(g.n) for v in g.neighbors(u)}
    assert all((v, u) in pairs for u, v in pairs)


def test_bounded_bfs_on_chain(chain4):
    assert bounded_bfs(chain4, 0, 2) == {0: 0, 1: 1, 2: 2}


def test_bounded_bfs_zero_radius(chain4):
    assert bounded_bfs(chain4, 2, 0) == {2: 0}


def test_bounded_bfs_reverse_directed():
    g = load_edge_list(b"0 1\n1 2\n", directed=True)
    assert bounded_bfs(g, 2, 2, reverse=True) == {2: 0, 1: 1, 0: 2}
    assert bounded_bfs(g, 2, 2) == {2: 0}


def test_bounded_bfs_matches_plain_queue_oracle():
    for seed in (1, 2):
        g = er_graph(180, 7, seed=seed)
        adj = adjacency_from_graph(g)
        for source in (0, 17, 91):
            assert bounded_bfs(g, source, 4) == bfs_dist(adj, source, 4)


def test_bfs_symmetry_undirected():
    g = ba_graph(150, 3, seed=4)
    full = [bounded_bfs(g, v, g.n) for v in range(g.n)]
    for u in (0, 30, 77):
        for v in (5, 60, 149):
            assert full[u].get(v) == full[v].get(u)


def test_directed_forward_reverse_duality():
    g = er_graph(120, 5, seed=11, directed=True)
    for u in (3, 40):
        fwd = bounded_bfs(g, u, g.n)
        for v, d in fwd.items():
            rev = bounded_bfs(g, v, d, reverse=True)
            assert rev.get(u) == d


def test_bounded_bfs_validates_source(chain4):
    with pytest.raises(ValueError):
        bounded_bfs(chain4, 9, 2)


def test_first_parents():
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


def test_validate_path_cases(chain4):
    assert validate_path(chain4, [0, 1, 2])
    assert not validate_path(chain4, [0, 2])
    big = load_edge_list(b"0 1\n5 6\n")
    assert validate_path(big, [5])
    assert not validate_path(chain4, [])
    assert not validate_path(chain4, [0, 7])


def test_validate_path_respects_direction():
    g = load_edge_list(b"0 1\n1 2\n", directed=True)
    assert validate_path(g, [0, 1, 2])
    assert not validate_path(g, [2, 1, 0])


def test_induced_subgraph_keeps_ids(chain4):
    mask = np.array([True, True, True, False])
    sub = induced_subgraph(chain4, mask)
    assert sub.n == chain4.n
    assert list(sub.neighbors(1)) == [0, 2]
    assert list(sub.neighbors(3)) == []


def test_from_edges_equality_and_checksum_changes():
    g1 = Graph.from_edges(4, [0, 1], [1, 2], directed=False)
    g2 = Graph.from_edges(4, [1, 0], [2, 1], directed=False)
    assert g1 == g2 and g1.checksum == g2.checksum
    g3 = Graph.from_edges(4, [0, 1], [1, 3], directed=False)
    assert g1 != g3 and g1.checksum != g3.checksum
