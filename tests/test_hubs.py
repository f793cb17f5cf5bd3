import warnings

import numpy as np
import pytest

from hubpath import Graph, HubSet, build_index, gen_synthetic, load_edge_list, select_hubs
from hubpath.hub2 import from_bytes, to_bytes
from hubpath.hubs import default_beta

from conftest import ba_graph


def test_star_unique_max(star6):
    hubs = select_hubs(star6, 1)
    assert list(hubs.ids) == [0]
    assert hubs.rank[0] == 0
    assert 0 in hubs and 1 not in hubs


def test_tie_breaks_toward_smaller_id():
    # degrees [3, 3, 2, 2, 2]: triangle 0-1-2 plus 0-3, 1-4
    g = Graph.from_edges(5, [0, 1, 2, 0, 1], [1, 2, 0, 3, 4], directed=False)
    assert list(select_hubs(g, 1).ids) == [0]
    assert list(select_hubs(g, 2).ids) == [0, 1]


def test_beta_clamps_to_n(chain4):
    hubs = select_hubs(chain4, 100)
    assert hubs.size == 4


def test_beta_validation(chain4):
    with pytest.raises(ValueError):
        select_hubs(chain4, 0)


def test_framework_scale_matrix_entries():
    # a 10K hub set implies a 10K x 10K distance matrix: 1e8 one-byte entries
    g = load_edge_list(gen_synthetic("star", 12000))
    hubs = select_hubs(g, 10_000)
    assert hubs.size == 10_000
    assert hubs.size ** 2 == 10 ** 8


def test_directed_degree_counts_both_sides():
    # vertex 2 has in-degree 2 and out-degree 2; vertex 0 only out-degree 2
    g = Graph.from_edges(5, [0, 0, 1, 3, 2, 2], [1, 2, 2, 2, 3, 4], directed=True)
    assert list(select_hubs(g, 1).ids) == [2]


def test_min_inside_degree_dominates_outside():
    g = ba_graph(300, 3, seed=7)
    hubs = select_hubs(g, 15)
    deg = g.total_degrees()
    inside = deg[hubs.ids]
    outside_mask = ~hubs.is_hub
    outside = deg[outside_mask]
    assert inside.min() >= outside.max() or (
        # equal-degree outsiders must all have larger ids than every
        # equal-degree insider (the tie-break allowance)
        all(v > hubs.ids[inside == outside.max()].max()
            for v in np.flatnonzero(outside_mask & (deg == outside.max())))
    )


def test_ids_sorted_and_rank_inverse():
    g = ba_graph(200, 4, seed=2)
    hubs = select_hubs(g, 12)
    assert np.all(np.diff(hubs.ids.astype(np.int64)) > 0)
    for r, v in enumerate(hubs.ids):
        assert hubs.rank[v] == r


def test_from_ids_constructor():
    hubs = HubSet.from_ids(10, [7, 3, 3])
    assert list(hubs.ids) == [3, 7]
    assert hubs.size == 2
    empty = HubSet.from_ids(10, [])
    assert empty.size == 0


def test_hub_ids_are_intp_and_from_ids_rejects_ids_outside_n():
    for ids, bad in [([7], 7), ([-1], -1), (np.array([-1]), -1), ([0, 5, 2], 5),
                     (np.array([3, 9, -2], np.int32), -2), (np.array([[1], [6]]), 6)]:
        with pytest.raises(ValueError, match=rf"hub id {bad} outside \[0, 5\)"):
            HubSet.from_ids(5, ids)
    g = ba_graph(200, 4, seed=2)
    hubs = select_hubs(g, 12)
    loaded = from_bytes(to_bytes(build_index(g, hubs, 4))).hubs
    for h in (hubs, HubSet.from_ids(g.n, np.array([7, 3, 3], np.uint32)), loaded):
        assert h.ids.dtype == np.intp
    assert loaded == hubs and np.array_equal(loaded.rank, hubs.rank)


@pytest.mark.parametrize("ids", [[30, 3, 7], [3, 3, 7], [7, 3]], ids=["descending", "repeated", "pair"])
def test_hub_ids_must_ascend_strictly(ids):
    # rank, the matrix rows and the index file all order hubs by id: a
    # descending list built an index that from_bytes refused, and a repeated
    # id lost the rank of its first copy
    with pytest.raises(ValueError, match="strictly ascending"):
        HubSet(200, ids)
    assert HubSet.from_ids(200, ids) == HubSet(200, sorted(set(ids)))


@pytest.mark.parametrize("ids, bad", [([1.7, 3.2], "1.7"), ([3.0, 0.5], "0.5"),
                                      ([np.nan, 1], "nan"), ([2, np.inf], "inf")])
def test_hub_ids_that_are_not_integers_are_refused(ids, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"hub id {bad} is not an integer"):
            HubSet.from_ids(5, ids)
        assert HubSet.from_ids(5, [3.0, 1.0]).ids.tolist() == [1, 3]


def test_default_beta_bounds():
    assert default_beta(10) == 1
    assert default_beta(2000) == 10
    assert default_beta(1) == 1
