import json

import pytest

from hubpath import (build_index, gen_synthetic, load_edge_list, make_workload, run_engine,
                     select_hubs, summarize)
from hubpath.bench import summary_tsv

from conftest import ba_graph


def test_workload_seed_reproducible():
    g = ba_graph(300, 3, seed=5)
    w1 = make_workload(g, 50, seed=9)
    w2 = make_workload(g, 50, seed=9)
    assert w1.pairs == w2.pairs
    assert all(s != t for s, t in w1.pairs)
    assert make_workload(g, 50, seed=10).pairs != w1.pairs


def test_workload_non_hub_filter():
    g = ba_graph(300, 3, seed=5)
    hubs = select_hubs(g, 20)
    w = make_workload(g, 40, seed=3, non_hub_only=True, hubs=hubs)
    assert all(not hubs.is_hub[s] and not hubs.is_hub[t] for s, t in w.pairs)
    assert w.filter == "non_hub_only"


def test_workload_min_dist_filter():
    g = ba_graph(400, 3, seed=6)
    w = make_workload(g, 30, seed=4, k=6, min_dist=4)
    from hubpath import bfs_query
    for s, t in w.pairs:
        d = bfs_query(g, s, t, 6).distance
        assert d is not None and d >= 4
    assert w.filter == "dist_ge:4"


def test_workload_min_dist_above_k_fails_fast():
    g = ba_graph(300, 3, seed=5)
    with pytest.raises(ValueError, match="exceeds k"):
        make_workload(g, 1000, seed=1, k=2, min_dist=3)


def test_workload_negative_count_is_a_value_error():
    # a negative count used to return an empty workload
    g = ba_graph(300, 3, seed=5)
    assert make_workload(g, 0, seed=1).pairs == []
    with pytest.raises(ValueError, match="negative"):
        make_workload(g, -3, seed=1)


def test_workload_exhausted_samples_is_a_value_error():
    g = ba_graph(300, 3, seed=5)
    every_vertex = select_hubs(g, g.n)
    with pytest.raises(ValueError, match="sampled pairs"):
        make_workload(g, 5, seed=1, non_hub_only=True, hubs=every_vertex)


def test_run_engine_records_and_summary():
    g = ba_graph(300, 3, seed=5)
    pairs = make_workload(g, 25, seed=1).pairs
    records = run_engine("bfs", g, pairs, 6)
    records += run_engine("bibfs", g, pairs, 6)
    assert len(records) == 50
    parsed = json.loads(records[0].to_json())
    assert set(parsed) == {"engine", "s", "t", "distance", "wall_ns", "enqueued",
                           "expanded", "join_ops"}
    rows = summarize(records)
    assert [r["engine"] for r in rows] == ["bfs", "bibfs"]
    assert rows[0]["queries"] == 25
    tsv = summary_tsv(rows)
    assert tsv.startswith("engine\t")
    assert len(tsv.strip().splitlines()) == 3


def test_hl_rejects_k_other_than_the_index():
    # on the 12-vertex chain d(0, 6) = 6: within the index's k = 8, beyond k = 3
    g = load_edge_list(gen_synthetic("chain", 12))
    idx = build_index(g, select_hubs(g, 1), 8)
    assert run_engine("bibfs", g, [(0, 6)], 3)[0].distance == -1
    with pytest.raises(ValueError, match="k=3 .*k=8"):
        run_engine("hl", g, [(0, 6)], 3, idx=idx)
    assert run_engine("hl", g, [(0, 6)], 8, idx=idx)[0].distance == 6


def test_hub_pruning_shrinks_mean_search_space():
    g = ba_graph(2000, 5, seed=9)
    hubs = select_hubs(g, 20)
    idx = build_index(g, hubs, 6)
    pairs = make_workload(g, 200, seed=5, non_hub_only=True, hubs=hubs).pairs
    rows = summarize(run_engine("bibfs", g, pairs, 6)
                     + run_engine("hl", g, pairs, 6, idx=idx))
    by_engine = {r["engine"]: r for r in rows}
    assert by_engine["hl"]["mean_enqueued"] < by_engine["bibfs"]["mean_enqueued"]
