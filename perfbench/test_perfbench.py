"""Tests of the benchmark itself: inputs, answer certification, tracing.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

import numpy as np
import pytest

import inputs
import run
from hubpath import engines, hub2
from hubpath.graph import load_edge_list
from hubpath.hubs import select_hubs
from hubpath.network import discover
from calibrate import Calibration
from tracing import Tracer


@pytest.fixture(scope="module", params=[False, True], ids=["undirected", "directed"])
def small(request):
    rng = np.random.Generator(np.random.PCG64([7, 1]))
    edges = inputs.ba_edges(400, 3, rng)
    if request.param:
        edges = inputs.orient(edges, inputs.RECIPROCAL_FRAC, rng)
    data = inputs.edge_list_bytes(edges, "test")
    g = load_edge_list(data, directed=request.param)
    hubs = select_hubs(g, 8)
    net = discover(g, hubs, run.K)
    idx = hub2.build(g, hubs, run.K)
    pairs = inputs.make_pairs(g.n, 120, seed=3)
    return g, hubs, net, idx, pairs, run.Oracle(g, pairs), data


def test_inputs_are_fixed_by_the_seed():
    for spec in run.WORKLOADS.values():
        a = inputs.make_graph_bytes(spec, 5, n=300)
        assert a == inputs.make_graph_bytes(spec, 5, n=300)
        assert a != inputs.make_graph_bytes(spec, 6, n=300)
    assert inputs.make_pairs(300, 50, 5) == inputs.make_pairs(300, 50, 5)
    assert all(s != t for s, t in inputs.make_pairs(300, 500, 5))


def test_generators_match_their_parameters():
    rng = np.random.Generator(np.random.PCG64(0))
    ba = inputs.ba_edges(500, 5, rng)
    assert len(ba) == (500 - 5) * 5
    assert len({(min(u, v), max(u, v)) for u, v in ba.tolist()}) == len(ba)
    er = inputs.er_edges(500, 10, rng)
    assert len(er) == 2500 and np.all(er[:, 0] < er[:, 1])
    arcs = inputs.orient(ba, 0.3, rng)
    assert len(ba) < len(arcs) < 1.4 * len(ba)


def test_certify_catches_corrupted_answers(small):
    g, _, _, _, pairs, oracle, _ = small
    s, t = next(p for j, p in enumerate(pairs) if (oracle.distance(j) or 0) >= 2)
    good = engines.bfs_query(g, s, t, run.K)
    assert run.certify(g, good, good.distance)
    bad_distance = engines.QueryResult(good.distance + 1, good.path + [good.path[-1]])
    broken_path = engines.QueryResult(good.distance, [s] + [t] * good.distance)
    missing = engines.QueryResult(None, None)
    for res in (bad_distance, broken_path, missing):
        assert not run.certify(g, res, good.distance)
    assert not run.certify(g, good, None)


def test_wrong_and_raising_engines_are_counted(small):
    g, hubs, net, idx, pairs, oracle, _ = small
    table = run.engine_table(g, hubs, net, idx)
    good = run.Ledger()
    step = run.TimedQueries(g, table, oracle, good)
    reps, calib = [], Calibration()
    run.interleaved(len(pairs), step, reps.append, 3, calib)
    assert reps == [1, 2]
    assert len(calib.samples_ns["query"]) == -(-len(pairs) // run.CALIB_EVERY)
    assert calib.slowdown("query") > 0
    assert good.failed == 0 and good.attempted > len(pairs)
    assert step.count == len(pairs) and len(step.lat["hl"]) == len(pairs)

    def off_by_one(s, t):
        res = engines.bibfs_query(g, s, t, run.K)
        return engines.QueryResult(res.distance + 1 if res.found else 1, res.path, res.stats)

    def raising(s, t):
        raise hub2.IndexIntegrityError("corrupted")

    bad = run.Ledger()
    step = run.TimedQueries(g, {**table, "bibfs": off_by_one, "hn": raising}, oracle, bad)
    for j in range(len(pairs)):
        step(j)
    assert bad.failed == 2 * len(pairs) and bad.notes
    assert not step.lat["bibfs"] and not step.lat["hn"] and len(step.lat["hl"]) == len(pairs)


def test_traced_run_checks_hl_composition_and_reports_layers(small, tmp_path):
    _, _, _, _, pairs, oracle, data = small
    tr = Tracer()
    index_path = tmp_path / "index.hub2"
    _, hubs, net, built, size = run.setup(tr, data, small[0].directed, index_path)
    g, idx, matches = run.open_index(tr, data, small[0].directed, index_path)
    assert matches and idx == built and size == index_path.stat().st_size
    traced = run.traced_table(tr, g, hubs, net, idx)
    plain = run.engine_table(g, hubs, net, idx)
    ledger = run.Ledger()
    step = run.TracedQueries(g, plain, traced, oracle, ledger)
    for j in range(len(pairs)):
        step(j)
    assert ledger.failed == 0
    results, traced_hl = step.results, step.traced_hl
    for (s, t), p, (c, branch) in zip(pairs, results["hl"], traced_hl):
        assert p.distance == c.distance
        assert branch in run.HL_BRANCHES
        assert (branch == "hub_endpoint") == bool(c.found and (idx.hubs.is_hub[s] or idx.hubs.is_hub[t]))
    metrics = run.per_layer_metrics(tr, g, hubs, net, idx, results, oracle.results,
                                    [b for _, b in traced_hl], 1, 1)
    fracs = [metrics[f"engines.hl.answered_by_{b}_frac"][0] for b in run.HL_BRANCHES]
    assert sum(fracs) == pytest.approx(1.0)
    assert metrics["graph.load_s"][0] > 0 and metrics["hub2.from_bytes_s"][0] > 0
    assert metrics["engines.hl.estimate_us"][0] > 0


def test_normalization_scales_times_and_rates_by_their_phase():
    raw = {"t": (3.0, "s", 3), "lat": (8.0, "us"), "rate": (10.0, "1/s"), "size": (5, "bytes")}
    out = run.normalized(raw, 1.5, 2.0)
    assert out == {"t": (2.0, "s", 3), "lat": (4.0, "us"), "rate": (20.0, "1/s"), "size": (5, "bytes")}


def test_self_time_excludes_children():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner", qid=1):
            pass
        with tr.span("inner", qid=2):
            pass
    times = tr.self_times_ns()
    outer_id, inner_ids = 0, (1, 2)
    _, start, end, _, _ = tr.spans[outer_id]
    children = sum(tr.spans[i][2] - tr.spans[i][1] for i in inner_ids)
    assert times["outer"] == [end - start - children]
    assert [tr.spans[i][3] for i in inner_ids] == [0, 0]
    assert [tr.spans[i][4] for i in inner_ids] == [1, 2]
