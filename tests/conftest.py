import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hubpath import Graph, engines, gen_synthetic, load_edge_list


@pytest.fixture
def expanded(monkeypatch):
    """expanded(query, *args) -> (query(*args), the vertices its searches expanded).

    A spy on engines._expand records each frontier handed to it, in order,
    only while the query runs.  Each frontier is recorded sorted: the order
    within a level is the step's own business.
    """
    frontiers = None
    real_expand = engines._expand

    def spy(side, stats):
        if frontiers is not None:
            frontiers.append(np.sort(np.asarray(side.frontier, dtype=np.int64)))
        return real_expand(side, stats)

    def run(query, *args):
        nonlocal frontiers
        frontiers = []
        try:
            res = query(*args)
            return res, np.concatenate([np.empty(0, np.int64), *frontiers])
        finally:
            frontiers = None

    monkeypatch.setattr(engines, "_expand", spy)
    return run


@pytest.fixture
def chain4():
    """The path 0-1-2-3."""
    return load_edge_list(gen_synthetic("chain", 4))


@pytest.fixture
def star6():
    """Center 0 with five leaves."""
    return load_edge_list(gen_synthetic("star", 6))


@pytest.fixture
def diamond():
    """Two length-2 routes between hubs 0 and 2: via 3 (also linking hub 1) or via 4.

    Edges: 0-3, 3-1, 3-2, 0-4, 4-2.
    """
    return Graph.from_edges(5, [0, 3, 3, 0, 4], [3, 1, 2, 4, 2], directed=False)


def er_graph(n, avg_deg, seed, directed=False):
    return load_edge_list(gen_synthetic("er", n, avg_deg, seed), directed=directed)


def ba_graph(n, m_attach, seed, directed=False):
    return load_edge_list(gen_synthetic("ba", n, m_attach, seed), directed=directed)


def cyclic_digraph(kind, n, param, seed):
    """er_graph or ba_graph with each edge oriented at random, and about 30%
    of them given the reverse arc too, as perfbench's workloads are oriented.  Unlike er_graph and ba_graph with directed=True,
    whose arcs all run one way along the ids, it has cycles."""
    und = load_edge_list(gen_synthetic(kind, n, param, seed))
    src = np.repeat(np.arange(und.n), np.diff(und.out_offsets))
    dst = und.out_targets.astype(np.int64)
    src, dst = src[src < dst], dst[src < dst]
    rng = np.random.Generator(np.random.PCG64([seed, 2]))
    flip = rng.random(src.size) < 0.5
    both = rng.random(src.size) < 0.3
    tail, head = np.where(flip, dst, src), np.where(flip, src, dst)
    return Graph.from_edges(und.n, np.concatenate([tail, head[both]]),
                            np.concatenate([head, tail[both]]), directed=True)
