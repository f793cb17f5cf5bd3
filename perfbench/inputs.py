"""Seeded benchmark inputs: edge-list bytes and query pairs.

The generators live here, not in ``hubpath.generate`` or ``hubpath.bench``,
so that a change to the library's own generators cannot change what the
benchmark measures.  Every random stream is a PCG64 generator keyed by
(seed, purpose), so one seed fixes every input of a workload.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

N = 20000
BA_ATTACH = 5
ER_AVG_DEGREE = 10
RECIPROCAL_FRAC = 0.3

# purposes keying the independent random streams of one seed
_GRAPH, _ORIENT, _PAIRS = 1, 2, 3


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    kind: str
    directed: bool


WORKLOADS = {
    spec.name: spec for spec in (
        WorkloadSpec("ba-social",
                     "preferential attachment, real hubs: the label estimate answers most "
                     "queries, so estimate, port paths and restricted hub expansion run",
                     "ba", False),
        WorkloadSpec("er-flat",
                     "Erdos-Renyi, no real hubs: the hub-free search answers most queries "
                     "and the index and H* are large; bypass case for estimate-path changes",
                     "er", False),
        WorkloadSpec("ba-directed",
                     "ba-social edges oriented at random, 30% reciprocal: the only workload "
                     "with reverse labels, reverse adjacency and two label tables",
                     "ba-directed", True),
    )
}


def _rng(seed, purpose):
    return np.random.Generator(np.random.PCG64([seed, purpose]))


def ba_edges(n, attach, rng):
    """Preferential attachment: each new vertex joins `attach` distinct earlier ones.

    Endpoints are drawn from a list holding every vertex once per incident
    edge, which makes the pick degree-proportional.
    """
    uniforms = iter(rng.random(8 * n * attach).tolist())
    edges = []
    targets = list(range(attach))
    repeated = []
    for source in range(attach, n):
        edges.extend((source, v) for v in targets)
        repeated.extend(targets)
        repeated.extend([source] * attach)
        picked = {}
        size = len(repeated)
        while len(picked) < attach:
            picked.setdefault(repeated[int(next(uniforms) * size)], None)
        targets = list(picked)
    return np.array(edges, dtype=np.int64)


def er_edges(n, avg_degree, rng):
    """n*avg_degree/2 distinct undirected edges drawn uniformly, in draw order."""
    target = n * avg_degree // 2
    draws = rng.integers(0, n, size=(2 * target, 2))
    draws = draws[draws[:, 0] != draws[:, 1]]
    lo, hi = draws.min(axis=1), draws.max(axis=1)
    _, first = np.unique(lo * n + hi, return_index=True)
    first = np.sort(first)
    if first.size < target:
        raise RuntimeError("too few distinct edges drawn")
    first = first[:target]
    return np.stack([lo[first], hi[first]], axis=1)


def orient(edges, reciprocal_frac, rng):
    """Orient each undirected edge at random; a share of them get the reverse arc too."""
    flip = rng.random(len(edges)) < 0.5
    both = rng.random(len(edges)) < reciprocal_frac
    arcs = np.where(flip[:, None], edges[:, ::-1], edges)
    return np.concatenate([arcs, arcs[both][:, ::-1]])


def edge_list_bytes(edges, header):
    lines = [f"# {header}"]
    lines.extend(f"{u} {v}" for u, v in edges.tolist())
    return ("\n".join(lines) + "\n").encode("ascii")


def make_graph_bytes(spec: WorkloadSpec, seed: int, n: int = N) -> bytes:
    if spec.kind == "er":
        edges = er_edges(n, ER_AVG_DEGREE, _rng(seed, _GRAPH))
    else:
        edges = ba_edges(n, BA_ATTACH, _rng(seed, _GRAPH))
        if spec.kind == "ba-directed":
            edges = orient(edges, RECIPROCAL_FRAC, _rng(seed, _ORIENT))
    return edge_list_bytes(edges, f"perfbench workload={spec.name} n={n} seed={seed}")


def make_pairs(n: int, count: int, seed: int):
    """`count` pairs drawn uniformly over V x V with s != t."""
    rng = _rng(seed, _PAIRS)
    pairs = []
    while len(pairs) < count:
        s, t = (int(x) for x in rng.integers(0, n, size=2))
        if s != t:
            pairs.append((s, t))
    return pairs


def digest(data) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def pairs_digest(pairs) -> str:
    return digest(np.asarray(pairs, dtype="<i8").tobytes())
