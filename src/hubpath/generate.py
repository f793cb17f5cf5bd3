"""Deterministic synthetic edge-list generators for tests and benchmarks.

All generators emit SNAP-compatible text: '#' comment header, one "u v" pair
per line.  The same (kind, n, param, seed) always yields identical bytes.
"""

from __future__ import annotations

import math

import numpy as np

KINDS = ("er", "ba", "star", "chain")


def gen_synthetic(kind: str, n: int, param=None, seed: int = 0) -> bytes:
    """Edge-list bytes for one of: er, ba, star, chain.

    er:    param = target average degree, finite and positive; samples
           n*param/2 distinct edges.
    ba:    param = edges attached per new vertex, a positive integer
           (preferential attachment, so the degree distribution is
           heavy-tailed).
    star:  center 0 joined to n-1 leaves; chain: the path 0-1-...-(n-1).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if kind == "star":
        edges = [(0, i) for i in range(1, n)]
    elif kind == "chain":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind == "er":
        edges = _er_edges(n, param, seed)
    elif kind == "ba":
        edges = _ba_edges(n, param, seed)
    else:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    lines = [f"# synthetic kind={kind} n={n} param={param} seed={seed}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return ("\n".join(lines) + "\n").encode("ascii")


def _er_edges(n, avg_degree, seed):
    if avg_degree is None or not 0 < float(avg_degree) < math.inf:
        raise ValueError(f"er generator needs a finite positive average degree, not {avg_degree}")
    target = int(round(n * float(avg_degree) / 2))
    target = min(target, n * (n - 1) // 2)
    rng = np.random.Generator(np.random.PCG64(seed))
    seen = set()
    edges = []
    while len(edges) < target:
        batch = rng.integers(0, n, size=(max(1024, target), 2))
        for u, v in batch:
            if u == v:
                continue
            key = (int(min(u, v)), int(max(u, v)))
            if key in seen:
                continue
            seen.add(key)
            edges.append(key)
            if len(edges) == target:
                break
    return edges


def _ba_edges(n, m_attach, seed):
    if m_attach is None or not (float(m_attach).is_integer() and m_attach >= 1):
        raise ValueError(f"ba generator needs a positive integer count of attachment edges "
                         f"per vertex, not {m_attach}")
    m = int(m_attach)
    if n <= m:
        raise ValueError("ba generator needs n > attachment count")
    rng = np.random.Generator(np.random.PCG64(seed))
    edges = []
    targets = list(range(m))
    repeated = []
    for source in range(m, n):
        for v in targets:
            edges.append((source, v))
        repeated.extend(targets)
        repeated.extend([source] * m)
        # m distinct endpoints, degree-proportional via the repeated list
        picked = {}
        while len(picked) < m:
            v = repeated[int(rng.integers(0, len(repeated)))]
            picked.setdefault(v, None)
        targets = list(picked)
    return edges
