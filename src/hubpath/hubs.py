"""Hub-set selection: the top-beta highest-degree vertices with rank/membership services."""

from __future__ import annotations

import numpy as np

from .graph import Graph, sort_unique


class HubSet:
    """The selected hub vertices, ascending, with O(1) rank and membership.

    ids[rank] is the inverse of rank[v]; membership is a bitmap over V.  Two
    sets are equal when their ids are.  ids are intp, so no reader casts them
    (the index file stores <u4), and one outside [0, n) is a ValueError.
    """

    def __init__(self, n, ids, beta):
        self.ids = np.asarray(ids, dtype=np.intp)
        bad = self.ids[(self.ids < 0) | (self.ids >= n)]
        if bad.size:
            raise ValueError(f"hub id {bad[0]} outside [0, {n})")
        self.beta = int(beta)
        self.rank = np.full(n, -1, np.int32)
        self.rank[self.ids] = np.arange(self.ids.size, dtype=np.int32)
        self.is_hub = np.zeros(n, bool)
        self.is_hub[self.ids] = True

    @classmethod
    def from_ids(cls, n, ids):
        """Hub set over an explicit id list (ids are sorted and deduplicated)."""
        ids = sort_unique(np.asarray(ids, dtype=np.intp).ravel())
        return cls(n, ids, ids.size)

    @property
    def size(self):
        return int(self.ids.size)

    def __contains__(self, v):
        return bool(self.is_hub[v])

    def __len__(self):
        return self.size

    def __eq__(self, other):
        if not isinstance(other, HubSet):
            return NotImplemented
        return np.array_equal(self.ids, other.ids)

    def __repr__(self):
        return f"HubSet(size={self.size}, beta={self.beta})"


def select_hubs(g: Graph, beta: int) -> HubSet:
    """Pick the beta greatest-total-degree vertices, ties toward smaller id.

    beta larger than n clamps to n.  Directed graphs rank by out+in degree:
    a hub must blow up search in either direction to matter.
    """
    if beta < 1:
        raise ValueError("beta must be >= 1")
    order = np.argsort(-g.total_degrees(), kind="stable")
    return HubSet(g.n, np.sort(order[:beta]), beta)


def default_beta(n: int) -> int:
    """Default hub budget: 0.5% of n, clamped to [1, n]."""
    return max(1, min(n, round(0.005 * n)))
