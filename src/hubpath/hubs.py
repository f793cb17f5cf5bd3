"""Hub-set selection: the top-beta highest-degree vertices with rank/membership services."""

from __future__ import annotations

import numpy as np

from .graph import Graph, sort_unique, vertex_ids


class HubSet:
    """The selected hub vertices, ascending, with O(1) rank and membership.

    ids[rank] is the inverse of rank[v]; membership is a bitmap over V.  Two
    sets are equal when their ids are.  The ids must be integers in [0, n),
    strictly ascending, the order rank, the hub matrix's rows and the index
    file use; any other list is a ValueError.  They are kept as intp, so no
    reader casts them (the index file stores <u4), and their count is size.
    """

    def __init__(self, n, ids):
        self.ids = vertex_ids(ids, n, "hub id")
        if np.any(self.ids[1:] <= self.ids[:-1]):
            raise ValueError("hub ids must be strictly ascending")
        self.rank = np.full(n, -1, np.int32)
        self.rank[self.ids] = np.arange(self.ids.size, dtype=np.int32)
        self.is_hub = np.zeros(n, bool)
        self.is_hub[self.ids] = True

    @classmethod
    def from_ids(cls, n, ids):
        """Hub set over an explicit id list, sorted and deduplicated first, so
        the smallest bad id is the one reported."""
        return cls(n, sort_unique(np.ravel(ids)))

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
        return f"HubSet(size={self.size})"


def select_hubs(g: Graph, beta: int) -> HubSet:
    """Pick the beta greatest-total-degree vertices, ties toward smaller id.

    beta larger than n gives all n vertices.  Directed graphs rank by out+in
    degree: a hub must blow up search in either direction to matter.
    """
    if beta < 1:
        raise ValueError("beta must be >= 1")
    order = np.argsort(-g.total_degrees(), kind="stable")
    return HubSet(g.n, np.sort(order[:beta]))


def default_beta(n: int) -> int:
    """Default hub budget: 0.5% of n, clamped to [1, n]."""
    return max(1, min(n, round(0.005 * n)))
