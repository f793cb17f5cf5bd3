"""Hub-pair distance matrix plus per-vertex core-hub labels with next-hop ports.

One bounded BFS per hub fills its matrix row, records a path witness per
reached hub (an inline vertex chain for basic pairs, a splitting hub rank in
the via row for composite ones), and emits a label (hub, distance, port) for
every non-hub vertex it reaches with no other hub strictly between.  Ports are
offsets into the owning vertex's sorted adjacency slice and give the next hop
toward the hub, which keeps path extraction memory-free.
"""

from __future__ import annotations

import struct
import time
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .graph import (Graph, bfs_levels, digest64, first_parents, frontier_edges,
                    offsets_from_counts)
from .hubs import HubSet

INF = 255
MAX_K = 254

MAGIC = b"HUB2"
VERSION = 3
_FLAG_DIRECTED = 1

_ENTRY_DTYPE = np.dtype([("rank", "<u4"), ("dist", "u1"), ("port", "<u4")])


class IndexFormatError(ValueError):
    """Serialized index is malformed: bad magic, version, checksum, or layout."""


class IndexIntegrityError(RuntimeError):
    """Index contents are inconsistent with each other or with the graph."""


class LabelTable:
    """CSR label storage: per-vertex entries sorted by (dist, hub_rank)."""

    def __init__(self, offsets, hub_rank, dist, port):
        self.offsets = offsets
        self.hub_rank = hub_rank
        self.dist = dist
        self.port = port

    @classmethod
    def from_chunks(cls, n, chunks):
        """Merge per-hub contribution buffers into one deterministic table.

        Sorting by (vertex, dist, hub_rank) makes the result independent of
        the order the per-hub traversals ran in.
        """
        if chunks:
            vertex = np.concatenate([c[0] for c in chunks])
            dist = np.concatenate([c[1] for c in chunks])
            rank = np.concatenate([c[2] for c in chunks])
            port = np.concatenate([c[3] for c in chunks])
        else:
            vertex = dist = rank = port = np.empty(0, np.int64)
        order = np.lexsort((rank, dist, vertex))
        offsets = offsets_from_counts(np.bincount(vertex, minlength=n))
        return cls(offsets, rank[order].astype(np.int32),
                   dist[order].astype(np.uint8), port[order].astype(np.int32))

    @property
    def total(self):
        return int(self.hub_rank.size)

    def vertex_slice(self, v):
        lo, hi = self.offsets[v], self.offsets[v + 1]
        return self.hub_rank[lo:hi], self.dist[lo:hi], self.port[lo:hi]

    def counts(self):
        return np.diff(self.offsets)

    def __eq__(self, other):
        if not isinstance(other, LabelTable):
            return NotImplemented
        return (np.array_equal(self.offsets, other.offsets)
                and np.array_equal(self.hub_rank, other.hub_rank)
                and np.array_equal(self.dist, other.dist)
                and np.array_equal(self.port, other.port))


def _witnessed_pairs(dist):
    """Mask of the finite off-diagonal hub pairs: those that carry a witness."""
    return (dist != INF) & ~np.eye(len(dist), dtype=bool)


@dataclass
class Hub2Matrix:
    """Hub-pair distances (INF above k) with one path witness per finite entry.

    Finite off-diagonal pair (i, j) has via[i, j] = w splitting its distance
    (dist[i, w] + dist[w, j] == dist[i, j]), or -1 and an inline chain of
    dist[i, j] + 1 vertex ids from chains[chain_start[i, j]], a shortest path
    with no interior hub.  Chains are concatenated in row-major pair order, so
    chain_start follows from dist and via and is never stored.
    """

    dim: int
    dist: np.ndarray
    via: np.ndarray
    chains: np.ndarray
    cells: bytes = field(init=False, repr=False)
    chain_start: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # the label join reads one entry per candidate pair as cells[i * dim + j]:
        # bytes index faster than numpy or a memoryview, and keeping one copy
        # per matrix spares each query an O(dim^2) tobytes.  dist becomes a
        # read-only view of the same buffer, so the two cannot drift apart.
        self.cells = self.dist.tobytes()
        self.dist = np.frombuffer(self.cells, np.uint8).reshape(self.dim, self.dim)
        inline = _witnessed_pairs(self.dist) & (self.via < 0)
        lengths = np.where(inline, self.dist.astype(np.int64) + 1, 0).ravel()
        self.chain_start = (np.cumsum(lengths) - lengths).reshape(self.dim, self.dim)

    def __eq__(self, other):
        if not isinstance(other, Hub2Matrix):
            return NotImplemented
        return (np.array_equal(self.dist, other.dist) and np.array_equal(self.via, other.via)
                and np.array_equal(self.chains, other.chains))


@dataclass
class Hub2Index:
    """Everything the two-step query engine needs, bound to a graph fingerprint."""

    k: int
    directed: bool
    n: int
    m: int
    graph_checksum: int
    hubs: HubSet
    matrix: Hub2Matrix
    labels_in: LabelTable
    labels_out: LabelTable
    build_stats: dict = field(default_factory=dict)

    def matches(self, g: Graph) -> bool:
        return (self.n == g.n and self.m == g.m and self.directed == g.directed
                and self.graph_checksum == g.checksum)

    def __eq__(self, other):
        if not isinstance(other, Hub2Index):
            return NotImplemented
        same = (self.k == other.k and self.directed == other.directed
                and self.n == other.n and self.m == other.m
                and self.graph_checksum == other.graph_checksum
                and np.array_equal(self.hubs.ids, other.hubs.ids)
                and self.matrix == other.matrix
                and self.labels_in == other.labels_in)
        if not same:
            return False
        if self.directed:
            return self.labels_out == other.labels_out
        return True


def label_bfs(g: Graph, hubs: HubSet, h: int, k: int, reverse=False):
    """Bounded BFS from hub h: (matrix row, via row, inline chains, label arrays).

    A reached hub blocked on every shortest path gets a blocking hub's rank in
    the via row (else -1); the others' chains, h first, are one list in rank order.

    reverse=True walks in-edges (directed graphs), producing outgoing-side
    labels whose ports index the out-slice; the forward walk produces
    incoming-side labels with ports into the in-slice (out-slice when
    undirected).  Parent choice is the smallest-id predecessor on the previous
    level, blocked predecessors first.
    """
    if not hubs.is_hub[h]:
        raise ValueError(f"vertex {h} is not a hub")
    offsets, targets = g.adjacency(reverse)
    port_lists = g.adj_lists(reverse=not reverse)
    n = g.n
    rank = hubs.rank
    is_hub = hubs.is_hub
    dim = hubs.size

    row = np.full(dim, INF, np.uint8)
    row[rank[h]] = 0
    level = np.full(n, -1, np.int32)
    bflag = np.zeros(n, np.uint8)
    parent = np.full(n, -1, np.int32)
    blocker = np.full(n, -1, np.int32)
    level[h] = 0
    bflag[h] = 1
    frontier = np.array([h], dtype=np.int64)

    via = np.full(dim, -1, np.int32)
    lab_vertex, lab_dist, lab_rank, lab_port = [], [], [], []
    chains = {}

    for depth in range(k + 1):
        if depth > 0:
            hub_mask = is_hub[frontier]
            for u in frontier[hub_mask]:
                u = int(u)
                r = int(rank[u])
                row[r] = depth
                if bflag[u]:
                    chain = [u]
                    v = u
                    while v != h:
                        v = int(parent[v])
                        chain.append(v)
                    chains[r] = chain[::-1]
                    bflag[u] = 0
                else:
                    via[r] = rank[blocker[u]]
                blocker[u] = u
            labeled = frontier[~hub_mask & (bflag[frontier] == 1)]
            if labeled.size:
                ports = np.empty(labeled.size, np.int32)
                for i, v in enumerate(labeled):
                    ports[i] = bisect_left(port_lists[v], int(parent[v]))
                lab_vertex.append(labeled)
                lab_dist.append(np.full(labeled.size, depth, np.int64))
                lab_rank.append(np.full(labeled.size, rank[h], np.int64))
                lab_port.append(ports.astype(np.int64))
        if depth == k:
            break
        srcs, dsts = frontier_edges(offsets, targets, frontier)
        fresh = level[dsts] < 0
        # blocked predecessors sort first, so the pick's flag is the AND of
        # all predecessor flags and a blocked vertex inherits a blocking hub;
        # labeled vertices have all-unblocked predecessors, so their parent is
        # the smallest-id one; parents of blocked vertices are never walked
        new, pred = first_parents(srcs[fresh], dsts[fresh], bflag)
        if new.size == 0:
            break
        chosen_b = bflag[pred]
        blocked = chosen_b == 0
        bflag[new] = chosen_b
        blocker[new[blocked]] = blocker[pred[blocked]]
        parent[new] = pred
        level[new] = depth + 1
        frontier = new
    contribution = (lab_vertex, lab_dist, lab_rank, lab_port)
    return row, via, [v for r in sorted(chains) for v in chains[r]], contribution


def build(g: Graph, hubs: HubSet, k: int) -> Hub2Index:
    """Run one (two when directed) label traversal per hub and merge the output.

    The merge is a global sort by (vertex, level, hub rank), so the result does
    not depend on traversal scheduling.
    """
    if hubs.size == 0:
        raise ValueError("cannot build an index over an empty hub set")
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be in [1, {MAX_K}]")
    t0 = time.monotonic()
    dim = hubs.size
    dist = np.empty((dim, dim), np.uint8)
    via = np.empty((dim, dim), np.int32)
    chains, chunks_in, chunks_out = [], [], []
    for i, h in enumerate(hubs.ids):
        dist[i], via[i], row_chains, (lv, ld, lr, lp) = label_bfs(g, hubs, int(h), k)
        chains += row_chains
        chunks_in.extend(zip(lv, ld, lr, lp))
        if g.directed:
            *_, (lv, ld, lr, lp) = label_bfs(g, hubs, int(h), k, reverse=True)
            chunks_out.extend(zip(lv, ld, lr, lp))
    labels_in = LabelTable.from_chunks(g.n, chunks_in)
    labels_out = LabelTable.from_chunks(g.n, chunks_out) if g.directed else labels_in
    non_hubs = max(1, g.n - dim)
    entries = labels_in.total + (labels_out.total if g.directed else 0)
    stats = {
        "avg_labels_per_vertex": entries / non_hubs,
        "build_seconds": time.monotonic() - t0,
    }
    return Hub2Index(k=k, directed=g.directed, n=g.n, m=g.m,
                     graph_checksum=g.checksum, hubs=hubs,
                     matrix=Hub2Matrix(dim, dist, via, np.array(chains, np.uint32)),
                     labels_in=labels_in, labels_out=labels_out,
                     build_stats=stats)


def core_hubs_oracle(g: Graph, hubs: HubSet, k: int, v: int, side="out"):
    """The label definition applied literally to exact BFS distances.

    side="out" keeps hubs reachable from v with no other hub strictly between
    (d(v,h) = d(v,h') + d(h',h) for no h'); side="in" is the mirrored test in
    edge direction.  Hubs own only the implicit (self, 0) entry.  Small graphs
    only: one bounded BFS per hub plus one for v.
    """
    if side not in ("out", "in"):
        raise ValueError("side must be 'out' or 'in'")
    if hubs.is_hub[v]:
        return {(int(v), 0)}
    n = g.n
    # side="out": BFS from v along out-edges gives d(v, .); the blocking test
    # needs d(h2, h).  side="in": everything runs on reversed edges, so a BFS
    # from v gives d(., v) and a BFS from h2 gives d(., h2) == d(h, h2) read
    # at h, which is exactly the mirrored strictly-between test.
    offsets, targets = g.adjacency(reverse=(side == "in"))
    lv = bfs_levels(offsets, targets, v, k, n)
    hub_ids = hubs.ids.astype(np.int64)
    dv = lv[hub_ids]
    candidates = [(int(hub_ids[i]), int(dv[i]))
                  for i in range(hub_ids.size) if 0 < dv[i] <= k]
    result = set()
    if not candidates:
        return result
    hub_lv = {h: bfs_levels(offsets, targets, h, k, n) for h, _ in candidates}
    for h, d in candidates:
        blocked = False
        for h2, d2 in candidates:
            if h2 == h:
                continue
            between = int(hub_lv[h2][h])
            if between >= 0 and d2 + between == d:
                blocked = True
                break
        if not blocked:
            result.add((h, d))
    return result


def index_stats(idx: Hub2Index) -> dict:
    """Aggregate sizes: label counts per non-hub vertex and matrix fill."""
    counts = idx.labels_in.counts()
    if idx.directed:
        counts = counts + idx.labels_out.counts()
    non_hub = ~idx.hubs.is_hub
    per_vertex = counts[non_hub]
    denom = max(1, int(non_hub.sum()))
    finite = int((idx.matrix.dist != INF).sum())
    return {
        "avg_label_count": float(per_vertex.sum() / denom),
        "max_label_count": int(per_vertex.max()) if per_vertex.size else 0,
        "matrix_finite_fraction": finite / (idx.matrix.dim ** 2),
    }


def to_bytes(idx: Hub2Index) -> bytes:
    """Serialize to the binary index format (little-endian, checksummed)."""
    buf = bytearray()
    buf += MAGIC
    flags = _FLAG_DIRECTED if idx.directed else 0
    buf += struct.pack("<HHB3x", VERSION, flags, idx.k)
    buf += struct.pack("<QQQ", idx.n, idx.m, idx.graph_checksum)
    buf += struct.pack("<I", idx.hubs.size)
    buf += idx.hubs.ids.astype("<u4").tobytes()
    buf += idx.matrix.dist.tobytes(order="C")
    via = idx.matrix.via[_witnessed_pairs(idx.matrix.dist)]
    buf += (via >= 0).astype(np.uint8).tobytes()
    buf += via[via >= 0].astype("<u4").tobytes()
    buf += idx.matrix.chains.astype("<u4").tobytes()
    _write_label_table(buf, idx.labels_in)
    if idx.directed:
        _write_label_table(buf, idx.labels_out)
    buf += struct.pack("<Q", digest64(buf))
    return bytes(buf)


def _write_label_table(buf, table):
    counts = table.counts()
    over = np.flatnonzero(counts > 0xFFFF)
    if over.size:
        v = int(over[0])
        raise IndexFormatError(f"vertex {v} has {counts[v]} labels; format caps at 65535")
    entries = np.empty(table.total, _ENTRY_DTYPE)
    entries["rank"] = table.hub_rank
    entries["dist"] = table.dist
    entries["port"] = table.port
    buf += counts.astype("<u2").tobytes()
    buf += entries.tobytes()


def serialize(idx: Hub2Index, sink) -> None:
    """Write the index to a binary file-like sink or path."""
    data = to_bytes(idx)
    if hasattr(sink, "write"):
        sink.write(data)
    else:
        with open(sink, "wb") as fh:
            fh.write(data)


def from_bytes(data: bytes) -> Hub2Index:
    """Parse and validate a serialized index; any corruption raises."""
    if len(data) < 8:
        raise IndexFormatError("truncated file: too short for checksum")
    stored = struct.unpack("<Q", data[-8:])[0]
    if digest64(data[:-8]) != stored:
        raise IndexFormatError("checksum mismatch: file is corrupted, truncated or written "
                               "by another format version; rebuild it")
    r = _Reader(data[:-8])
    if r.take(4) != MAGIC:
        raise IndexFormatError("bad magic")
    version, flags, k = struct.unpack("<HHB3x", r.take(8))
    if version != VERSION:
        raise IndexFormatError(f"unsupported version {version}")
    if flags & ~_FLAG_DIRECTED:
        raise IndexFormatError(f"unknown flag bits 0x{flags:x}")
    directed = bool(flags & _FLAG_DIRECTED)
    if not 1 <= k <= MAX_K:
        raise IndexFormatError(f"k={k} out of range")
    n, m, checksum = struct.unpack("<QQQ", r.take(24))
    dim = struct.unpack("<I", r.take(4))[0]
    if dim == 0 or dim > n:
        raise IndexFormatError(f"hub count {dim} out of range for n={n}")
    ids = np.frombuffer(r.take(4 * dim), dtype="<u4").astype(np.uint32)
    if np.any(ids[1:] <= ids[:-1]) or (dim and ids[-1] >= n):
        raise IndexFormatError("hub ids must be strictly ascending and < n")
    dist = np.frombuffer(r.take(dim * dim), dtype=np.uint8).reshape(dim, dim)
    if np.any(np.diag(dist) != 0):
        raise IndexFormatError("matrix diagonal must be zero")
    if np.any((dist > k) & (dist != INF)):
        raise IndexFormatError("matrix distance exceeds k")
    # witnesses: tags, then via ranks, then inline chains, each checked whole
    pairs = _witnessed_pairs(dist)
    tags = np.frombuffer(r.take(int(pairs.sum())), np.uint8)
    if np.any(tags > 1):
        raise IndexFormatError(f"unknown witness tag {tags.max()}")
    split = np.zeros((dim, dim), bool)
    split[pairs] = tags == 1
    w = np.frombuffer(r.take(4 * int(split.sum())), "<u4").astype(np.int64)
    if np.any(w >= dim):
        raise IndexFormatError("via witness rank out of range")
    i, j = np.nonzero(split)
    if np.any((w == i) | (w == j)):
        raise IndexFormatError("via witness rank is an endpoint of its pair")
    d = dist.astype(np.int64)
    if np.any(d[i, w] + d[w, j] != d[i, j]):
        raise IndexFormatError("via witness does not split its pair's distance")
    via = np.full((dim, dim), -1, np.int32)
    via[split] = w
    inline = pairs & ~split
    chains = np.frombuffer(r.take(4 * int((d[inline] + 1).sum())), "<u4").astype(np.uint32)
    if np.any(chains >= n):
        raise IndexFormatError("inline witness vertex out of range")
    matrix = Hub2Matrix(dim, dist, via, chains)
    i, j = np.nonzero(inline)
    start = matrix.chain_start[i, j]
    if np.any(chains[start] != ids[i]) or np.any(chains[start + d[i, j]] != ids[j]):
        raise IndexFormatError("inline witness endpoints are not its hub pair")
    labels_in = _read_label_table(r, n, dim, k)
    labels_out = _read_label_table(r, n, dim, k) if directed else labels_in
    if r.remaining():
        raise IndexFormatError(f"{r.remaining()} unexpected trailing bytes")
    hubs = HubSet(n, ids, dim)
    return Hub2Index(k=int(k), directed=directed, n=int(n), m=int(m),
                     graph_checksum=int(checksum), hubs=hubs,
                     matrix=matrix, labels_in=labels_in, labels_out=labels_out)


def _read_label_table(r, n, dim, k):
    counts = np.frombuffer(r.take(2 * n), dtype="<u2")
    offsets = offsets_from_counts(counts)
    entries = np.frombuffer(r.take(_ENTRY_DTYPE.itemsize * int(offsets[-1])), dtype=_ENTRY_DTYPE)
    rank, dist, port = entries["rank"], entries["dist"], entries["port"]
    if rank.size:
        if rank.max() >= dim:
            raise IndexFormatError("label hub rank out of range")
        if dist.min() < 1 or dist.max() > k:
            raise IndexFormatError("label distance out of range")
        # entries must already be sorted by (vertex, dist, rank): byte-stability.
        # The vertex ascends by construction, so only each vertex's own
        # (dist, rank) keys can descend.
        vertex = np.repeat(np.arange(n), counts)
        key = dist.astype(np.int64) << 32 | rank
        if np.any((key[1:] < key[:-1]) & (vertex[1:] == vertex[:-1])):
            raise IndexFormatError("label entries not sorted by (level, hub rank)")
    return LabelTable(offsets, rank.astype(np.int32), dist.astype(np.uint8),
                      port.astype(np.int32))


def deserialize(source) -> Hub2Index:
    """Read an index from bytes, a binary file-like object, or a path."""
    if isinstance(source, bytes):
        return from_bytes(source)
    if hasattr(source, "read"):
        return from_bytes(source.read())
    with open(source, "rb") as fh:
        return from_bytes(fh.read())


class _Reader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, count):
        if self.pos + count > len(self.data):
            raise IndexFormatError("truncated file")
        out = self.data[self.pos:self.pos + count]
        self.pos += count
        return out

    def remaining(self):
        return len(self.data) - self.pos
