"""Hub-pair distance matrix plus per-vertex core-hub labels (hub, distance).

build runs one bit-parallel bounded BFS per block of 64 hubs in rank order,
each hub owning one bit of a uint64 word per vertex (Akiba, Iwata and
Yoshida's bit-parallel BFS in the multi-source form of Then et al.).  A level
ORs each vertex's predecessors' frontier words, and a second OR over the
frontier bits a hub blocks marks what is reached only behind another hub.
Each hub's first reach of another fills its matrix cell, and each unblocked
first reach of a vertex is a label (hub, distance).  The labels alone give
every path: a vertex's bit for a hub it labels is free, so each predecessor
one level closer is a free non-hub carrying the label (hub, distance - 1),
or the hub itself at distance 1, and a walk toward the hub steps to the
smallest-id such predecessor (engines._walk).  A hub pair's shortest path
with no hub between (a basic pair) is the walk of the far hub's label, and
any other hub pair's path is a chain of such walks, split where the matrix
says (engines._expand_matrix_path), so the index stores no paths.  The
entries sort by (vertex, distance, rank), so the index does not depend on how
the hubs are grouped into blocks.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, bfs_tree, bit_levels, digest64, offsets_from_counts, set_bits
from .hubs import HubSet

INF = 255
MAX_K = 254

MAGIC = b"HUB2"
VERSION = 6
_FLAG_DIRECTED = 1

_ENTRY_DTYPE = np.dtype([("rank", "<u2"), ("dist", "u1")])
MAX_HUBS = 0xFFFF         # hub ranks are stored as u2

_BLOCK = 64               # hubs per build pass: one bit of a uint64 word each
_NO_LABELS = (np.empty(0, np.uint32), np.empty(0, np.uint8), np.empty(0, np.int32))


class IndexFormatError(ValueError):
    """Serialized index is malformed: bad magic, version, checksum, or layout."""


class IndexIntegrityError(RuntimeError):
    """Index contents are inconsistent with each other or with the graph."""


class LabelTable:
    """CSR label storage: per-vertex entries sorted by (dist, hub_rank).

    views holds offsets, dist and hub_rank as memoryviews of the same
    buffers, which index to Python ints faster than the arrays do; the
    next-hop walk (engines._walk) bisects them.
    """

    def __init__(self, offsets, hub_rank, dist):
        self.offsets = offsets
        self.hub_rank = hub_rank
        self.dist = dist
        self.views = memoryview(offsets), memoryview(dist), memoryview(hub_rank)

    @property
    def total(self):
        return int(self.hub_rank.size)

    def vertex_slice(self, v):
        lo, hi = self.offsets[v], self.offsets[v + 1]
        return self.hub_rank[lo:hi], self.dist[lo:hi]

    def counts(self):
        return np.diff(self.offsets)

    def __eq__(self, other):
        if not isinstance(other, LabelTable):
            return NotImplemented
        return (np.array_equal(self.offsets, other.offsets)
                and np.array_equal(self.hub_rank, other.hub_rank)
                and np.array_equal(self.dist, other.dist))


@dataclass
class Hub2Matrix:
    """Hub-pair distances, INF above k.

    A pair (i, j) with some shortest path free of interior hubs gives hub j
    an incoming label (i, dist[i, j]) whose walk is that path back to hub i;
    every other finite pair splits at the last hub before j on a shortest
    path, whose label hub j holds in the same way.
    """

    dim: int
    dist: np.ndarray
    cells: bytes = field(init=False, repr=False)

    def __post_init__(self):
        # the label join reads one entry per candidate pair as cells[i * dim + j]:
        # bytes index faster than numpy or a memoryview, and keeping one copy
        # per matrix spares each query an O(dim^2) tobytes.  dist becomes a
        # read-only view of the same buffer, so the two cannot drift apart.
        self.cells = self.dist.tobytes()
        self.dist = np.frombuffer(self.cells, np.uint8).reshape(self.dim, self.dim)

    def __eq__(self, other):
        if not isinstance(other, Hub2Matrix):
            return NotImplemented
        return np.array_equal(self.dist, other.dist)


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

    def labels(self, v, side):
        """Hub ranks and label distances of v's "out" or "in" labels, sorted by
        (distance, rank).  For a hub that is its implicit self label (rank, 0)
        alone; its table entries are the paths of basic pairs, not core hubs."""
        if self.hubs.is_hub[v]:
            return np.array([self.hubs.rank[v]]), np.zeros(1, np.uint8)
        table = self.labels_out if side == "out" else self.labels_in
        return table.vertex_slice(v)

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


def _pass(g, hubs, lo, k, reverse, dist=None):
    """Bounded BFS from the block of hubs ranked lo.. lo+63, bit b for rank lo + b.

    Returns the block's label arrays and, given the matrix distances, fills
    the block's rows.  The levels come from graph.bit_levels; a label is a
    free first reach.  The pass that fills the matrix labels hubs too, as the
    paths of basic pairs; the other one, whose hub labels nothing reads, does
    not.  reverse=True walks in-edges (directed graphs) and gives outgoing-side
    labels; the forward walk gives incoming-side labels.
    """
    offsets, sources = g.adjacency(not reverse)
    hub_ids = hubs.ids.astype(np.int64)
    parts = []
    levels = bit_levels(offsets, sources, hub_ids, hub_ids[lo:lo + _BLOCK], k)
    for depth, (new, free) in enumerate(levels, 1):
        rows = np.flatnonzero(free)
        if dist is None:
            rows = rows[~hubs.is_hub[rows]]
        i, bit = set_bits(free[rows])
        parts.append((rows[i].astype(np.uint32), np.full(i.size, depth, np.uint8),
                      (lo + bit).astype(np.int32)))
        if dist is not None:
            j, bit = set_bits(new[hub_ids])
            dist[lo + bit, j] = depth
    return parts


def _label_table(n, dim, parts):
    """The (vertex, dist, rank)-sorted table of the passes' label arrays.

    Empties parts, so the passes' arrays are freed before the sort.
    """
    vertex, dist, rank = (np.concatenate(f) for f in zip(_NO_LABELS, *parts))
    parts.clear()
    offsets = offsets_from_counts(np.bincount(vertex, minlength=n))
    # one distinct int64 key per entry: n < 2^32, dist < 2^8 and dim <= MAX_HUBS,
    # so keys stay under 2^56
    key = vertex.astype(np.int64)
    del vertex
    key *= MAX_K + 1
    key += dist
    key *= dim
    key += rank
    order = np.argsort(key)
    del key
    return LabelTable(offsets, rank[order], dist[order])


def build(g: Graph, hubs: HubSet, k: int) -> Hub2Index:
    """Label every vertex and fill the hub matrix with one pass per 64-hub block.

    Each pass is a bit-parallel bounded BFS from the block's hubs, in rank
    order; a directed graph adds a reverse pass for the outgoing labels.
    Python loops over blocks and levels only, and every tie goes to the
    smallest id, so the index is the same for any block size and order.
    """
    if hubs.size == 0:
        raise ValueError("cannot build an index over an empty hub set")
    if hubs.size > MAX_HUBS:
        raise ValueError(f"{hubs.size} hubs; the index format caps hubs at {MAX_HUBS}")
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be in [1, {MAX_K}]")
    t0 = time.monotonic()
    dim = hubs.size
    dist = np.full((dim, dim), INF, np.uint8)
    np.fill_diagonal(dist, 0)
    parts_in, parts_out = [], []
    for lo in range(0, dim, _BLOCK):
        parts_in += _pass(g, hubs, lo, k, False, dist)
        if g.directed:
            parts_out += _pass(g, hubs, lo, k, True)
    labels_in = _label_table(g.n, dim, parts_in)
    labels_out = _label_table(g.n, dim, parts_out) if g.directed else labels_in
    stats = {"build_seconds": time.monotonic() - t0}
    return Hub2Index(k=k, directed=g.directed, n=g.n, m=g.m,
                     graph_checksum=g.checksum, hubs=hubs,
                     matrix=Hub2Matrix(dim, dist), labels_in=labels_in, labels_out=labels_out,
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
    # side="out": BFS from v along out-edges gives d(v, .); the blocking test
    # needs d(h2, h).  side="in": everything runs on reversed edges, so a BFS
    # from v gives d(., v) and a BFS from h2 gives d(., h2) == d(h, h2) read
    # at h, which is exactly the mirrored strictly-between test.
    offsets, targets = g.adjacency(reverse=(side == "in"))
    hub_ids = hubs.ids.astype(np.int64)
    d = bfs_tree(offsets, targets, v, k)[0][hub_ids]
    cand, d = hub_ids[d > 0], d[d > 0]
    # between[i, j] = d(cand_i, cand_j); only i == j has distance 0
    between = np.array([bfs_tree(offsets, targets, h, k)[0][cand] for h in cand.tolist()],
                       np.int32).reshape(cand.size, cand.size)
    blocked = ((between > 0) & (d[:, None] + between == d[None, :])).any(axis=0)
    return {(h, dh) for h, dh in zip(cand[~blocked].tolist(), d[~blocked].tolist())}


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
    # sections are read in place through one view; only decoded arrays copy
    body = memoryview(data)[:-8]
    stored = struct.unpack("<Q", data[-8:])[0]
    if digest64(body) != stored:
        raise IndexFormatError("checksum mismatch: file is corrupted or truncated; rebuild it")
    r = _Reader(body)
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
    if dim == 0 or dim > min(n, MAX_HUBS):
        raise IndexFormatError(f"hub count {dim} out of range for n={n}")
    ids = np.frombuffer(r.take(4 * dim), dtype="<u4").astype(np.uint32)
    if np.any(ids[1:] <= ids[:-1]) or (dim and ids[-1] >= n):
        raise IndexFormatError("hub ids must be strictly ascending and < n")
    dist = np.frombuffer(r.take(dim * dim), dtype=np.uint8).reshape(dim, dim)
    if np.any(np.diag(dist) != 0):
        raise IndexFormatError("matrix diagonal must be zero")
    if np.any((dist > k) & (dist != INF)):
        raise IndexFormatError("matrix distance exceeds k")
    labels_in = _read_label_table(r, n, dim, k)
    labels_out = _read_label_table(r, n, dim, k) if directed else labels_in
    if r.remaining():
        raise IndexFormatError(f"{r.remaining()} unexpected trailing bytes")
    hubs = HubSet(n, ids, dim)
    return Hub2Index(k=int(k), directed=directed, n=int(n), m=int(m),
                     graph_checksum=int(checksum), hubs=hubs,
                     matrix=Hub2Matrix(dim, dist), labels_in=labels_in,
                     labels_out=labels_out)


def _read_label_table(r, n, dim, k):
    counts = np.frombuffer(r.take(2 * n), dtype="<u2")
    offsets = offsets_from_counts(counts)
    entries = np.frombuffer(r.take(_ENTRY_DTYPE.itemsize * int(offsets[-1])), dtype=_ENTRY_DTYPE)
    rank, dist = entries["rank"], entries["dist"]
    if rank.size:
        if rank.max() >= dim:
            raise IndexFormatError("label hub rank out of range")
        if dist.min() < 1 or dist.max() > k:
            raise IndexFormatError("label distance out of range")
        # entries must be strictly ascending by (vertex, dist, rank): byte-
        # stability, and no label repeated.  The vertex ascends by
        # construction, so only each vertex's own (dist, rank) keys are checked.
        key = dist.astype(np.int64) << 16 | rank
        ascending = key[1:] > key[:-1]
        starts = offsets[1:-1]
        ascending[starts[(starts > 0) & (starts < key.size)] - 1] = True
        if not ascending.all():
            raise IndexFormatError("label entries repeated or not sorted by (level, hub rank)")
    return LabelTable(offsets, rank.astype(np.int32), dist.astype(np.uint8))


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
