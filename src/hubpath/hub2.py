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
the hubs are grouped into blocks.  A pass keeps each vertex's free words by
(depth, block), so reading their set bits vertex by vertex gives that order
directly, with no sort.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, field

import numpy as np

from .graph import (BIT_BLOCK, Graph, bfs_tree, bit_levels, digest64, hash64,
                    offsets_from_counts, set_bits, vertex_id)
from .hubs import HubSet

INF = 255
MAX_K = 254

MAGIC = b"HUB2"
VERSION = 6
_FLAG_DIRECTED = 1
# magic, version, flags, k, 3 pad bytes, n, m, graph checksum, hub count
_HEADER = struct.Struct("<4sHHB3xQQQI")

_ENTRY_DTYPE = np.dtype([("rank", "<u2"), ("dist", "u1")])
MAX_HUBS = 0xFFFF         # hub ranks are stored as u2


class IndexFormatError(ValueError):
    """Serialized index is malformed: bad magic, version, checksum, or layout."""


class IndexIntegrityError(RuntimeError):
    """Index contents are inconsistent with each other or with the graph."""


class LabelTable:
    """CSR label storage: per-vertex entries sorted by (dist, hub_rank).

    hub_rank (uint16) and dist (uint8) are the file's two entry columns, and
    offsets the running sum of its per-vertex counts.  views holds offsets,
    dist and hub_rank as memoryviews of the same buffers, which index and
    iterate to Python ints faster than the arrays do; every query-side reader
    (the label join, the next-hop walk engines._walk) reads them in place.
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
        """v's hub ranks and label distances: memoryview slices of views, no copy."""
        offsets, dist, rank = self.views
        lo, hi = offsets[v], offsets[v + 1]
        return rank[lo:hi], dist[lo:hi]

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

    def matches(self, g: Graph) -> bool:
        return (self.n == g.n and self.m == g.m and self.directed == g.directed
                and self.graph_checksum == g.checksum)

    def labels(self, v, side):
        """Hub ranks and label distances of v's "out" or "in" labels, sorted by
        (distance, rank), as two sequences of Python ints: the table's
        memoryview slices (LabelTable.vertex_slice).  For a hub that is its
        implicit self label (rank, 0) alone; its table entries are the paths
        of basic pairs, not core hubs.  Any other side, or a v that is not
        a vertex id (graph.vertex_id), is a ValueError."""
        v = vertex_id(v, self.n, "vertex")
        if side == "out":
            table = self.labels_out
        elif side == "in":
            table = self.labels_in
        else:
            raise ValueError(f"side must be 'out' or 'in', not {side!r}")
        if self.hubs.is_hub[v]:
            return (int(self.hubs.rank[v]),), (0,)
        return table.vertex_slice(v)


# Vertices per _pass read-out chunk, set by a sweep (README "Index build"):
# a chunk copies its rows' words and unpacks 64 bytes per nonzero one.
LABEL_CHUNK = 512


def _pass(g, hubs, k, reverse, dist=None):
    """One side's LabelTable: a bounded BFS from every hub, one graph.bit_levels
    pass per BIT_BLOCK hubs in rank order.

    Each vertex's free words go into one array per depth reached, indexed by
    (vertex, block), so a vertex's words run by (depth, block) and its set
    bits, read in that order, by (dist, rank): bit b of the block from rank
    lo is rank lo + b.  The table is read out in chunks of LABEL_CHUNK
    vertices, each stacked to rows of (depth, block) words whose set bits
    come out by (vertex, dist, rank), the file's order, each nonzero word's
    depth and block repeated over its bits; np.bitwise_count gives the
    per-vertex counts up front.  A label is a free first reach.
    Given the matrix distances, the pass fills them too and labels hubs, as
    the paths of basic pairs; the other pass, whose hub labels nothing
    reads, clears the hub rows.  reverse=True walks in-edges (directed
    graphs) and gives outgoing-side labels; the forward walk incoming-side
    ones.
    """
    pull, push = g.adjacency(not reverse), g.adjacency(reverse)
    blocks = -(-hubs.size // BIT_BLOCK)
    levels = []
    for block, lo in enumerate(range(0, hubs.size, BIT_BLOCK)):
        roots = hubs.ids[lo:lo + BIT_BLOCK]
        for depth, (new, free) in enumerate(bit_levels(pull, push, hubs.ids, roots, k), 1):
            if depth > len(levels):
                levels.append(np.zeros((g.n, blocks), np.uint64))
            levels[depth - 1][:, block] = free
            if dist is not None:
                j, bit = set_bits(new[hubs.ids])
                dist[lo + bit, j] = depth
    counts = np.zeros(g.n, np.int64)
    for level in levels:
        if dist is None:
            level[hubs.ids] = 0
        counts += np.bitwise_count(level).sum(axis=1, dtype=np.int64)
    offsets = offsets_from_counts(counts)
    table = LabelTable(offsets, np.empty(offsets[-1], np.uint16), np.empty(offsets[-1], np.uint8))
    for lo in range(0, g.n, LABEL_CHUNK):
        at, to = offsets[lo], offsets[min(lo + LABEL_CHUNK, g.n)]
        if at < to:
            words = np.stack([level[lo:lo + LABEL_CHUNK] for level in levels], 1).ravel()
            lit = np.flatnonzero(words)
            count = np.bitwise_count(words[lit])
            bit = set_bits(words[lit])[1]
            table.hub_rank[at:to] = np.repeat(lit % blocks * BIT_BLOCK, count) + bit
            table.dist[at:to] = np.repeat(lit // blocks % len(levels) + 1, count)
    return table


def build(g: Graph, hubs: HubSet, k: int) -> Hub2Index:
    """Label every vertex and fill the hub matrix, one label table per side.

    Each side's table comes from one _pass, a bit-parallel bounded BFS per
    BIT_BLOCK hubs in rank order, read out before the next side's pass starts;
    a directed graph adds a reverse pass for the outgoing labels.  Python
    loops over blocks, levels and read-out chunks only, and every tie goes to
    the smallest id, so the index is the same for any block size and order.
    """
    if hubs.size == 0:
        raise ValueError("cannot build an index over an empty hub set")
    if hubs.size > MAX_HUBS:
        raise ValueError(f"{hubs.size} hubs; the index format caps hubs at {MAX_HUBS}")
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be in [1, {MAX_K}]")
    dim = hubs.size
    dist = np.full((dim, dim), INF, np.uint8)
    np.fill_diagonal(dist, 0)
    labels_in = _pass(g, hubs, k, False, dist)
    labels_out = _pass(g, hubs, k, True) if g.directed else labels_in
    return Hub2Index(k=k, directed=g.directed, n=g.n, m=g.m,
                     graph_checksum=g.checksum, hubs=hubs,
                     matrix=Hub2Matrix(dim, dist), labels_in=labels_in, labels_out=labels_out)


def core_hubs_oracle(g: Graph, hubs: HubSet, k: int, v: int, side="out"):
    """The label definition applied literally to exact BFS distances.

    side="out" keeps hubs reachable from v with no other hub strictly between
    (d(v,h) = d(v,h') + d(h',h) for no h'); side="in" is the mirrored test in
    edge direction.  Hubs own only the implicit (self, 0) entry.  Small graphs
    only: one bounded BFS per hub plus one for v.
    """
    if side not in ("out", "in"):
        raise ValueError("side must be 'out' or 'in'")
    v = vertex_id(v, g.n, "vertex")
    if hubs.is_hub[v]:
        return {(v, 0)}
    # side="out": BFS from v along out-edges gives d(v, .); the blocking test
    # needs d(h2, h).  side="in": everything runs on reversed edges, so a BFS
    # from v gives d(., v) and a BFS from h2 gives d(., h2) == d(h, h2) read
    # at h, which is exactly the mirrored strictly-between test.
    offsets, targets = g.adjacency(reverse=(side == "in"))
    d = bfs_tree(offsets, targets, v, k)[0][hubs.ids]
    cand, d = hubs.ids[d > 0], d[d > 0]
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


# Label entries per packed write and per order-check step: the writer packs
# this many 3-byte records into one reused chunk, and the reader's order
# check holds a few bytes per entry of one chunk.
ENTRY_CHUNK = 1 << 16


def to_bytes(idx: Hub2Index) -> bytes:
    """Serialize to the binary index format (little-endian, checksummed):
    serialize into an io.BytesIO, whose getvalue() hands over its buffer."""
    out = io.BytesIO()
    serialize(idx, out)
    return out.getvalue()


def serialize(idx: Hub2Index, sink) -> int:
    """Write the index to a binary file-like sink or path; returns the number
    of bytes written.  Any IndexFormatError is raised before the sink is
    opened or written, so a path that cannot hold the index gets no file."""
    counts = [_label_counts(table) for table in _tables(idx)]
    if hasattr(sink, "write"):
        return _write(idx, counts, sink.write)
    with open(sink, "wb") as fh:
        return _write(idx, counts, fh.write)


def _tables(idx):
    """The label tables in file order: incoming, then outgoing if directed."""
    return (idx.labels_in, idx.labels_out) if idx.directed else (idx.labels_in,)


def _label_counts(table):
    """The table's per-vertex label counts as the file's u16s."""
    counts = table.counts()
    over = np.flatnonzero(counts > 0xFFFF)
    if over.size:
        v = int(over[0])
        raise IndexFormatError(f"vertex {v} has {counts[v]} labels; format caps at 65535")
    return counts.astype("<u2")


def _write(idx, counts, write):
    """Digest and write the sections in file order, then the trailer: each
    table's counts, then its entries packed ENTRY_CHUNK records at a time into
    one reused chunk.  Returns the number of bytes written."""
    digest = hash64()
    size = 0

    def put(buf):
        nonlocal size
        digest.update(buf)
        write(buf)
        size += memoryview(buf).nbytes

    flags = _FLAG_DIRECTED if idx.directed else 0
    put(_HEADER.pack(MAGIC, VERSION, flags, idx.k, idx.n, idx.m, idx.graph_checksum,
                     idx.hubs.size))
    put(idx.hubs.ids.astype("<u4"))
    put(idx.matrix.cells)
    tables = _tables(idx)
    chunk = np.empty(min(ENTRY_CHUNK, max(table.total for table in tables)), _ENTRY_DTYPE)
    for table, table_counts in zip(tables, counts):
        put(table_counts)
        for lo in range(0, table.total, ENTRY_CHUNK):
            rank = table.hub_rank[lo:lo + ENTRY_CHUNK]
            part = chunk[:rank.size]
            part["rank"] = rank
            part["dist"] = table.dist[lo:lo + ENTRY_CHUNK]
            put(part)
    trailer = digest.digest()
    write(trailer)
    return size + len(trailer)


def from_bytes(data: bytes) -> Hub2Index:
    """Parse and validate a serialized index; any corruption raises
    IndexFormatError, HubSet's ValueError on the hub ids included."""
    if len(data) < 8:
        raise IndexFormatError("truncated file: too short for checksum")
    # sections are read in place through one view; only decoded arrays copy
    body = memoryview(data)[:-8]
    stored = struct.unpack("<Q", data[-8:])[0]
    if digest64(body) != stored:
        raise IndexFormatError("checksum mismatch: file is corrupted or truncated; rebuild it")
    r = _Reader(body)
    magic, version, flags, k, n, m, checksum, dim = _HEADER.unpack(r.take(_HEADER.size))
    if magic != MAGIC:
        raise IndexFormatError("bad magic")
    if version != VERSION:
        raise IndexFormatError(f"unsupported version {version}")
    if flags & ~_FLAG_DIRECTED:
        raise IndexFormatError(f"unknown flag bits 0x{flags:x}")
    directed = bool(flags & _FLAG_DIRECTED)
    if not 1 <= k <= MAX_K:
        raise IndexFormatError(f"k={k} out of range")
    if dim == 0 or dim > min(n, MAX_HUBS):
        raise IndexFormatError(f"hub count {dim} out of range for n={n}")
    ids = np.frombuffer(r.take(4 * dim), dtype="<u4")
    dist = np.frombuffer(r.take(dim * dim), dtype=np.uint8).reshape(dim, dim)
    if np.any(np.diag(dist) != 0):
        raise IndexFormatError("matrix diagonal must be zero")
    if np.any((dist > k) & (dist != INF)):
        raise IndexFormatError("matrix distance exceeds k")
    labels_in = _read_label_table(r, n, dim, k)
    labels_out = _read_label_table(r, n, dim, k) if directed else labels_in
    if r.remaining():
        raise IndexFormatError(f"{r.remaining()} unexpected trailing bytes")
    # last: HubSet allocates n entries, and only the label tables check n
    try:
        hubs = HubSet(n, ids)
    except ValueError as exc:
        raise IndexFormatError(str(exc)) from exc
    return Hub2Index(k=int(k), directed=directed, n=int(n), m=int(m),
                     graph_checksum=int(checksum), hubs=hubs,
                     matrix=Hub2Matrix(dim, dist), labels_in=labels_in,
                     labels_out=labels_out)


def _read_label_table(r, n, dim, k):
    counts = np.frombuffer(r.take(2 * n), dtype="<u2")
    offsets = offsets_from_counts(counts)
    entries = np.frombuffer(r.take(_ENTRY_DTYPE.itemsize * int(offsets[-1])), dtype=_ENTRY_DTYPE)
    # contiguous copies of the two columns: memoryview cannot index the records'
    # unaligned little-endian rank field
    rank, dist = entries["rank"].astype(np.uint16), entries["dist"].astype(np.uint8)
    if rank.size:
        if rank.max() >= dim:
            raise IndexFormatError("label hub rank out of range")
        if dist.min() < 1 or dist.max() > k:
            raise IndexFormatError("label distance out of range")
    _check_label_order(offsets, rank, dist)
    return LabelTable(offsets, rank, dist)


def _check_label_order(offsets, rank, dist):
    """Entries must be strictly ascending by (vertex, dist, rank): byte-
    stability, and no label repeated.  The vertex ascends by construction, so
    only each vertex's own (dist, rank) keys are compared, ENTRY_CHUNK pairs at
    a time, each chunk starting with the last entry of the one before;
    dist <= k < 2^8 and rank < 2^16, so a key fits in 32 bits."""
    for lo in range(1, rank.size, ENTRY_CHUNK):
        at, to = lo - 1, min(lo + ENTRY_CHUNK, rank.size)
        key = dist[at:to].astype(np.uint32) << 16
        key |= rank[at:to]
        ascending = key[1:] > key[:-1]
        # pair i compares entries at + i and at + i + 1; a vertex starting at
        # entry s, at < s < to, makes pair s - 1 - at a vertex boundary
        starts = offsets[np.searchsorted(offsets, at, "right"):np.searchsorted(offsets, to)]
        ascending[starts - 1 - at] = True
        if not ascending.all():
            raise IndexFormatError("label entries repeated or not sorted by (level, hub rank)")


def deserialize(source) -> Hub2Index:
    """Read an index from a bytes-like object (bytes, bytearray, memoryview),
    a binary file-like object, or a path."""
    if isinstance(source, (bytes, bytearray, memoryview)):
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
