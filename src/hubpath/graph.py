"""Unweighted graphs in compressed adjacency form, plus BFS utilities.

Graphs are immutable after construction.  Vertex ids are dense 0-based
integers; each vertex's neighbor slice is sorted ascending; self-loops are
dropped and duplicate edges collapsed at load time.  Directed graphs carry a
reverse adjacency next to the forward one.  The sorted slices are what make
the first label carrier in a slice its smallest-id one, the next hop of a
label walk, and serialization deterministic.

load_edge_list reads plain input with np.loadtxt: printable ASCII, tabs and
LF or CRLF line breaks, '#' only at the start of a token, and first two
columns that are ids in [0, MAX_VERTEX_ID].  Anything else -- any other byte,
a lone CR, a '#' inside a token, a line loadtxt cannot read, no data line, an
id out of range -- goes to the line loop, which accepts it as the format
allows or names the line.  from_edges and HubSet read ids through
vertex_ids, which refuses any that is not an integer in [0, n);
from_edges and HubSet.from_ids deduplicate through sort_unique.

bfs_tree is the one single-source BFS level loop outside the engines: the
reference engine bfs_query, bounded_bfs and the label oracle
hub2.core_hubs_oracle run on it.  It keeps levels only, each level one
min-scatter of depth over its frontier's out-targets; level_path reads one
shortest path back from them, stepping to the smallest-id in-neighbour one
level up.  bit_levels is the one bit-parallel level loop: hub2.build reads
labels and the hub-pair matrix from it, network.discover each hub's
unblocked region, and the preservation check
(network.verify_distance_preserving) the hub-pair distances.  Its step,
or_in, pushes a word set with few out-edges and otherwise pulls, over the
rows that can still change when they are few.
"""

from __future__ import annotations

import hashlib
import io
import re
import warnings

import numpy as np

MAX_VERTEX_ID = 2**32 - 2


class EdgeListParseError(ValueError):
    """Malformed edge-list input (bad token, no edges, oversized id)."""


def digest64(*buffers) -> int:
    """64-bit blake2b digest of the buffers in order, read little-endian.

    The one fingerprint of the package: the graph checksum and the index
    file trailer both call it.
    """
    h = hash64()
    for buf in buffers:
        h.update(buf)
    return int.from_bytes(h.digest(), "little")


def hash64():
    """digest64 as a running hash: update() it with the buffers in order, and
    its digest() is their digest64 as 8 little-endian bytes."""
    return hashlib.blake2b(digest_size=8)


class Graph:
    """Immutable unweighted graph in CSR form (forward and, if directed, reverse).

    Attributes
    ----------
    n : int            vertex count
    m : int            directed-edge count (undirected edges count twice)
    directed : bool
    out_offsets : int64 array of n+1 cumulative indices
    out_targets : uint32 array of m neighbor ids, ascending per slice
    in_offsets / in_targets : present iff directed (same sorting rule)
    """

    def __init__(self, n, directed, out_offsets, out_targets,
                 in_offsets=None, in_targets=None):
        self.n = int(n)
        self.m = int(out_targets.shape[0])
        self.directed = bool(directed)
        self.out_offsets = out_offsets
        self.out_targets = out_targets
        self.in_offsets = in_offsets
        self.in_targets = in_targets
        if self.directed and (in_offsets is None or in_targets is None):
            raise ValueError("directed graph requires reverse adjacency")
        self._checksum = None
        self._out_lists = None
        self._in_lists = None

    @classmethod
    def from_edges(cls, n, sources, targets, directed=False):
        """Build a graph from parallel source/target id arrays.

        Undirected mode inserts both orientations; duplicates collapse and
        self-loops are dropped in either mode.  An id that is not an integer
        in [0, n) is a ValueError (vertex_ids): _csr's row * n + col codes
        would fold it into another edge.
        """
        n = int(n)
        src, dst = (np.asarray(vertex_ids(ids, n, "vertex id"), np.uint64)
                    for ids in (sources, targets))
        keep = src != dst
        src, dst = src[keep], dst[keep]
        if not directed:
            return cls(n, False, *_csr(n, np.concatenate([src, dst]), np.concatenate([dst, src])))
        return cls(n, True, *_csr(n, src, dst), *_csr(n, dst, src))

    def adjacency(self, reverse=False):
        """(offsets, targets) pair; reverse selects in-edges on directed graphs."""
        if reverse and self.directed:
            return self.in_offsets, self.in_targets
        return self.out_offsets, self.out_targets

    def neighbors(self, v, reverse=False):
        offsets, targets = self.adjacency(reverse)
        return targets[offsets[v]:offsets[v + 1]]

    def total_degrees(self):
        """Per-vertex degree; out+in for directed graphs."""
        deg = np.diff(self.out_offsets)
        if self.directed:
            deg = deg + np.diff(self.in_offsets)
        return deg

    def adj_lists(self, reverse=False):
        """Cached per-vertex neighbor lists (python ints, ascending)."""
        if reverse and self.directed:
            if self._in_lists is None:
                self._in_lists = _split_lists(self.in_offsets, self.in_targets, self.n)
            return self._in_lists
        if self._out_lists is None:
            self._out_lists = _split_lists(self.out_offsets, self.out_targets, self.n)
        return self._out_lists

    def has_edge(self, u, v):
        offsets, targets = self.out_offsets, self.out_targets
        lo, hi = offsets[u], offsets[u + 1]
        pos = lo + np.searchsorted(targets[lo:hi], v)
        return pos < hi and targets[pos] == v

    @property
    def checksum(self) -> int:
        """digest64 of the forward edge arrays; the graph fingerprint."""
        if self._checksum is None:
            self._checksum = digest64(self.out_offsets.astype("<i8"),
                                      self.out_targets.astype("<u4"))
        return self._checksum

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and self.directed == other.directed
                and np.array_equal(self.out_offsets, other.out_offsets)
                and np.array_equal(self.out_targets, other.out_targets))

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        return f"Graph(n={self.n}, m={self.m}, {kind})"


def offsets_from_counts(counts):
    """CSR offsets (len(counts) + 1 cumulative int64 indices) of per-vertex counts."""
    offsets = np.zeros(len(counts) + 1, np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def sort_unique(values):
    """The distinct values of a 1-d array, ascending, as np.unique gives them.

    Sorts and keeps each value that differs from its predecessor.  numpy 2.4's
    np.unique hashes integer arrays instead, which is 5 to 50 times slower on
    the edge codes and hub ids deduplicated here.
    """
    out = np.sort(values)
    if out.size > 1:
        keep = np.empty(out.size, bool)
        keep[0] = True
        np.not_equal(out[1:], out[:-1], out=keep[1:])
        out = out[keep]
    return out


def vertex_ids(values, n, name):
    """values as intp ids; a ValueError names the first that is not an
    integer (NaN and inf included) or lies outside [0, n)."""
    ids = np.asarray(values)
    if ids.dtype.kind not in "iu":
        ids = ids.astype(np.float64)
        bad = ids[~(np.isfinite(ids) & (np.floor(ids) == ids))]
        if bad.size:
            raise ValueError(f"{name} {bad[0]} is not an integer")
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise ValueError(f"{name} {int(ids[(ids < 0) | (ids >= n)][0])} outside [0, {n})")
    return ids.astype(np.intp, copy=False)


def _csr(n, rows, cols):
    """(offsets, targets) of the distinct (row, col) uint64 pairs, each row's
    targets ascending: the pairs sort and deduplicate as codes row * n + col."""
    rows, cols = np.divmod(sort_unique(rows * np.uint64(n) + cols), np.uint64(n))
    offsets = offsets_from_counts(np.bincount(rows.astype(np.int64), minlength=n))
    return offsets, cols.astype(np.uint32)


def _split_lists(offsets, targets, n):
    lst = targets.tolist()
    offs = offsets.tolist()
    return [lst[offs[i]:offs[i + 1]] for i in range(n)]


def load_edge_list(source, directed=False) -> Graph:
    """Parse SNAP-style edge-list text (bytes-like, str or a readable file) into a Graph.

    Lines beginning with '#' and blank lines are ignored; other lines need at
    least two whitespace-separated integer tokens (extra tokens are ignored).
    Vertices are 0..max_id; gaps become isolated vertices.
    """
    if isinstance(source, (bytes, str)):
        data = source
    elif isinstance(source, (bytearray, memoryview)):
        data = bytes(source)
    else:
        data = source.read()
    src, dst = _parse_edges(data)
    g = None
    if src.size:
        g = Graph.from_edges(max(int(src.max()), int(dst.max())) + 1, src, dst, directed)
    if g is None or g.m == 0:
        raise EdgeListParseError("empty edge set")
    return g


def _parse_edges(data):
    """(sources, targets) int64 arrays of edge-list text, one entry per data line.

    A str is read as its UTF-8 bytes.  np.loadtxt reads plain text (_parse_buffer),
    the line loop the rest and any text _parse_buffer turns down.
    """
    data = _utf8(data)
    edges = _parse_buffer(data)
    return edges if edges is not None else _parse_lines(data)


def _utf8(data):
    """A str as its UTF-8 bytes, lone surrogates too, so no str fails; bytes as is."""
    return data.encode("utf-8", "surrogatepass") if isinstance(data, str) else data


# The bytes np.loadtxt and the line loop read alike: printable ASCII, tab, LF,
# and CR where it ends a CRLF (checked apart).
_PLAIN = bytes(range(0x20, 0x7F)) + b"\t\n\r"

# The tokens np.loadtxt's int64 parse takes; int() alone also reads 1_0 as 10.
_INT_TOKEN = re.compile(r"[+-]?[0-9]+")


def _parse_buffer(data: bytes):
    """(sources, targets) as np.loadtxt reads the first two columns; None
    where loadtxt could read the text otherwise than the line loop, or fails.

    That is a byte outside _PLAIN (loadtxt reads some control bytes as blanks
    where the loop breaks the line, and the loop rejects non-ASCII bytes), a
    CR that does not end a CRLF (the loop breaks the line there, loadtxt does
    not), a '#' after a non-blank byte (loadtxt starts a comment there, the
    loop reads a malformed token), an error or a warning from loadtxt (a line
    it cannot read, no data line, or on older numpy an integer written as a
    float), and an id outside [0, MAX_VERTEX_ID].
    """
    if data.translate(None, _PLAIN):
        return None
    if b"\r" in data and data.count(b"\r") != data.count(b"\r\n"):
        return None
    hashes = (match.start() for match in re.finditer(b"#", data))
    if any(at and data[at - 1] not in b"\t\n\r " for at in hashes):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ids = np.loadtxt(io.BytesIO(data), np.int64, comments="#", usecols=(0, 1), ndmin=2)
    except (ValueError, Warning):
        return None
    if ids.min() < 0 or ids.max() > MAX_VERTEX_ID:
        return None
    return ids[:, 0], ids[:, 1]


def _parse_lines(data):
    """The line loop: reads what np.loadtxt is not trusted with, and names the
    first line it cannot read; every error that names a line comes from here.
    A str is read as its UTF-8 bytes (_utf8)."""
    text = _utf8(data).decode("ascii", "surrogateescape")
    srcs, dsts = [], []
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line.isascii():
            shown = line.encode("ascii", "surrogateescape")
            raise EdgeListParseError(f"line {line_no}: non-ASCII byte in {shown!r}")
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise EdgeListParseError(f"line {line_no}: expected two integer tokens, got {line!r}")
        try:
            if not (_INT_TOKEN.fullmatch(parts[0]) and _INT_TOKEN.fullmatch(parts[1])):
                raise ValueError
            u, v = int(parts[0]), int(parts[1])  # ValueError past int()'s digit limit
        except ValueError:
            raise EdgeListParseError(f"line {line_no}: malformed integer token in {line!r}") from None
        if u < 0 or v < 0:
            raise EdgeListParseError(f"line {line_no}: negative vertex id in {line!r}")
        if u > MAX_VERTEX_ID or v > MAX_VERTEX_ID:
            raise EdgeListParseError(f"line {line_no}: vertex id exceeds {MAX_VERTEX_ID}")
        srcs.append(u)
        dsts.append(v)
    return np.array(srcs, np.int64), np.array(dsts, np.int64)


def csr_slices(offsets, rows):
    """(positions, counts, at): the rows' CSR slice positions concatenated in
    row order, each slice's length, and where it starts among the positions."""
    starts = offsets[rows]
    counts = offsets[rows + 1] - starts
    at = np.cumsum(counts) - counts
    return np.arange(int(counts.sum())) + np.repeat(starts - at, counts), counts, at


def set_bits(words):
    """(index, bit) of every set bit of a uint64 array, by index, then bit: its
    little-endian bytes unpacked little bit first, scanned as bool."""
    bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), bitorder="little")
    at = np.flatnonzero(bits.view(bool))
    return at >> 6, at & 63


# Roots per bit_levels pass: one bit of a uint64 word each.  hub2.build and
# network.discover run one pass per block of this many hubs.
BIT_BLOCK = 64

# bit_levels' step choice, set by a sweep (README "Index build").  A word set
# whose nonzero rows have at most PUSH_SHARE * m out-edges is pushed over them;
# any other is pulled, over the in-slices of the rows that can still change
# when those hold at most PULL_SHARE * m edges, else over every in-slice.
PUSH_SHARE = 0.2
PULL_SHARE = 0.3


def or_in(pull, push, words, changing):
    """Per vertex, the OR of words over its predecessors: exact where the bool
    mask changing is set, and either exact or 0 elsewhere.

    pull is (offsets, sources), each vertex's predecessors, and push the
    opposite view (offsets, targets), each vertex's successors; both list the
    same edges.  A push ORs each nonzero word into its row's successors; a
    pull reduces each vertex's predecessor slice, reading only the rows
    changing marks when their slices are few (direction-optimizing BFS,
    Beamer et al., SC 2012).
    """
    (in_offsets, sources), (out_offsets, targets) = pull, push
    out = np.zeros(in_offsets.size - 1, np.uint64)
    lit = np.flatnonzero(words)
    if out_offsets[lit + 1].sum() - out_offsets[lit].sum() <= PUSH_SHARE * sources.size:
        pos, counts, _ = csr_slices(out_offsets, lit)
        np.bitwise_or.at(out, targets[pos], np.repeat(words[lit], counts))
        return out
    nonempty = in_offsets[1:] > in_offsets[:-1]
    rows = np.flatnonzero(changing & nonempty)
    if in_offsets[rows + 1].sum() - in_offsets[rows].sum() > PULL_SHARE * sources.size:
        rows = np.flatnonzero(nonempty)
        out[rows] = np.bitwise_or.reduceat(words[sources], in_offsets[rows])
    elif rows.size:
        pos, _, at = csr_slices(in_offsets, rows)
        out[rows] = np.bitwise_or.reduceat(words[sources[pos]], at)
    return out


def bit_levels(pull, push, hub_ids, roots, max_depth):
    """Bit-parallel BFS bounded at max_depth from up to BIT_BLOCK roots, root i on bit i.

    Yields (new, free) per depth 1, 2, ... while anything is reached: the
    level's first-reach and free words, one uint64 per vertex each.  pull
    and push are the walk's two adjacency views, (offsets, sources) listing
    each vertex's predecessors and (offsets, targets) its successors.  A
    vertex ORs the previous level's words over its predecessors (or_in): the
    front's only where some root has not reached it yet, the blocking words'
    only where it has new bits, and a word set with few out-edges is pushed
    instead.  Blocking bits are frontier bits at hubs or reached only
    through a blocking carrier, and a bit is free where no blocking carrier
    reaches: no hub lies strictly between root and vertex on any shortest
    path.  With no blocking bits, as at depth 1 or with no hub_ids, every
    new bit is free.
    """
    front = np.zeros(pull[0].size - 1, np.uint64)
    front[roots] = np.left_shift(np.uint64(1), np.arange(len(roots), dtype=np.uint64))
    seen, blocking = front.copy(), np.zeros_like(front)
    every = np.uint64((1 << len(roots)) - 1)
    for _ in range(max_depth):
        new = or_in(pull, push, front, seen != every) & ~seen
        if not new.any():
            return
        free = new & ~or_in(pull, push, blocking, new != 0) if blocking.any() else new
        seen |= new
        yield new, free
        front, blocking = new, new & ~free
        blocking[hub_ids] = new[hub_ids]


def bfs_tree(offsets, targets, source, max_depth, stop=None):
    """Level-synchronous BFS from source bounded at max_depth.

    Returns (level, expanded): int32 levels, -1 at unreached vertices, and
    the count of frontier vertices expanded.  While the loop runs an
    unreached vertex holds the int32 maximum, so each level is one
    min-scatter of depth over its frontier's out-targets: a target reached
    twice gets the same value twice.  The next frontier is the vertices
    whose level is depth, ascending.  The search ends after the level that
    labels stop.  No parents are kept; level_path reads a path back.
    """
    unreached = np.iinfo(np.int32).max
    level = np.full(offsets.size - 1, unreached, np.int32)
    level[source] = 0
    frontier = np.array([source], dtype=np.intp)
    expanded = 0
    for depth in range(1, max_depth + 1):
        if stop is not None and level[stop] != unreached:
            break
        expanded += int(frontier.size)
        dsts = targets[csr_slices(offsets, frontier)[0]].astype(np.intp)
        level[dsts] = np.minimum(level[dsts], depth)
        frontier = np.flatnonzero(level == depth)
        if frontier.size == 0:
            break
    level[level == unreached] = -1
    return level, expanded


def level_path(in_offsets, in_sources, level, v):
    """The shortest path from the BFS source to a reached vertex v, read back
    from bfs_tree's levels over the in-edges (in_offsets, in_sources).

    Each step goes from a vertex to its smallest-id in-neighbour one level
    up: the first match in its ascending in-slice.  Returns python ints,
    source first, level[v] + 1 of them.
    """
    path = [int(v)]
    for d in range(int(level[v]) - 1, -1, -1):
        preds = in_sources[in_offsets[v]:in_offsets[v + 1]]
        v = int(preds[np.argmax(level[preds] == d)])
        path.append(v)
    path.reverse()
    return path


def bounded_bfs(g: Graph, source, max_depth, reverse=False):
    """Exact BFS distances from source (or to source when reverse) within max_depth.

    Returns a dict vertex -> level.  On undirected graphs reverse is a no-op.
    """
    if not 0 <= source < g.n:
        raise ValueError(f"source {source} out of range [0, {g.n})")
    if max_depth < 0:
        raise ValueError("max_depth must be nonnegative")
    level = bfs_tree(*g.adjacency(reverse), source, max_depth)[0]
    reached = np.flatnonzero(level >= 0)
    return {int(v): int(level[v]) for v in reached}


def validate_path(g: Graph, path) -> bool:
    """True iff consecutive vertices are joined by an edge (direction respected)."""
    if path is None or len(path) == 0:
        return False
    if any(v < 0 or v >= g.n for v in path):
        return False
    return all(g.has_edge(u, v) for u, v in zip(path, path[1:]))


def induced_subgraph(g: Graph, member_mask) -> Graph:
    """Subgraph induced by the masked vertex set, keeping original vertex ids."""
    row = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.out_offsets))
    keep = member_mask[row] & member_mask[g.out_targets]
    return Graph.from_edges(g.n, row[keep], g.out_targets[keep].astype(np.int64),
                            directed=g.directed)
