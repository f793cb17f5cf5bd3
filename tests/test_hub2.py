import dataclasses
import hashlib
import io
import json
import tracemalloc

import numpy as np
import pytest

import hubpath.hub2 as hub2
from hubpath import (
    INF,
    Graph,
    HubSet,
    IndexFormatError,
    IndexIntegrityError,
    build_index,
    core_hubs_oracle,
    deserialize,
    discover,
    gen_synthetic,
    hl_query,
    index_stats,
    load_edge_list,
    select_hubs,
    serialize,
    validate_path,
)
from hubpath.engines import (
    _expand_matrix_path,
    _walk,
    check_result,
    estimate,
    estimate_full_join,
)
from hubpath.graph import digest64, offsets_from_counts

from conftest import ba_graph, cyclic_digraph, er_graph
from oracles import adjacency_from_graph, all_pairs_dist, core_hub_set, label_bfs


def hubset(g, ids):
    return HubSet.from_ids(g.n, ids)


def label_sets(idx, side="out"):
    """Per-vertex {(hub id, dist)} sets as built, self entries for hubs."""
    table = idx.labels_out if side == "out" else idx.labels_in
    ids = idx.hubs.ids
    out = []
    for v in range(idx.n):
        if idx.hubs.is_hub[v]:
            out.append({(int(v), 0)})
            continue
        ranks, dists = table.vertex_slice(v)
        out.append({(int(ids[r]), int(d)) for r, d in zip(ranks, dists)})
    return out


# ---------------------------------------------------------------- fixtures

def chain4_index(chain4):
    hubs = hubset(chain4, [1, 2])
    return build_index(chain4, hubs, 4)


def test_chain_matrix_and_labels(chain4):
    idx = chain4_index(chain4)
    assert idx.matrix.dist[0, 1] == 1
    assert _expand_matrix_path(idx, chain4, 0, 1) == [1, 2]
    sets = label_sets(idx)
    assert sets[0] == {(1, 1)}   # hub 2 is blocked: d(0,2) = d(0,1) + d(1,2)
    assert sets[3] == {(2, 1)}


def test_five_chain_via_witness():
    # 0-1-2-3-4 with hubs 0, 2, 4: the far pair decomposes through the middle
    g = Graph.from_edges(5, [0, 1, 2, 3], [1, 2, 3, 4], directed=False)
    idx = build_index(g, hubset(g, [0, 2, 4]), 4)
    assert idx.matrix.dist[0, 2] == 4
    assert _expand_matrix_path(idx, g, 0, 2) == [0, 1, 2, 3, 4]
    assert idx.matrix.dist[0, 1] == 2 and idx.matrix.dist[1, 2] == 2


def test_star_single_hub(star6):
    idx = build_index(star6, hubset(star6, [0]), 6)
    assert idx.matrix.dist.shape == (1, 1)
    assert idx.matrix.dist[0, 0] == 0
    sets = label_sets(idx)
    for leaf in range(1, 6):
        assert sets[leaf] == {(0, 1)}
        assert _walk(idx, star6, leaf, 0, 1, incoming=True) == [leaf, 0]


def test_square_tie_breaks_through_smaller_id():
    # 4-cycle 0-1-2-3 with hubs 0 and 2: two shortest routes, path via 1 wins
    g = Graph.from_edges(4, [0, 1, 2, 3], [1, 2, 3, 0], directed=False)
    idx = build_index(g, hubset(g, [0, 2]), 2)
    assert idx.matrix.dist[0, 1] == 2
    assert _expand_matrix_path(idx, g, 0, 1) == [0, 1, 2]


def test_three_chain_label_and_next_hop():
    g = Graph.from_edges(3, [0, 1], [1, 2], directed=False)
    idx = build_index(g, hubset(g, [0, 2]), 4)
    ranks, dists = idx.labels_in.vertex_slice(1)
    assert ranks.tolist() == [0, 1] and dists.tolist() == [1, 1]
    # each distance-1 label of vertex 1 steps straight to its hub
    assert [_walk(idx, g, 1, r, 1, incoming=True) for r in (0, 1)] == [[1, 0], [1, 2]]
    assert _expand_matrix_path(idx, g, 0, 1) == [0, 1, 2]


def test_triangle_single_hub_row():
    g = Graph.from_edges(3, [0, 0, 1], [1, 2, 2], directed=False)
    idx = build_index(g, hubset(g, [0]), 2)
    assert idx.matrix.dist[0].tolist() == [0]
    labeled = np.repeat(np.arange(g.n), idx.labels_in.counts()).tolist()
    assert sorted(labeled) == [1, 2]
    assert all(d == 1 for d in idx.labels_in.dist)


def test_build_rejects_empty_hubs_and_bad_k(chain4):
    with pytest.raises(ValueError):
        build_index(chain4, hubset(chain4, []), 4)
    with pytest.raises(ValueError):
        build_index(chain4, hubset(chain4, [1]), 0)
    with pytest.raises(ValueError):
        build_index(chain4, hubset(chain4, [1]), 255)
    # ranks are stored as u2, so 65536 hubs are refused before the 4 GiB
    # matrix is allocated
    n = hub2.MAX_HUBS + 1
    isolated = Graph.from_edges(n, [], [], directed=False)
    with pytest.raises(ValueError, match="caps hubs at 65535"):
        build_index(isolated, HubSet(n, np.arange(n)), 4)


# ------------------------------------------------------------ oracle checks

def test_core_hubs_oracle_trivials(chain4):
    hubs = hubset(chain4, [1, 2])
    assert core_hubs_oracle(chain4, hubs, 4, 0) == {(1, 1)}
    assert core_hubs_oracle(chain4, hubs, 4, 1) == {(1, 0)}
    far = Graph.from_edges(6, [0, 1, 2, 3, 4], [1, 2, 3, 4, 5], directed=False)
    assert core_hubs_oracle(far, hubset(far, [5]), 2, 0) == set()


def test_labels_equal_definition_oracle_undirected():
    for seed in (1, 2, 3):
        g = er_graph(160, 6, seed=seed)
        hubs = select_hubs(g, 8)
        idx = build_index(g, hubs, 4)
        sets = label_sets(idx)
        for v in range(g.n):
            assert sets[v] == core_hubs_oracle(g, hubs, 4, v), f"vertex {v} seed {seed}"


def test_labels_equal_definition_oracle_directed():
    g = er_graph(140, 6, seed=4, directed=True)
    hubs = select_hubs(g, 8)
    idx = build_index(g, hubs, 4)
    out_sets = label_sets(idx, "out")
    in_sets = label_sets(idx, "in")
    rows = all_pairs_dist(adjacency_from_graph(g), 4)
    hub_ids = set(int(h) for h in hubs.ids)
    for v in range(g.n):
        # built labels, the library's definition oracle, and the independent
        # queue-BFS oracle must all agree, on both sides
        assert out_sets[v] == core_hubs_oracle(g, hubs, 4, v, side="out")
        assert out_sets[v] == core_hub_set(rows, v, hub_ids, 4)
        assert in_sets[v] == core_hubs_oracle(g, hubs, 4, v, side="in")
        assert in_sets[v] == core_hub_set(rows, v, hub_ids, 4, incoming=True)


def test_matrix_distances_exact():
    g = ba_graph(200, 3, seed=5)
    k = 4
    hubs = select_hubs(g, 10)
    idx = build_index(g, hubs, k)
    rows = all_pairs_dist(adjacency_from_graph(g))
    for i, u in enumerate(hubs.ids):
        for j, v in enumerate(hubs.ids):
            true = rows[int(u)].get(int(v))
            got = int(idx.matrix.dist[i, j])
            if true is not None and true <= k:
                assert got == true
            else:
                assert got == INF


def test_witness_soundness():
    # every finite hub pair's path comes from the matrix and the hubs'
    # incoming labels, and each such label (w, d) of hub j has d = dist[w, j]
    for g in (ba_graph(220, 3, seed=9), er_graph(140, 6, seed=4, directed=True)):
        hubs = select_hubs(g, 12)
        idx = build_index(g, hubs, 5)
        m = idx.matrix
        for j, h in enumerate(hubs.ids):
            ranks, dists = idx.labels_in.vertex_slice(h)
            assert np.array_equal(m.dist[ranks, j], dists)
        split = 0
        for i, j in np.argwhere(m.dist != INF).tolist():
            path = _expand_matrix_path(idx, g, i, j)
            assert len(path) == int(m.dist[i, j]) + 1
            assert path[0] == hubs.ids[i] and path[-1] == hubs.ids[j]
            assert validate_path(g, path)
            split += any(hubs.is_hub[v] for v in path[1:-1])
        assert split > 0, g.directed


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_walks_follow_the_reference_parents(directed):
    # every entry (v, h, d) of both tables: the walk's first hop is the
    # smallest-id BFS parent the per-hub reference traversal gives v, and the
    # walk is a path of d edges from v to h
    g = er_graph(200, 7, seed=6, directed=directed)
    k = 4
    hubs = select_hubs(g, 10)
    idx = build_index(g, hubs, k)
    tables = [(False, idx.labels_in)] + ([(True, idx.labels_out)] if directed else [])
    for reverse, table in tables:
        parent = {}
        for h in hubs.ids.tolist():
            _, levels = label_bfs(g, hubs, h, k, reverse=reverse)
            for vs, ds, rs, hops in zip(*levels):
                parent.update(((v, r, d), p) for v, d, r, p in zip(vs.tolist(), ds.tolist(),
                                                                   rs.tolist(), hops.tolist()))
        assert len(parent) == table.total
        for v in range(g.n):
            for r, d in zip(*(a.tolist() for a in table.vertex_slice(v))):
                walk = _walk(idx, g, v, r, d, incoming=not reverse)
                assert walk[1] == parent[(v, r, d)]
                assert len(walk) == d + 1 and walk[-1] == hubs.ids[r]
                assert validate_path(g, walk if reverse else walk[::-1])


def test_adjacent_hubs_always_labeled():
    # nothing can block a length-1 path
    g = er_graph(150, 6, seed=12)
    hubs = select_hubs(g, 10)
    idx = build_index(g, hubs, 4)
    sets = label_sets(idx)
    for v in range(g.n):
        if hubs.is_hub[v]:
            continue
        for u in g.neighbors(v):
            if hubs.is_hub[u]:
                assert (int(u), 1) in sets[v]


def test_index_stats_star(star6):
    idx = build_index(star6, hubset(star6, [0]), 6)
    stats = index_stats(idx)
    assert stats["avg_label_count"] == 1.0
    assert stats["max_label_count"] == 1
    assert stats["matrix_finite_fraction"] == 1.0


# ------------------------------------------------------------ serialization

def test_round_trip_identity(chain4):
    idx = chain4_index(chain4)
    blob = hub2.to_bytes(idx)
    back = hub2.from_bytes(blob)
    assert back == idx
    assert hub2.to_bytes(back) == blob


def test_serialize_deterministic():
    g = er_graph(150, 6, seed=2)
    hubs = select_hubs(g, 8)
    b1 = hub2.to_bytes(build_index(g, hubs, 4))
    b2 = hub2.to_bytes(build_index(g, hubs, 4))
    assert b1 == b2


def test_matrix_cells_are_the_read_only_distances():
    # estimate reads cells, everything else dist; neither may change alone
    g = er_graph(150, 6, seed=2)
    idx = build_index(g, select_hubs(g, 8), 4)
    for matrix in (idx.matrix, hub2.from_bytes(hub2.to_bytes(idx)).matrix):
        assert matrix.cells == matrix.dist.tobytes()
        assert not matrix.dist.flags.writeable


@pytest.mark.parametrize("kind, param, seed, directed, index_sha, discover_sha", [
    ("ba", 3, 13, False,
     "fb472276a231947220224c1f74093e5940ea1d5fb5a232f90142e7f03672b046",
     "a82c63d44d8e87284fe823c5ce3400738dd303e3b7a77c09d355b23a388cf1ee"),
    ("er", 5, 12, True,
     "6b7066288298ab87d30493ae0fe1bc6e5b3b9dd1d691719715ffabe2b1da364e",
     "80d3b49d35c5f706930155e2ec83cf99f564e9e30527f5b93a239fb975ee2c08"),
], ids=["ba-undirected", "er-directed"])
def test_pinned_index_and_network_output(kind, param, seed, directed, index_sha, discover_sha):
    """Index bytes and discovered network are pinned to fixed digests.

    The index bytes fix the format and the entry order, and the network the
    BFS parent tie rules (the paths pulled into H*); no other test fixes
    either across code versions.
    A deliberate change of the index format or of a tie rule updates these
    constants and says so in its change notes.
    """
    g = load_edge_list(gen_synthetic(kind, 600, param, seed), directed=directed)
    hubs = select_hubs(g, 24)
    assert hashlib.sha256(hub2.to_bytes(build_index(g, hubs, 5))).hexdigest() == index_sha
    net = discover(g, hubs, 5)
    blob = json.dumps([net.basic_pairs, net.added_per_pair, net.members.tolist()])
    assert hashlib.sha256(blob.encode()).hexdigest() == discover_sha


@pytest.mark.parametrize("beta, ba_sha, er_sha", [
    (63, "a4d2b0ec821170eb0ec464da6a6ad4f386c275f00042d27aac60d052254ae024",
     "cb065cc572ae9c87ae9998dd04222b83e15ba6f7ba6f1d65dd377c4c851bea07"),
    (64, "1a3ad5ad5127baf5c48a80583a92c30e11489a1b438df0eef56015afaea09989",
     "dffe6e71434f6da2da0745246e959383c7406d5b09aa447a0fd224ef39faf25f"),
    (65, "67294b97dab13492d82829a5efa747cd216b8ffda141f49a58f38eb87b10ac9f",
     "c18d669a3210947d9e0cdd7edd379730feae85d658223a512a714a74e264681b"),
    (130, "5dc4c513ae4fb1bcc5916bcf0ae4307e4f438003caebb3a2cd73a9f273c0780e",
     "52feecce36488f7e9067f4fcb9bb21ad7e5ee669f31e281b3ceeb2f7b0e9ec5b"),
], ids=["63", "64", "65", "130"])
def test_pinned_index_across_hub_blocks(beta, ba_sha, er_sha):
    """Index bytes at hub counts around the build's 64-hub blocks.

    The graphs are test_pinned_index_and_network_output's, and the digests
    come from the per-hub build that the block-wise one replaced
    (tests/oracles.build_reference).  The ids name beta alone, so that a
    deliberate format change updates the digests without renaming the test.
    """
    for kind, param, seed, directed, sha in [("ba", 3, 13, False, ba_sha),
                                             ("er", 5, 12, True, er_sha)]:
        g = load_edge_list(gen_synthetic(kind, 600, param, seed), directed=directed)
        blob = hub2.to_bytes(build_index(g, select_hubs(g, beta), 5))
        assert hashlib.sha256(blob).hexdigest() == sha, kind


def test_serialize_file_roundtrip(tmp_path, chain4):
    idx = chain4_index(chain4)
    path = tmp_path / "chain.hub2"
    serialize(idx, path)
    assert deserialize(path) == idx
    with open(path, "rb") as fh:
        assert deserialize(fh) == idx
    sink = io.BytesIO()
    serialize(idx, sink)
    assert deserialize(sink.getvalue()) == idx


def test_deserialize_takes_any_bytes_like():
    # bytearray and memoryview used to fall through to open() and raise
    # TypeError; the loaded index must not share memory with the caller's buffer
    g = er_graph(120, 5, seed=3, directed=True)
    idx = build_index(g, select_hubs(g, 6), 4)
    blob = hub2.to_bytes(idx)
    for source in (bytearray(blob), memoryview(blob), memoryview(bytearray(blob))):
        back = deserialize(source)
        assert back == idx and back.labels_out == idx.labels_out
        if not memoryview(source).readonly:
            source[:] = bytes(len(blob))
            assert back == idx
    flipped = bytearray(blob)
    flipped[len(blob) // 2] ^= 0x01
    with pytest.raises(IndexFormatError):
        deserialize(flipped)


def test_load_edge_list_takes_any_bytes_like():
    # bytearray and memoryview used to reach source.read() and raise
    # AttributeError; the graph must not share memory with the caller's buffer
    text = gen_synthetic("er", 120, 5, 3)
    want = load_edge_list(text, directed=True)
    for source in (bytearray(text), memoryview(text), memoryview(bytearray(text))):
        g = load_edge_list(source, directed=True)
        assert g.checksum == want.checksum and g.n == want.n and g.directed
        if not memoryview(source).readonly:
            source[:] = bytes(len(text))
            assert g.checksum == want.checksum
            assert np.array_equal(g.out_targets, want.out_targets)


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_entry_chunks_write_and_read_the_same_index(monkeypatch, chunk):
    # the writer packs and the reader checks the label entries ENTRY_CHUNK at
    # a time; no chunk size may change the bytes or what loads
    cases = []
    for g in (er_graph(150, 6, seed=2), cyclic_digraph("er", 150, 6, seed=2)):
        idx = build_index(g, select_hubs(g, 8), 4)
        cases.append((idx, hub2.to_bytes(idx)))
    monkeypatch.setattr(hub2, "ENTRY_CHUNK", chunk)
    for idx, blob in cases:
        assert hub2.to_bytes(idx) == blob
        back = hub2.from_bytes(blob)
        assert back == idx and back.labels_out == idx.labels_out


def crafted_order_index():
    """An index whose incoming (and only) table gives its vertices 3, 1, 2 and
    0 labels in turn, the first of (1, 0), (1, 2), (2, 1) as (dist, rank)
    each: ascending within each vertex, and equal or descending across each
    vertex boundary, at every position modulo small chunk sizes."""
    g = er_graph(40, 4, seed=1)
    idx = build_index(g, select_hubs(g, 3), 4)
    counts = np.resize([3, 1, 2, 0], g.n)
    keys = [key for count in counts for key in [(1, 0), (1, 2), (2, 1)][:count]]
    dist, rank = np.array(keys, np.uint8).T
    table = hub2.LabelTable(offsets_from_counts(counts), rank.astype(np.uint16), dist.copy())
    return dataclasses.replace(idx, labels_in=table, labels_out=table)


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_label_order_is_checked_across_entry_chunks(monkeypatch, chunk):
    # the order check compares ENTRY_CHUNK pairs at a time, each chunk starting
    # with the last entry of the one before: an equal or descending pair inside
    # a vertex is refused wherever it falls against the chunk boundaries, and
    # a key that falls across a vertex boundary loads
    idx = crafted_order_index()
    table = idx.labels_in
    blob = hub2.to_bytes(idx)
    edited = []
    for v in range(idx.n):
        for p in range(int(table.offsets[v]), int(table.offsets[v + 1]) - 1):
            for case in ("equal", "descending"):
                rank, dist = table.hub_rank.copy(), table.dist.copy()
                for arr in (rank, dist):
                    if case == "equal":
                        arr[p + 1] = arr[p]
                    else:
                        arr[p], arr[p + 1] = arr[p + 1], arr[p]
                bad = hub2.LabelTable(table.offsets, rank, dist)
                edited.append(hub2.to_bytes(dataclasses.replace(idx, labels_in=bad,
                                                               labels_out=bad)))
    assert len(edited) == 2 * 30
    for patch in (False, True):
        if patch:
            monkeypatch.setattr(hub2, "ENTRY_CHUNK", chunk)
        assert hub2.from_bytes(blob) == idx
        for data in edited:
            with pytest.raises(IndexFormatError, match="not sorted"):
                hub2.from_bytes(data)


def test_serialize_memory_is_the_file_and_one_chunk():
    # to_bytes holds the file (io.BytesIO grows it by up to an eighth), one
    # chunk of packed entries and each table's counts (int64, then u2); it
    # used to hold a packed copy of every entry and the joined file besides
    g = er_graph(20000, 10, seed=5)
    idx = build_index(g, select_hubs(g, 100), 6)
    tracemalloc.start()
    try:
        blob = hub2.to_bytes(idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(blob) > 4_000_000
    assert peak < len(blob) * 9 // 8 + 3 * hub2.ENTRY_CHUNK + 10 * g.n + 100_000


def test_deserialize_memory_is_the_columns_and_one_chunk():
    # from_bytes keeps the two label columns (3 bytes an entry), the offsets
    # and the hub set (13 bytes a vertex), and holds one chunk of order-check
    # keys (a few bytes an entry) besides; it used to hold 32-bit keys, their
    # order flags and a widened distance copy over every label at once
    g = er_graph(20000, 10, seed=5)
    blob = hub2.to_bytes(build_index(g, select_hubs(g, 100), 6))
    tracemalloc.start()
    try:
        idx = hub2.from_bytes(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = 3 * idx.labels_in.total
    assert columns > 4_000_000
    assert peak < columns + 13 * g.n + 16 * hub2.ENTRY_CHUNK + 100_000


def test_label_cap_refused_before_the_sink_is_written(tmp_path, chain4):
    # a vertex over 65535 labels cannot be written, and a path gets no file
    idx = chain4_index(chain4)
    counts = np.array([0, 0x10000, 0, 0])
    table = hub2.LabelTable(offsets_from_counts(counts), np.zeros(0x10000, np.uint16),
                            np.ones(0x10000, np.uint8))
    idx = dataclasses.replace(idx, labels_in=table, labels_out=table)
    path = tmp_path / "capped.hub2"
    with pytest.raises(IndexFormatError, match="vertex 1 has 65536 labels"):
        serialize(idx, path)
    assert not path.exists()
    sink = io.BytesIO()
    with pytest.raises(IndexFormatError, match="format caps at 65535"):
        serialize(idx, sink)
    assert sink.getvalue() == b""


def test_truncated_file_rejected(chain4):
    blob = hub2.to_bytes(chain4_index(chain4))
    for cut in (4, len(blob) // 2, len(blob) - 1):
        with pytest.raises(IndexFormatError):
            hub2.from_bytes(blob[:cut])


def test_every_flipped_byte_rejected_or_roundtrips(chain4):
    idx = chain4_index(chain4)
    blob = bytearray(hub2.to_bytes(idx))
    for pos in range(len(blob)):
        corrupted = bytearray(blob)
        corrupted[pos] ^= 0xFF
        with pytest.raises(IndexFormatError):
            hub2.from_bytes(bytes(corrupted))


def resealed_edits(body):
    """Every body byte's low bit or all its bits inverted, runs of 1, 3 (one
    label entry) and 4 bytes inserted or deleted at every body position, and
    the 3 bytes before every position copied over the 3 at it (one label
    entry onto the next), each with the trailer recomputed so that the digest
    cannot see it."""
    for pos in range(len(body)):
        for flip in (0x01, 0xFF):
            edited = bytearray(body)
            edited[pos] ^= flip
            yield edited
        for run in (1, 3, 4):
            yield body[:pos] + b"\x01" * run + body[pos:]
            yield body[:pos] + body[pos + run:]
        if 3 <= pos <= len(body) - 3:
            yield body[:pos] + body[pos - 3:pos] + body[pos + 3:]


def test_resealed_flips_load_or_fail_cleanly(chain4):
    # The reader must reject each resealed edit or load it, and queries on
    # what loads and still matches the graph must answer with a path that
    # certifies or report the corruption.
    small = er_graph(24, 3, seed=7, directed=True)
    five = Graph.from_edges(5, [0, 1, 2, 3], [1, 2, 3, 4], directed=False)
    cases = [(chain4, chain4_index(chain4)),
             (five, build_index(five, hubset(five, [0, 2, 4]), 4)),
             (small, build_index(small, select_hubs(small, 3), 3))]
    for g, idx in cases:
        for edited in resealed_edits(hub2.to_bytes(idx)[:-8]):
            edited += digest64(edited).to_bytes(8, "little")
            try:
                back = hub2.from_bytes(bytes(edited))
            except IndexFormatError:
                continue
            if not back.matches(g):
                continue
            for s in range(g.n):
                for t in range(g.n):
                    try:
                        res = hl_query(g, back, s, t)
                    except IndexIntegrityError:
                        continue
                    assert check_result(g, res, res.distance), (edited.hex(), s, t, res)


def test_unsorted_label_entries_rejected():
    # swap a vertex's first two label entries, or overwrite its second with
    # its first, and serialize again: only the reader's strict (vertex, dist,
    # rank) order check can see it
    g = er_graph(150, 6, seed=2)
    for case in ("swap", "duplicate"):
        idx = build_index(g, select_hubs(g, 8), 4)
        v = int(np.flatnonzero(idx.labels_in.counts() >= 2)[0])
        lo = int(idx.labels_in.offsets[v])
        for arr in (idx.labels_in.hub_rank, idx.labels_in.dist):
            if case == "swap":
                arr[lo], arr[lo + 1] = arr[lo + 1], arr[lo]
            else:
                arr[lo + 1] = arr[lo]
        with pytest.raises(IndexFormatError, match="not sorted"):
            hub2.from_bytes(hub2.to_bytes(idx))


def test_bad_magic_and_version(chain4):
    blob = bytearray(hub2.to_bytes(chain4_index(chain4)))
    with pytest.raises(IndexFormatError, match="checksum"):
        hub2.from_bytes(b"XXXX" + bytes(blob[4:]))


def test_directed_round_trip():
    g = er_graph(120, 5, seed=3, directed=True)
    idx = build_index(g, select_hubs(g, 6), 4)
    assert idx.directed
    back = hub2.from_bytes(hub2.to_bytes(idx))
    assert back == idx
    assert back.labels_out == idx.labels_out


def test_labels_are_the_stored_columns_read_in_place():
    # built and read tables hold the file's u16 ranks and u8 distances, and
    # labels() yields Python ints from them, for hubs and non-hubs alike
    g = er_graph(120, 5, seed=3, directed=True)
    built = build_index(g, select_hubs(g, 6), 4)
    for idx in (built, hub2.from_bytes(hub2.to_bytes(built))):
        for table in (idx.labels_in, idx.labels_out):
            assert table.hub_rank.dtype == np.uint16 and table.dist.dtype == np.uint8
        hub = int(idx.hubs.ids[2])
        v = int(np.flatnonzero((idx.labels_in.counts() > 0) & (idx.labels_out.counts() > 0)
                               & ~idx.hubs.is_hub)[0])
        for side, table in (("out", idx.labels_out), ("in", idx.labels_in)):
            assert idx.labels(hub, side) == ((2,), (0,))
            ranks, dists = idx.labels(v, side)
            assert ranks.obj is table.hub_rank and dists.obj is table.dist
            assert len(ranks) == len(dists) > 0
            for seq in (ranks, dists, *idx.labels(hub, side)):
                assert all(type(x) is int for x in seq)


def test_labels_refuse_an_unknown_side():
    # any side but "out" used to read the incoming labels
    g = er_graph(120, 5, seed=3, directed=True)
    idx = build_index(g, select_hubs(g, 6), 4)
    for v in (50, int(idx.hubs.ids[0])):
        for side in ("outgoing", "IN", None):
            with pytest.raises(ValueError, match="side must be 'out' or 'in'"):
                idx.labels(v, side)


def test_labels_refuse_a_vertex_out_of_range():
    # a negative id used to index is_hub and the offsets from the end: (-300, 5)
    # read hub 1's table slice and estimated 3, with no error
    g = load_edge_list(gen_synthetic("ba", 300, 2, 3))
    idx = build_index(g, select_hubs(g, 6), 4)
    assert estimate(idx, 0, 5).value is not None
    for v in (-300, -1, g.n):
        with pytest.raises(ValueError, match="out of range"):
            idx.labels(v, "out")
        for join in (estimate, estimate_full_join):
            for pair in ((v, 5), (5, v)):
                with pytest.raises(ValueError, match="out of range"):
                    join(idx, *pair)


def test_resealed_hub_ids_out_of_order_rejected():
    # HubSet decides which hub lists are valid, and from_bytes reports its
    # refusal; the ids start after magic, header, n, m, checksum and dim
    g = er_graph(150, 6, seed=2)
    idx = build_index(g, select_hubs(g, 8), 4)
    body = hub2.to_bytes(idx)[:-8]
    ids = idx.hubs.ids.tolist()
    for edited in ([ids[1], ids[0], *ids[2:]], [ids[0], *ids[:-1]], [*ids[:-1], g.n]):
        blob = body[:40] + np.array(edited, "<u4").tobytes() + body[40 + 4 * len(ids):]
        blob += digest64(blob).to_bytes(8, "little")
        with pytest.raises(IndexFormatError, match="hub id"):
            hub2.from_bytes(blob)
    blob = body + digest64(body).to_bytes(8, "little")
    assert hub2.from_bytes(blob) == idx


def test_index_matches_graph(chain4):
    idx = chain4_index(chain4)
    assert idx.matches(chain4)
    other = Graph.from_edges(4, [0, 1, 3], [1, 2, 0], directed=False)
    assert not idx.matches(other)
