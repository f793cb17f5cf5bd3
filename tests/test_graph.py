import importlib.util
import io
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hubpath.graph as graph
from hubpath import (
    EdgeListParseError,
    Graph,
    bounded_bfs,
    gen_synthetic,
    induced_subgraph,
    load_edge_list,
    validate_path,
)

from hubpath.graph import MAX_VERTEX_ID, bfs_tree, level_path

from conftest import ba_graph, cyclic_digraph, er_graph
from oracles import adjacency_from_graph, bfs_dist


def test_load_comments_and_undirected_halves():
    g = load_edge_list(b"# c\n0 1\n1 2\n")
    assert g.n == 3
    assert g.m == 4  # both directions stored
    assert list(g.neighbors(1)) == [0, 2]


def test_load_dedup():
    g = load_edge_list(b"0 1\n0 1\n1 0\n")
    assert g.m == 2
    assert list(g.neighbors(0)) == [1]
    assert list(g.neighbors(1)) == [0]


def test_load_directed_orientation():
    g = load_edge_list(b"0 1\n1 2\n2 0\n", directed=True)
    assert list(g.neighbors(2)) == [0]
    assert list(g.neighbors(2, reverse=True)) == [1]


def test_load_drops_self_loops_and_gaps_are_isolated():
    g = load_edge_list(b"0 0\n0 5\n")
    assert g.n == 6
    assert g.m == 2
    assert list(g.neighbors(3)) == []


def test_load_extra_tokens_ignored():
    g = load_edge_list(b"0 1 1297\n1 2 treated-as-metadata\n")
    assert g.n == 3 and g.m == 4


@pytest.mark.parametrize("payload,fragment", [
    (b"0\n", "line 1"),
    (b"0 1\nx 2\n", "line 2"),
    (b"0 -1\n", "line 1"),
    (b"", "empty"),
    (b"# only comments\n", "empty"),
    (b"3 3\n", "empty"),
])
def test_load_errors_carry_line_numbers(payload, fragment):
    with pytest.raises(EdgeListParseError, match=fragment):
        load_edge_list(payload)


@pytest.mark.parametrize("payload", [b"0 1\n\xc3\xa9 2\n", b"0 1\n# caf\xc3\xa9\n",
                                     b"0 1\n2 3 m\xe9ta\n"])
def test_load_non_ascii_bytes_name_the_line(payload):
    with pytest.raises(EdgeListParseError, match="line 2: non-ASCII byte"):
        load_edge_list(payload)
    with pytest.raises(EdgeListParseError, match="line 2: non-ASCII byte"):
        load_edge_list(io.BytesIO(payload))


def _outcome(fn):
    try:
        return fn(), None
    except Exception as exc:  # noqa: BLE001 -- the outcome is compared, not handled
        return None, (type(exc), str(exc))


def _line_loop_only():
    return mock.patch.object(graph, "_parse_buffer", return_value=None)


_IDS = st.one_of(
    st.integers(0, 40).map(str),
    st.integers(0, 40).map(str),
    st.text("0123456789", min_size=1, max_size=12),
    st.integers(MAX_VERTEX_ID - 2, MAX_VERTEX_ID + 2).map(str),
)
_BLANKS = st.text(" \t", min_size=1, max_size=3)
_ODD = st.sampled_from(["\r", "\x0b", "\x0c", "\x1c", "\x1f", "+", "-", "_", "#", "a",
                        "Z", "\u00e9", "\uff11"])
_LINE = st.one_of(
    st.tuples(st.text(" \t", max_size=2), _IDS, _BLANKS, _IDS,
              st.sampled_from(["", " 7", "\tx", " #"]), st.text(" \t", max_size=2)).map("".join),
    st.sampled_from(["# comment", "", " \t"]),
    st.lists(_IDS | _BLANKS | _ODD, max_size=5).map("".join),
)
_EDGE_TEXT = st.lists(
    st.tuples(_LINE, st.sampled_from(["\n"] * 8 + ["\r\n"] * 3 + ["\r", "\x0b", "\x0c", "\x1c"])),
    max_size=12,
).map(lambda lines: "".join(line + end for line, end in lines))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_EDGE_TEXT, st.booleans(), st.booleans())
def test_vector_parse_matches_line_loop(text, as_bytes, directed):
    data = text.encode("utf-8") if as_bytes else text
    got, got_err = _outcome(lambda: graph._parse_edges(data))
    want, want_err = _outcome(lambda: graph._parse_lines(data))
    assert got_err == want_err
    if as_bytes and want_err is not None:
        assert want_err[0] is EdgeListParseError
    if want_err is not None:
        return
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)
    if want[0].size and max(want[0].max(), want[1].max()) >= 10**4:
        return  # a graph over ids near MAX_VERTEX_ID allocates O(max id)
    g, g_err = _outcome(lambda: load_edge_list(data, directed=directed))
    with _line_loop_only():
        h, h_err = _outcome(lambda: load_edge_list(data, directed=directed))
    assert g_err == h_err
    if h_err is None:
        assert g == h and g.checksum == h.checksum
        for a, b in zip(g.adjacency(reverse=True), h.adjacency(reverse=True)):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_canonical_edge_list_takes_the_vector_path(monkeypatch):
    def no_loop(data):
        raise AssertionError("line loop reached")

    monkeypatch.setattr(graph, "_parse_lines", no_loop)
    text = ("# Directed graph (each unordered pair of nodes is saved once)\r\n"
            "# FromNodeId\tToNodeId\r\n"
            "0\t1\t1297\r\n1\t2\tmetadata\r\n  2   0 \r\n\r\n4967\t0\tx")
    for source in (text.encode("ascii"), text, io.BytesIO(text.encode("ascii")),
                   io.StringIO(text)):
        g = load_edge_list(source, directed=True)
        assert g.n == 4968 and g.m == 4
        assert list(g.neighbors(0)) == [1] and list(g.neighbors(0, reverse=True)) == [2, 4967]


@pytest.mark.parametrize("data", [
    b"0 1\n# c\r1 2\n", b"0 1 # a\r2 3\n",  # a lone CR
    b"1 2#x\n",  # '#' inside a token
    b"1\x0b2\n", b"1 2\x1c3 4\n",  # blanks to loadtxt, line breaks to the loop
    b"-5 2\n", b"4294967295 1\n",  # ids out of range
    b"1.0 2\n", b"1_0 2\n", b"+5 2\n", b"", b"# only\n",
])
def test_parse_guards_keep_the_line_loop_outcome(data):
    got, got_err = _outcome(lambda: graph._parse_edges(data))
    want, want_err = _outcome(lambda: graph._parse_lines(data))
    assert got_err == want_err
    if want_err is None:
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)


@pytest.mark.parametrize("text", [
    "\u0661 \u0662\n", "\uff11 \uff12\n",  # digits int() reads
    "1\u00a02\n", "0 1\n2\u20283\n",  # a blank str.split() and a break str.splitlines() reads
    "0 1\n# caf\u00e9\n",  # a non-ASCII comment
    "\ud800 1\n", "0 1\n2 \udcff\n",  # lone surrogates, which no codec but surrogatepass encodes
])
def test_str_reads_as_its_utf8_bytes(text):
    data = text.encode("utf-8", "surrogatepass")
    with pytest.raises(EdgeListParseError, match="non-ASCII byte") as from_bytes:
        load_edge_list(data)
    with pytest.raises(EdgeListParseError) as from_str:
        load_edge_list(text)
    assert str(from_str.value) == str(from_bytes.value)
    with pytest.raises(EdgeListParseError, match="non-ASCII byte"):
        load_edge_list(io.StringIO(text))


def test_line_loop_takes_only_plain_integer_tokens():
    # int() reads Python's digit grouping; np.loadtxt and the format do not
    for data, line in [(b"1_0 2\n", 1), (b"0 1\n2 3_4\n", 2), (b"0 1\n--5 2\n", 2),
                       (b"0 1\n1 " + b"9" * 5000 + b"\n", 2)]:
        with pytest.raises(EdgeListParseError, match=f"line {line}: malformed integer token"):
            load_edge_list(data)
        with pytest.raises(EdgeListParseError, match=f"line {line}: malformed integer token"):
            graph._parse_lines(data)
    src, dst = graph._parse_lines(b"+5 2\n-0 +0012\n")
    assert src.tolist() == [5, 0] and dst.tolist() == [2, 12]
    g = load_edge_list(b"+5 2\n")
    assert g.n == 6 and list(g.neighbors(5)) == [2]


def test_benchmark_texts_take_the_loadtxt_path():
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py")
    inputs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclass
    spec.loader.exec_module(inputs)
    texts = [inputs.make_graph_bytes(spec, 21) for spec in inputs.WORKLOADS.values()]
    texts += [gen_synthetic("ba", 20000, 5, seed=1), gen_synthetic("er", 2000, 8, seed=4)]
    for data in texts:
        assert graph._parse_buffer(data) is not None


def _load_peak(data):
    tracemalloc.start()
    try:
        load_edge_list(data)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_vector_parse_peak_memory_at_most_the_line_loop():
    data = gen_synthetic("ba", 20000, 5, seed=1)
    vector = _load_peak(data)
    with _line_loop_only():
        loop = _load_peak(data)
    assert vector <= loop


def test_load_deterministic_bytes():
    data = gen_synthetic("er", 200, 6, seed=3)
    g1 = load_edge_list(data)
    g2 = load_edge_list(data)
    assert np.array_equal(g1.out_offsets, g2.out_offsets)
    assert np.array_equal(g1.out_targets, g2.out_targets)
    assert g1.checksum == g2.checksum


def test_slices_sorted_ascending():
    g = er_graph(150, 8, seed=5)
    for v in range(g.n):
        nb = g.neighbors(v)
        assert np.all(np.diff(nb.astype(np.int64)) > 0)


def test_undirected_adjacency_symmetric():
    g = er_graph(120, 6, seed=9)
    pairs = {(int(u), int(v)) for u in range(g.n) for v in g.neighbors(u)}
    assert all((v, u) in pairs for u, v in pairs)


def test_bounded_bfs_on_chain(chain4):
    assert bounded_bfs(chain4, 0, 2) == {0: 0, 1: 1, 2: 2}


def test_bounded_bfs_zero_radius(chain4):
    assert bounded_bfs(chain4, 2, 0) == {2: 0}


def test_bounded_bfs_reverse_directed():
    g = load_edge_list(b"0 1\n1 2\n", directed=True)
    assert bounded_bfs(g, 2, 2, reverse=True) == {2: 0, 1: 1, 0: 2}
    assert bounded_bfs(g, 2, 2) == {2: 0}


def test_bounded_bfs_matches_plain_queue_oracle():
    for seed in (1, 2):
        g = er_graph(180, 7, seed=seed)
        adj = adjacency_from_graph(g)
        for source in (0, 17, 91):
            assert bounded_bfs(g, source, 4) == bfs_dist(adj, source, 4)


def test_bfs_symmetry_undirected():
    g = ba_graph(150, 3, seed=4)
    full = [bounded_bfs(g, v, g.n) for v in range(g.n)]
    for u in (0, 30, 77):
        for v in (5, 60, 149):
            assert full[u].get(v) == full[v].get(u)


def test_directed_forward_reverse_duality():
    g = er_graph(120, 5, seed=11, directed=True)
    for u in (3, 40):
        fwd = bounded_bfs(g, u, g.n)
        for v, d in fwd.items():
            rev = bounded_bfs(g, v, d, reverse=True)
            assert rev.get(u) == d


def test_bounded_bfs_validates_source(chain4):
    with pytest.raises(ValueError):
        bounded_bfs(chain4, 9, 2)


@st.composite
def _bfs_cases(draw):
    """A small seeded random graph, a source, a depth bound and maybe a stop vertex."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ends = rng.integers(0, n, size=(2, draw(st.integers(0, 3 * n))))
    g = Graph.from_edges(n, ends[0], ends[1], directed=draw(st.booleans()))
    stop = draw(st.none() | st.integers(0, n - 1))
    return g, draw(st.integers(0, n - 1)), draw(st.integers(0, 6)), stop


def check_bfs_tree(g, source, max_depth, stop=None):
    """bfs_tree against a plain queue BFS: levels and expanded; and for every
    reached vertex, level_path's path: it starts at source, has level + 1
    vertices and its last step comes from the smallest in-neighbour one
    level up, which only the source and unreached vertices lack.  Every step
    of every path is some vertex's last step, so each is checked.  Returns the most in-neighbours one level up that any
    vertex has, the candidates that step is picked from."""
    level, expanded = bfs_tree(*g.adjacency(), source, max_depth, stop=stop)
    truth = bfs_dist(adjacency_from_graph(g), source, max_depth)
    last = max_depth
    if stop is not None and stop in truth:
        last = truth[stop]
        truth = {v: d for v, d in truth.items() if d <= last}
    assert {v: int(level[v]) for v in np.flatnonzero(level >= 0).tolist()} == truth
    into = adjacency_from_graph(g, reverse=True)
    most = 0
    for v in range(g.n):
        up = [u for u in into[v] if level[v] > 0 and level[u] == level[v] - 1]
        if not up:
            assert level[v] <= 0
            continue
        path = level_path(*g.adjacency(True), level, v)
        assert path[0] == source and len(path) == level[v] + 1
        assert path[-2] == min(up)
        most = max(most, len(up))
    assert expanded == sum(1 for d in truth.values() if d < last)
    return most


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_bfs_cases())
def test_bfs_tree_levels_parents_and_stop(case):
    check_bfs_tree(*case)


@pytest.mark.parametrize("cyclic", [False, True], ids=["ba", "ba-cyclic"])
def test_bfs_tree_parents_at_scale(cyclic):
    # levels of up to 2593 fresh edges; up to 19 (ba) and 8 (ba-cyclic) of
    # them lead into one vertex, whose path steps back to the smallest source
    g = cyclic_digraph("ba", 2000, 3, 17) if cyclic else ba_graph(2000, 3, 17)
    most = [check_bfs_tree(g, source, 6) for source in (0, 1, 700, 1400, 1999)]
    assert max(most) >= 8


def _random_words():
    """200 seeded words, the last 100 masked down to about 4 set bits each."""
    rng = np.random.default_rng(11)
    words = rng.integers(0, 2**64 - 1, 200, np.uint64, endpoint=True)
    for _ in range(4):
        words[100:] &= rng.integers(0, 2**64 - 1, 100, np.uint64, endpoint=True)
    return words


_EDGE_WORDS = np.array([0, 1, 1 << 63, 2**64 - 1, (1 << 63) | 1], np.uint64)


@pytest.mark.parametrize("words", [
    _EDGE_WORDS, np.empty(0, np.uint64), _EDGE_WORDS.astype(">u8"), _random_words()],
    ids=["edge-words", "empty", "big-endian", "random"])
def test_set_bits_matches_bit_loop(words):
    index, bit = graph.set_bits(words)
    want = [(i, b) for i, w in enumerate(words.tolist()) for b in range(64) if w >> b & 1]
    assert list(zip(index.tolist(), bit.tolist())) == want


def test_validate_path_cases(chain4):
    assert validate_path(chain4, [0, 1, 2])
    assert not validate_path(chain4, [0, 2])
    big = load_edge_list(b"0 1\n5 6\n")
    assert validate_path(big, [5])
    assert not validate_path(chain4, [])
    assert not validate_path(chain4, [0, 7])


def test_validate_path_respects_direction():
    g = load_edge_list(b"0 1\n1 2\n", directed=True)
    assert validate_path(g, [0, 1, 2])
    assert not validate_path(g, [2, 1, 0])


def test_induced_subgraph_keeps_ids(chain4):
    mask = np.array([True, True, True, False])
    sub = induced_subgraph(chain4, mask)
    assert sub.n == chain4.n
    assert list(sub.neighbors(1)) == [0, 2]
    assert list(sub.neighbors(3)) == []


def test_from_edges_equality_and_checksum_changes():
    g1 = Graph.from_edges(4, [0, 1], [1, 2], directed=False)
    g2 = Graph.from_edges(4, [1, 0], [2, 1], directed=False)
    assert g1 == g2 and g1.checksum == g2.checksum
    g3 = Graph.from_edges(4, [0, 1], [1, 3], directed=False)
    assert g1 != g3 and g1.checksum != g3.checksum


@pytest.mark.parametrize("sources, targets, bad", [
    ([0, 1], [5, 2], 5),
    ([0, 3], [1, 2], 3),
    (np.array([0, -1], np.int64), np.array([1, 2], np.int64), -1),
    ([0, 1], np.array([1, -2], np.int64), -2),
], ids=["target-too-big", "source-equals-n", "negative-source", "negative-target"])
@pytest.mark.parametrize("directed", [False, True])
def test_from_edges_rejects_ids_outside_n(sources, targets, bad, directed):
    # row * n + col would fold edge 0-5 of a 3-vertex graph into edge 1-2
    with pytest.raises(ValueError, match=rf"vertex id {bad} outside \[0, 3\)"):
        Graph.from_edges(3, sources, targets, directed=directed)
    ok = Graph.from_edges(3, [0, 1], [1, 2], directed=directed)
    assert ok.out_offsets.size == 4 and ok.out_targets.max() == 2


@pytest.mark.parametrize("sources, targets, bad", [
    ([0.5, 1.9], [1.2, 2.0], "0.5"),
    ([0, 1], [2.0, 1.5], "1.5"),
    (np.array([0, np.nan]), [1, 2], "nan"),
    ([0, 1], np.array([np.inf, 2]), "inf"),
    ([0, 1], np.array([-np.inf, 2]), "-inf"),
], ids=["fractions", "one-fraction", "nan", "inf", "minus-inf"])
def test_from_edges_rejects_ids_that_are_not_integers(sources, targets, bad):
    # a cast would truncate 0.5 and 1.9 to an edge 0-1 no input named
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"vertex id {bad} is not an integer"):
            Graph.from_edges(3, sources, targets)
        whole = Graph.from_edges(3, [0.0, 1.0], np.array([1.0, 2.0]))
    assert whole.out_targets.tolist() == [1, 0, 2, 1]


# (PUSH_SHARE, PULL_SHARE) that force every or_in call through one step: a
# push when the pushed rows' out-edges are at most PUSH_SHARE * m, else a
# pull over the changing rows when their in-edges are at most PULL_SHARE * m,
# else a pull over every row
_STEPS = {"push": (1.0, -1.0), "restricted-pull": (-1.0, 1.0), "full-pull": (-1.0, -1.0)}


def _bit_levels_cases():
    """(name, graph, hub ids, roots): undirected and cyclic directed graphs,
    one whose arcs all run one way along the ids (empty in-slices in either
    direction) and a path with isolated vertices, each with 100 seeded
    random hubs; roots are the first block of 64 hubs, the last block of 36,
    or the first block with no hubs, as _hub_distances passes them.  Last, a
    star whose centre 0 is one step from roots 1-63 and three from root 64,
    so it misses only the block's top bit for two levels."""
    src = np.arange(199)
    graphs = {"er": er_graph(600, 6, 5), "ba-cyclic": cyclic_digraph("ba", 600, 3, 5),
              "ba-one-way": ba_graph(400, 3, 5, directed=True),
              "path-isolated": Graph.from_edges(260, src, src + 1)}
    cases = []
    for name, g in graphs.items():
        hub_ids = np.sort(np.random.default_rng(7).choice(g.n, 100, replace=False))
        cases += [(f"{name}-first-block", g, hub_ids, hub_ids[:64]),
                  (f"{name}-last-block", g, hub_ids, hub_ids[64:]),
                  (f"{name}-no-hubs", g, hub_ids[:0], hub_ids[:64])]
    star = Graph.from_edges(67, [0] * 63 + [64, 65, 66], [*range(1, 64), 65, 66, 0])
    roots = np.arange(1, 65)
    return cases + [("star-tail", star, roots, roots),
                    ("star-tail-no-hubs", star, roots[:0], roots)]


_BIT_LEVELS_CASES = _bit_levels_cases()


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
@pytest.mark.parametrize("name, g, hub_ids, roots", _BIT_LEVELS_CASES,
                         ids=[case[0] for case in _BIT_LEVELS_CASES])
def test_bit_levels_steps_yield_the_same_words(monkeypatch, name, g, hub_ids, roots, reverse):
    # each forcing is checked to take its step: a push gathers the push
    # view's slices, a restricted pull the pull view's, a full pull none
    pull, push = g.adjacency(not reverse), g.adjacency(reverse)
    gathered = []
    real_slices = graph.csr_slices

    def slices(offsets, rows):
        gathered.append(offsets)
        return real_slices(offsets, rows)
    monkeypatch.setattr(graph, "csr_slices", slices)
    words = {}
    for step, (push_share, pull_share) in _STEPS.items():
        monkeypatch.setattr(graph, "PUSH_SHARE", push_share)
        monkeypatch.setattr(graph, "PULL_SHARE", pull_share)
        gathered.clear()
        words[step] = [(new.copy(), free.copy())
                       for new, free in graph.bit_levels(pull, push, hub_ids, roots, 6)]
        view = {"push": push[0], "restricted-pull": pull[0]}.get(step)
        assert all(offsets is view for offsets in gathered), step
        assert bool(gathered) == (view is not None), step
    want = words.pop("full-pull")
    assert len(want) >= 2
    for step, got in words.items():
        assert len(got) == len(want), step
        for d, ((new, free), (new_want, free_want)) in enumerate(zip(got, want), 1):
            assert np.array_equal(new, new_want), (step, d)
            assert np.array_equal(free, free_want), (step, d)
