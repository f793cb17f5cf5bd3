import json
import struct

import numpy as np
import pytest

from hubpath import cli, gen_synthetic
from hubpath.cli import main
from hubpath.graph import digest64


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def graph_file(tmp_path, capsys):
    path = tmp_path / "g.txt"
    code, _, _ = run(capsys, "gen", "--kind", "ba", "--n", "400", "--param", "3",
                     "--seed", "1", "--out", str(path))
    assert code == 0
    return path


def test_gen_deterministic_files(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run(capsys, "gen", "--kind", "ba", "--n", "500", "--param", "3",
               "--seed", "7", "--out", str(a))[0] == 0
    assert run(capsys, "gen", "--kind", "ba", "--n", "500", "--param", "3",
               "--seed", "7", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_stdout(capsys):
    code, out, _ = run(capsys, "gen", "--kind", "chain", "--n", "4")
    assert code == 0
    assert "0 1" in out and "2 3" in out


def test_build_writes_index_and_stats(tmp_path, graph_file, capsys):
    out = tmp_path / "g.hub2"
    code, stdout, _ = run(capsys, "build", "--graph", str(graph_file),
                          "--hubs", "10", "--k", "6", "--out", str(out))
    assert code == 0
    assert out.exists()
    header, row = stdout.strip().splitlines()
    assert header.split("\t")[0] == "hubs"
    assert row.split("\t")[0] == "10"
    stats = dict(zip(header.split("\t"), row.split("\t")))
    assert int(stats["bytes"]) == out.stat().st_size


def test_build_deterministic_bytes(tmp_path, graph_file, capsys):
    a, b = tmp_path / "a.hub2", tmp_path / "b.hub2"
    for out in (a, b):
        assert run(capsys, "build", "--graph", str(graph_file), "--hubs", "10",
                   "--k", "6", "--out", str(out))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_build_rejects_k0(tmp_path, graph_file, capsys):
    with pytest.raises(SystemExit):
        main(["build", "--graph", str(graph_file), "--hubs", "5",
              "--k", "0", "--out", str(tmp_path / "x.hub2")])


def test_query_engines_agree_via_cli(tmp_path, graph_file, capsys):
    idx = tmp_path / "g.hub2"
    run(capsys, "build", "--graph", str(graph_file), "--hubs", "10", "--k", "6",
        "--out", str(idx))
    outputs = {}
    for engine, extra in [("bfs", []), ("bibfs", []), ("hn", ["--hubs", "10"]),
                          ("hl", ["--index", str(idx)])]:
        code, out, _ = run(capsys, "query", "--graph", str(graph_file),
                           "--engine", engine, "--k", "6", *extra, "17", "201")
        assert code == 0
        assert out.startswith("dist=")
        outputs[engine] = out.split()[0]
    assert len(set(outputs.values())) == 1


@pytest.mark.parametrize("command", ["query", "bench"])
def test_hl_rejects_k_other_than_the_index(tmp_path, capsys, command):
    # on the 12-vertex chain d(0, 6) = 6: within the index's k = 8, beyond --k 3
    graph, idx = tmp_path / "chain.txt", tmp_path / "chain.hub2"
    run(capsys, "gen", "--kind", "chain", "--n", "12", "--out", str(graph))
    run(capsys, "build", "--graph", str(graph), "--hubs", "1", "--k", "8", "--out", str(idx))
    args = {"query": ["--engine", "hl", "0", "6"],
            "bench": ["--engines", "bibfs,hl", "--pairs", "20"]}[command]
    code, out, err = run(capsys, command, "--graph", str(graph), "--index", str(idx),
                         "--k", "3", *args)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "k=8" in err
    code, out, _ = run(capsys, command, "--graph", str(graph), "--index", str(idx),
                       "--k", "8", *args)
    assert code == 0
    if command == "query":
        assert out.startswith("dist=6 ")


def test_query_hn_takes_the_hubs_of_the_index(tmp_path, graph_file, capsys):
    # with --index the hubs are the index's, whatever --hubs says; on 3 hubs
    # this pair expands 55 vertices, on the index's 10 only 6
    idx = tmp_path / "g.hub2"
    run(capsys, "build", "--graph", str(graph_file), "--hubs", "10", "--k", "6",
        "--out", str(idx))
    outs = [run(capsys, "query", "--graph", str(graph_file), "--engine", "hn", "--k", "6",
                *extra, "5", "300")[1] for extra in (["--index", str(idx), "--hubs", "3"],
                                                     ["--hubs", "10"])]
    assert outs[0] == outs[1]
    assert "expanded=6 enqueued=36" in outs[0]


def test_query_reports_both_counters(graph_file, capsys):
    code, out, _ = run(capsys, "query", "--graph", str(graph_file), "--engine", "bibfs",
                       "--k", "6", "17", "201")
    assert code == 0
    fields = dict(f.split("=", 1) for f in out.split())
    assert set(fields) == {"dist", "path", "expanded", "enqueued"}
    assert 0 < int(fields["expanded"]) < int(fields["enqueued"])


def test_query_k_above_max_k_is_an_error(graph_file, capsys):
    code, out, err = run(capsys, "query", "--graph", str(graph_file), "--engine", "bibfs",
                         "--k", "255", "17", "201")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "MAX_K=254" in err and "Traceback" not in err


def test_query_hl_reports_the_answering_step(tmp_path, capsys):
    # on the 12-vertex chain the one hub is vertex 1, so d(0, 6) comes from the estimate
    graph, idx = tmp_path / "chain.txt", tmp_path / "chain.hub2"
    run(capsys, "gen", "--kind", "chain", "--n", "12", "--out", str(graph))
    run(capsys, "build", "--graph", str(graph), "--hubs", "1", "--k", "8", "--out", str(idx))
    for pair, branch in [(("0", "6"), "estimate"), (("2", "6"), "search"),
                         (("1", "6"), "hub_endpoint"), (("0", "11"), "none")]:
        code, out, _ = run(capsys, "query", "--graph", str(graph), "--index", str(idx),
                           "--engine", "hl", "--k", "8", *pair)
        assert code == 0
        fields = dict(f.split("=", 1) for f in out.split())
        assert list(fields) == ["dist", "path", "expanded", "enqueued", "answered_by"]
        assert fields["answered_by"] == branch


@pytest.mark.parametrize("edit", ["dist", "hub"])
def test_query_corrupt_label_is_an_error(tmp_path, graph_file, capsys, edit):
    from hubpath import hub2, load_edge_list
    from hubpath.engines import estimate

    path = tmp_path / "g.hub2"
    run(capsys, "build", "--graph", str(graph_file), "--hubs", "10", "--k", "6",
        "--out", str(path))
    g = load_edge_list(graph_file.read_bytes())
    idx = hub2.deserialize(str(path))
    table, ids, is_hub = idx.labels_in, idx.hubs.ids.tolist(), idx.hubs.is_hub
    if edit == "dist":
        # a vertex's only label (h, d) raised to a distance e that no neighbor
        # carries h one level below: the path from h must walk it, and the
        # walk finds no next hop
        def carried(v, r):
            return {d for w in g.neighbors(v).tolist()
                    for q, d in zip(*(a.tolist() for a in table.vertex_slice(w))) if q == r}
        for v in np.flatnonzero((table.counts() == 1) & ~is_hub).tolist():
            lo = int(table.offsets[v])
            r, d = int(table.hub_rank[lo]), int(table.dist[lo])
            raised = [e for e in range(d + 1, idx.k + 1) if e - 1 not in carried(v, r)]
            if raised:
                break
        table.dist[lo] = raised[0]
        s, t = ids[r], v
    else:
        # a hub's last distance-1 label renamed to a later-ranked hub that is
        # not its neighbor, and the matrix cell made to match: the pair's
        # path is that label's walk, whose one hop is not an edge
        for j in ids:
            lo = int(table.offsets[j])
            last = lo + int(np.count_nonzero(np.asarray(table.vertex_slice(j)[1]) == 1)) - 1
            if last < lo:
                continue
            nbrs = g.neighbors(j).tolist()
            later = [r for r in range(int(table.hub_rank[last]) + 1, len(ids))
                     if ids[r] not in nbrs]
            if later:
                break
        r = later[0]
        table.hub_rank[last] = r
        cells = idx.matrix.dist.copy()
        cells[r, idx.hubs.rank[j]] = 1
        idx.matrix = hub2.Hub2Matrix(idx.matrix.dim, cells)
        s, t = ids[r], j
    hub2.serialize(idx, str(path))
    assert estimate(idx, s, t).value is not None
    code, out, err = run(capsys, "query", "--graph", str(graph_file), "--index", str(path),
                         "--engine", "hl", str(s), str(t))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "index is corrupted" in err and "Traceback" not in err


def test_query_absent_distance_exit_zero(tmp_path, capsys):
    path = tmp_path / "two.txt"
    path.write_text("0 1\n2 3\n")
    code, out, _ = run(capsys, "query", "--graph", str(path), "--engine", "bfs",
                       "--k", "6", "0", "3")
    assert code == 0
    assert out.startswith("dist=none path=none")


def test_hubnet_stats_and_verify(tmp_path, graph_file, capsys):
    stats = tmp_path / "stats.tsv"
    code, out, _ = run(capsys, "hubnet", "--graph", str(graph_file),
                       "--hubs", "10", "--k", "6", "--verify",
                       "--stats-out", str(stats))
    assert code == 0
    assert "failures=0" in out
    lines = stats.read_text().strip().splitlines()
    assert lines[0].split("\t")[:3] == ["hubs", "k", "size_hstar"]
    assert len(lines) == 2


def test_bench_summary_and_records(tmp_path, graph_file, capsys):
    idx = tmp_path / "g.hub2"
    run(capsys, "build", "--graph", str(graph_file), "--hubs", "10", "--k", "6",
        "--out", str(idx))
    records = tmp_path / "records.jsonl"
    code, out, _ = run(capsys, "bench", "--graph", str(graph_file),
                       "--index", str(idx), "--engines", "bfs,hl",
                       "--pairs", "30", "--seed", "7", "--k", "6",
                       "--records", str(records))
    assert code == 0
    lines = records.read_text().strip().splitlines()
    assert len(lines) == 60
    recs = [json.loads(line) for line in lines]
    by_pair = {}
    for rec in recs:
        by_pair.setdefault((rec["s"], rec["t"]), {})[rec["engine"]] = rec["distance"]
    assert all(len(set(d.values())) == 1 for d in by_pair.values())
    assert out.splitlines()[0].startswith("engine\t")


def test_bench_same_seed_same_pairs(tmp_path, graph_file, capsys):
    paths = []
    for name in ("r1.jsonl", "r2.jsonl"):
        rec = tmp_path / name
        run(capsys, "bench", "--graph", str(graph_file), "--engines", "bfs",
            "--pairs", "15", "--seed", "3", "--k", "6", "--records", str(rec))
        paths.append([
            {k: v for k, v in json.loads(line).items() if k != "wall_ns"}
            for line in rec.read_text().strip().splitlines()
        ])
    assert paths[0] == paths[1]


def test_bench_min_dist_above_k_is_an_error(tmp_path, capsys):
    chain = tmp_path / "chain30.txt"
    assert run(capsys, "gen", "--kind", "chain", "--n", "30", "--out", str(chain))[0] == 0
    code, out, err = run(capsys, "bench", "--graph", str(chain), "--engines", "bfs",
                         "--k", "2", "--min-dist", "3", "--pairs", "5")
    assert code == 1
    assert out == ""
    assert err.startswith("error: min_dist 3 exceeds k=2")


def test_verify_ok_and_corruption_detected(tmp_path, graph_file, capsys):
    idx = tmp_path / "g.hub2"
    run(capsys, "build", "--graph", str(graph_file), "--hubs", "8", "--k", "4",
        "--out", str(idx))
    code, out, _ = run(capsys, "verify", "--graph", str(graph_file),
                       "--index", str(idx), "--pairs", "60", "--seed", "2")
    assert code == 0 and "VERIFY OK" in out

    blob = bytearray(idx.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    idx.write_bytes(bytes(blob))
    code, out, _ = run(capsys, "verify", "--graph", str(graph_file),
                       "--index", str(idx), "--pairs", "10")
    assert code == 1
    assert "checksum" in out


def test_query_index_of_another_version_is_an_error(tmp_path, graph_file, capsys):
    # a version 5 file (label ports) passes the digest but not the reader
    idx = tmp_path / "g.hub2"
    run(capsys, "build", "--graph", str(graph_file), "--hubs", "8", "--k", "4",
        "--out", str(idx))
    body = bytearray(idx.read_bytes()[:-8])
    assert struct.unpack_from("<H", body, 4) == (6,)
    struct.pack_into("<H", body, 4, 5)
    idx.write_bytes(bytes(body) + digest64(body).to_bytes(8, "little"))
    code, out, err = run(capsys, "query", "--graph", str(graph_file), "--index", str(idx),
                         "--engine", "hl", "--k", "4", "0", "1")
    assert code == 1 and out == ""
    assert err == "error: unsupported version 5\n"


def test_verify_rebuild_catches_resealed_label_flip(tmp_path, graph_file, capsys):
    # the low bit of the last label entry's hub rank flipped and the digest
    # recomputed: the file loads, and only the rebuild comparison is sure to
    # see it
    idx = tmp_path / "g.hub2"
    run(capsys, "build", "--graph", str(graph_file), "--hubs", "8", "--k", "4",
        "--out", str(idx))
    argv = ["verify", "--graph", str(graph_file), "--index", str(idx), "--pairs", "10"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "index-rebuild: identical" in out

    body = bytearray(idx.read_bytes()[:-8])
    body[-3] ^= 0x01
    idx.write_bytes(bytes(body) + digest64(body).to_bytes(8, "little"))
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert "index-rebuild: differs" in out


def _reversing(query):
    """query, with each path it finds returned reversed."""
    def reversed_query(*args):
        res = query(*args)
        if res.found:
            res.path.reverse()
        return res
    return reversed_query


def test_verify_catches_path_with_wrong_ends(graph_file, capsys, monkeypatch):
    # on an undirected graph the reversed path is a walk of the right length,
    # so only comparing its ends with the query's s and t catches it
    argv = ["verify", "--graph", str(graph_file), "--hubs", "8", "--k", "4",
            "--pairs", "20"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "engine-agreement: pairs=20 failures=0" in out
    monkeypatch.setattr(cli, "hl_query", _reversing(cli.hl_query))
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert "engine-agreement: pairs=20 failures=0" not in out


def test_verify_certifies_the_reference_path(tmp_path, capsys, monkeypatch):
    # the other engines are checked against bfs_query's distance, so its own
    # path must be certified too: reversed, it is still a walk of the right
    # length on an undirected graph
    path = tmp_path / "ba.txt"
    path.write_bytes(gen_synthetic("ba", 200, 3, 5))
    argv = ["verify", "--graph", str(path), "--hubs", "5", "--k", "4", "--pairs", "50"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "engine-agreement: pairs=50 failures=0" in out
    monkeypatch.setattr(cli, "bfs_query", _reversing(cli.bfs_query))
    code, out, _ = run(capsys, *argv)
    assert code == 1 and "VERIFY FAILED" in out
    assert "engine-agreement: pairs=50 failures=0" not in out


def test_verify_small_graph_runs_label_oracle(tmp_path, capsys):
    path = tmp_path / "small.txt"
    path.write_bytes(gen_synthetic("er", 120, 5, seed=3))
    code, out, _ = run(capsys, "verify", "--graph", str(path), "--hubs", "6",
                       "--k", "4", "--pairs", "40")
    assert code == 0
    assert "label-oracle: vertices=120 mismatches=0" in out


def test_missing_graph_file_errors(capsys):
    code, _, err = run(capsys, "query", "--graph", "/nonexistent.txt",
                       "--engine", "bfs", "0", "1")
    assert code == 1
    assert "error:" in err


def test_negative_pairs_refused(graph_file, capsys):
    # verify used to print "pairs=-3 failures=0" and VERIFY OK after checking
    # no pair, and bench to exit 0 with an empty table
    with pytest.raises(SystemExit, match="--pairs must be >= 0"):
        main(["verify", "--graph", str(graph_file), "--pairs", "-3"])
    code, out, err = run(capsys, "bench", "--graph", str(graph_file), "--engines", "bfs",
                         "--pairs", "-3")
    assert (code, out) == (1, "") and "negative" in err


def test_bench_unknown_engine_rejected(graph_file):
    with pytest.raises(SystemExit):
        main(["bench", "--graph", str(graph_file), "--engines", "dijkstra"])


def test_hl_requires_index(graph_file):
    with pytest.raises(SystemExit):
        main(["query", "--graph", str(graph_file), "--engine", "hl", "0", "1"])
