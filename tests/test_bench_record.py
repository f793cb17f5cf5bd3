"""scripts/bench_record.py merges perfbench run results into BENCH_perfbench.json
entries."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record",
                                               ROOT / "scripts" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

GATED = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def result(path, seed, setup, qps):
    """A perfbench/run.py result file of one er-flat run; every other gated metric reads 1."""
    metrics = {name: {"value": 1.0, "unit": "x"} for name in GATED}
    metrics["setup_s"] = {"value": setup, "unit": "s"}
    metrics["hl.qps"] = {"value": qps, "unit": "1/s"}
    path.write_text(json.dumps({"workload": "er-flat", "seed": seed, "trace": 0,
                                "machine": {"nproc": 2}, "metrics": metrics}))
    return str(path)


def test_single_run_results_merge_by_seed(tmp_path):
    # one-seed runs alternating between the sides, given in any order
    parent = [result(tmp_path / f"p{s}.json", s, v, 10)
              for s, v in [(1, 2.0), (2, 2.2), (3, 1.8), (4, 2.1), (9, 5.0)]]
    change = [result(tmp_path / f"c{s}.json", s, v, q)
              for s, v, q in [(3, 1.2, 11), (4, 2.5, 9), (1, 1.1, 12), (2, 1.3, 10)]]
    out = tmp_path / "bench.json"
    bench_record.main(["--title", "t", "--parent-commit", "a", "--change-commit", "b",
                       "--parent", *parent, "--change", *change, "--out", str(out)])
    entry = json.loads(out.read_text())["entries"][0]
    assert entry["machine"] == {"nproc": 2}
    wl = entry["workloads"]["er-flat"]
    assert wl["seeds"] == [1, 2, 3, 4]  # seed 9 ran on the parent only
    setup = wl["metrics"]["setup_s"]
    assert setup["parent"]["values"] == [2.0, 2.2, 1.8, 2.1]
    assert setup["change"]["values"] == [1.1, 1.3, 1.2, 2.5]


def test_chunks_merge_by_seed_and_count_wins(tmp_path):
    # each run's result file is one chunk; the traced run is recorded apart
    parent = [result(tmp_path / f"p{s}.json", s, v, 10)
              for s, v in [(1, 2.0), (2, 2.2), (3, 1.8), (4, 2.1), (9, 5.0)]]
    change = [result(tmp_path / f"c{s}.json", s, v, q)
              for s, v, q in [(3, 1.2, 11), (4, 2.5, 9), (1, 1.1, 12), (2, 1.3, 10)]]
    traced = tmp_path / "t.result.json"
    traced.write_text(json.dumps({"workload": "er-flat", "seed": 21, "metrics": {
        "network.discover_s": {"value": 0.4}, "setup_s": {"value": 1.0}}}))
    out = tmp_path / "bench.json"
    for _ in range(2):
        bench_record.main(["--title", "t", "--parent-commit", "a", "--change-commit", "b",
                           "--parent", *parent, "--change", *change,
                           "--traced-change", str(traced), "--out", str(out)])
    entries = json.loads(out.read_text())["entries"]
    assert len(entries) == 2
    wl = entries[0]["workloads"]["er-flat"]
    assert wl["seeds"] == [1, 2, 3, 4]
    assert wl["metrics"]["setup_s"]["change_better_pairs"] == 3
    assert wl["metrics"]["hl.qps"]["change_better_pairs"] == 2  # higher is better
    assert entries[0]["traced"]["change"]["er-flat"] == {
        "seeds": [21], "metrics": {"network.discover_s": 0.4},
        "per_seed": {"21": {"network.discover_s": 0.4}}}
    assert entries[0]["traced"]["parent"] == {}


def test_every_traced_seed_is_kept(tmp_path):
    parent = [result(tmp_path / f"p{s}.json", s, 2.0, 10) for s in (1, 2)]
    change = [result(tmp_path / f"c{s}.json", s, 1.0, 10) for s in (1, 2)]
    traced = []
    for seed, build in [(23, 0.5), (21, 0.3), (22, 0.1)]:
        metrics = {"hub2.build_s": {"value": build}, "setup_s": {"value": 1.0}}
        if seed != 22:
            metrics["network.discover_s"] = {"value": seed / 100}
        traced.append(tmp_path / f"t{seed}.result.json")
        traced[-1].write_text(json.dumps({"workload": "er-flat", "seed": seed, "metrics": metrics}))
    out = tmp_path / "bench.json"
    bench_record.main(["--title", "t", "--parent-commit", "a", "--change-commit", "b",
                       "--parent", *parent, "--change", *change,
                       "--traced-parent", *map(str, traced), "--out", str(out)])
    got = json.loads(out.read_text())["entries"][0]["traced"]["parent"]["er-flat"]
    assert got["seeds"] == [21, 22, 23]
    # each metric's median over the seeds that report it
    assert got["metrics"] == {"network.discover_s": 0.22, "hub2.build_s": 0.3}
    assert got["per_seed"] == {
        "21": {"network.discover_s": 0.21, "hub2.build_s": 0.3},
        "22": {"hub2.build_s": 0.1},
        "23": {"network.discover_s": 0.23, "hub2.build_s": 0.5}}
