#!/usr/bin/env python3
"""Digest the set-up and every engine's answers and work counters on the perfbench inputs.

From the root of a checkout:

    python3 scripts/answers_digest.py --seeds 21 2501 2502 [--dump answers.json]

For each seed and perfbench workload it prints one `setup` line with two
sha256 digests: `index` of the serialized HL index (hub2.to_bytes) and
`network` of the hub network's member ids, basic_pairs and added_per_pair.
Then, for each engine, one line with two sha256 digests over the pairs
make_pairs(N, POOL, seed): `answers` of each pair's (distance, path) and
`work` of its (visited, enqueued, join_ops, answered_by).  The graphs, hubs,
k and pairs are perfbench's (imported from perfbench/inputs.py and
perfbench/run.py, which this script only reads), so two checkouts whose
lines agree build the same index and network and return the same answers
with the same work there.  --pairs takes only the first pairs of the pool.
--dump writes the index digest, the network and the per-pair answers and
counters as JSON, so that what lies behind a differing digest can be found
by comparing two dumps.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from hubpath import build_index, discover, load_edge_list, select_hubs  # noqa: E402
from hubpath.engines import query_with_engine  # noqa: E402
from hubpath.hub2 import to_bytes  # noqa: E402
from inputs import N, WORKLOADS, make_graph_bytes, make_pairs  # noqa: E402
from run import BETA, ENGINES, K, POOL  # noqa: E402


def sha(rows):
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def workload_answers(name, seed, pairs=POOL):
    """{"setup": {"index": sha256 of the index bytes, "network": [member ids,
    basic_pairs, added_per_pair]}, engine: {"answers": [[distance, path]],
    "work": [[visited, enqueued, join_ops, answered_by]]}} over
    make_pairs(N, pairs, seed)."""
    spec = WORKLOADS[name]
    g = load_edge_list(make_graph_bytes(spec, seed), directed=spec.directed)
    hubs = select_hubs(g, BETA)
    net, idx = discover(g, hubs, K), build_index(g, hubs, K)
    network = [net.members.tolist(), net.basic_pairs, net.added_per_pair]
    out = {"setup": {"index": hashlib.sha256(to_bytes(idx)).hexdigest(), "network": network}}
    out.update({engine: {"answers": [], "work": []} for engine in ENGINES})
    for s, t in make_pairs(N, pairs, seed):
        for engine in ENGINES:
            res = query_with_engine(engine, g, s, t, K, net=net, idx=idx)
            st = res.stats
            out[engine]["answers"].append([res.distance, res.path])
            out[engine]["work"].append([st.visited, st.enqueued, st.join_ops, st.answered_by])
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--pairs", type=int, default=POOL)
    p.add_argument("--dump", help="write the per-pair answers and counters to this JSON file")
    args = p.parse_args(argv)

    dump = {}
    for seed in args.seeds:
        for name in WORKLOADS:
            rows = dump[f"{name}/{seed}"] = workload_answers(name, seed, args.pairs)
            setup = rows["setup"]
            print(f"{name} seed={seed} setup index={setup['index']} "
                  f"network={sha(setup['network'])}", flush=True)
            for engine in ENGINES:
                print(f"{name} seed={seed} {engine} answers={sha(rows[engine]['answers'])} "
                      f"work={sha(rows[engine]['work'])}", flush=True)
    if args.dump:
        Path(args.dump).write_text(json.dumps(dump))


if __name__ == "__main__":
    main()
