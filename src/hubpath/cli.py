"""Command-line front end: build, query, bench, verify, hubnet, gen."""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import hub2
from .bench import ENGINES, check_workload, make_workload, run_engine, summarize, summary_tsv
from .engines import (bfs_query, bibfs_query, check_index_k, check_result, estimate,
                      estimate_full_join, hl_query, hn_query, query_with_engine)
from .generate import KINDS, gen_synthetic
from .graph import EdgeListParseError, load_edge_list
from .hub2 import IndexFormatError, IndexIntegrityError, core_hubs_oracle
from .hubs import default_beta, select_hubs
from .network import discover, network_stats, verify_distance_preserving


def build_parser():
    parser = argparse.ArgumentParser(prog="hubpath",
                                     description="Exact k-bounded shortest paths on scale-free graphs")
    sub = parser.add_subparsers(dest="command", required=True)
    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("--graph", required=True, help="edge-list file")
    graph.add_argument("--directed", action="store_true", help="treat edges as directed")
    graph.add_argument("--hubs", type=int, default=None, help="hub count (default 0.5%% of n)")
    graph.add_argument("--k", type=int, default=6)
    indexed = argparse.ArgumentParser(add_help=False, parents=[graph])
    indexed.add_argument("--index", default=None,
                         help="index file (hl engine); its hubs replace --hubs")

    p = sub.add_parser("gen", help="write a synthetic edge list")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--param", type=float, default=None,
                   help="avg degree (er) or attachment count (ba)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("build", parents=[graph], help="build and write an index file")
    p.add_argument("--out", required=True, help="index output path")

    p = sub.add_parser("query", parents=[indexed], help="answer one query with a chosen engine")
    p.add_argument("--engine", default="bfs", choices=ENGINES)
    p.add_argument("s", type=int)
    p.add_argument("t", type=int)

    p = sub.add_parser("hubnet", parents=[graph],
                       help="discover the hub network and report stats")
    p.add_argument("--verify", action="store_true",
                   help="check distance preservation over all hub pairs")
    p.add_argument("--stats-out", default=None, help="write stats TSV here")

    p = sub.add_parser("bench", parents=[indexed], help="run seeded workloads per engine")
    p.add_argument("--engines", default="bfs,bibfs", help="comma-separated engine list")
    p.add_argument("--pairs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-dist", type=int, default=0,
                   help="keep only pairs with true distance >= this (and <= k)")
    p.add_argument("--non-hub-only", action="store_true")
    p.add_argument("--records", default=None, help="write JSON-lines records here")

    p = sub.add_parser("verify", parents=[indexed],
                       help="run the oracle suites against a graph/index")
    p.add_argument("--limit", type=int, default=300,
                   help="label-oracle check only when n <= limit")
    p.add_argument("--pairs", type=int, default=200, help="engine-agreement sample size")
    p.add_argument("--seed", type=int, default=0)
    return parser


def _check_args(args):
    """Refuse, with ValueError, every argument that can be refused without
    input, before any command reads its graph: --hubs below 1, --k outside
    [1, MAX_K] in build and in verify without --index, a negative --pairs in
    verify, and in query and bench an unknown engine, hl without --index and
    (bench) a workload make_workload would refuse."""
    if getattr(args, "hubs", None) is not None and args.hubs < 1:
        raise ValueError("--hubs must be >= 1")
    if args.command == "build" or args.command == "verify" and args.index is None:
        if not 1 <= args.k <= hub2.MAX_K:
            raise ValueError(f"--k must be in [1, {hub2.MAX_K}]")
    if args.command == "verify" and args.pairs < 0:
        raise ValueError("--pairs must be >= 0")
    if args.command in ("query", "bench"):
        engines = _engines(args)
        bad = [e for e in engines if e not in ENGINES]
        if bad:
            raise ValueError(f"unknown engines: {bad}; choose from {ENGINES}")
        if "hl" in engines and not args.index:
            raise ValueError("engine hl needs --index")
    if args.command == "bench":
        check_workload(args.pairs, args.k, args.min_dist)


def _engines(args):
    """The engines query or bench runs: --engine, or the names listed in --engines."""
    if args.command == "query":
        return [args.engine]
    return [e.strip() for e in args.engines.split(",") if e.strip()]


def _load_graph(args):
    with open(args.graph, "rb") as fh:
        return load_edge_list(fh, directed=args.directed)


def _hub_count(args, g):
    return default_beta(g.n) if args.hubs is None else args.hubs


def _load_index(path, g):
    idx = hub2.deserialize(path)
    if not idx.matches(g):
        raise IndexFormatError("index fingerprint does not match the graph "
                               f"(n/m/checksum differ): {path}")
    return idx


def _index_and_hubs(args, g, engines, need_hubs=False):
    """(index, hubs) for query and bench on engines.  With --index the index
    is loaded, its k checked for hl (check_index_k), and its hubs are the
    hubs; otherwise select_hubs runs only when hn or need_hubs asks for hubs.
    The caller discovers hn's network after this and any other refusal."""
    if args.index:
        idx = _load_index(args.index, g)
        if "hl" in engines:
            check_index_k(idx, args.k)
        return idx, idx.hubs
    if "hn" in engines or need_hubs:
        return None, select_hubs(g, _hub_count(args, g))
    return None, None


def cmd_gen(args):
    data = gen_synthetic(args.kind, args.n, args.param, args.seed)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data.decode("ascii"))
    return 0


def cmd_build(args):
    g = _load_graph(args)
    hubs = select_hubs(g, _hub_count(args, g))
    t0 = time.monotonic()
    idx = hub2.build(g, hubs, args.k)
    build_seconds = time.monotonic() - t0
    size = hub2.serialize(idx, args.out)
    stats = hub2.index_stats(idx)
    print("hubs\tk\tavg_label_count\tmax_label_count\tmatrix_finite_fraction\tbytes\tbuild_seconds")
    print(f"{hubs.size}\t{args.k}\t{stats['avg_label_count']:.3f}\t{stats['max_label_count']}"
          f"\t{stats['matrix_finite_fraction']:.4f}\t{size}"
          f"\t{build_seconds:.3f}")
    return 0


def cmd_query(args):
    g = _load_graph(args)
    idx, hubs = _index_and_hubs(args, g, _engines(args))
    net = discover(g, hubs, args.k) if args.engine == "hn" else None
    res = query_with_engine(args.engine, g, args.s, args.t, args.k, net=net, idx=idx)
    dist = "none" if res.distance is None else str(res.distance)
    path = "none" if res.path is None else ",".join(str(v) for v in res.path)
    branch = "" if res.stats.answered_by is None else f" answered_by={res.stats.answered_by}"
    print(f"dist={dist} path={path} expanded={res.stats.visited} "
          f"enqueued={res.stats.enqueued}{branch}")
    return 0


def cmd_hubnet(args):
    g = _load_graph(args)
    hubs = select_hubs(g, _hub_count(args, g))
    net = discover(g, hubs, args.k)
    stats = network_stats(g, hubs, net)
    header = "hubs\tk\tsize_hstar\tavg_hub_degree_original\tavg_hub_degree_network\tbasic_pairs"
    row = (f"{hubs.size}\t{args.k}\t{stats['size_hstar']}"
           f"\t{stats['avg_hub_degree_original']:.3f}"
           f"\t{stats['avg_hub_degree_network']:.3f}\t{len(net.basic_pairs)}")
    tsv = header + "\n" + row + "\n"
    if args.stats_out:
        with open(args.stats_out, "w") as fh:
            fh.write(tsv)
    print(tsv, end="")
    status = 0
    if args.verify:
        report = verify_distance_preserving(g, net)
        print(f"preservation_checked={report.checked} failures={len(report.failures)}")
        for failure in report.failures[:20]:
            print(f"FAIL {failure}")
        status = 0 if report.ok else 1
    return status


def cmd_bench(args):
    engines = _engines(args)
    g = _load_graph(args)
    idx, hubs = _index_and_hubs(args, g, engines, args.non_hub_only)
    workload = make_workload(g, args.pairs, args.seed, k=args.k,
                             min_dist=args.min_dist,
                             non_hub_only=args.non_hub_only, hubs=hubs)
    net = discover(g, hubs, args.k) if "hn" in engines else None
    records = []
    for engine in engines:
        records.extend(run_engine(engine, g, workload.pairs, args.k, net=net, idx=idx))
    if args.records:
        with open(args.records, "w") as fh:
            for rec in records:
                fh.write(rec.to_json() + "\n")
    sys.stdout.write(summary_tsv(summarize(records)))
    return 0


def cmd_verify(args):
    g = _load_graph(args)
    failures = []
    idx = None
    if args.index:
        try:
            idx = _load_index(args.index, g)
        except IndexFormatError as exc:
            print(f"FAIL index: {exc}")
            return 1
        hubs = idx.hubs
        k = idx.k
        # the digest only shows the file is intact; a rebuild shows it is right
        same = hub2.build(g, hubs, k) == idx
        print(f"index-rebuild: {'identical' if same else 'differs'}")
        if not same:
            failures.append(("index-rebuild", 1))
    else:
        hubs = select_hubs(g, _hub_count(args, g))
        k = args.k

    net = discover(g, hubs, k)
    report = verify_distance_preserving(g, net)
    print(f"preservation: checked={report.checked} failures={len(report.failures)}")
    failures.extend(("preservation", f) for f in report.failures)

    if idx is None:
        idx = hub2.build(g, hubs, k)
    if g.n <= args.limit:
        mism = 0
        for v in range(g.n):
            built = _label_set(idx, v, "out")
            if built != core_hubs_oracle(g, hubs, k, v, side="out"):
                mism += 1
            if g.directed:
                built = _label_set(idx, v, "in")
                if built != core_hubs_oracle(g, hubs, k, v, side="in"):
                    mism += 1
        print(f"label-oracle: vertices={g.n} mismatches={mism}")
        if mism:
            failures.append(("labels", mism))
    else:
        print(f"label-oracle: skipped (n={g.n} > limit={args.limit})")

    rng = np.random.Generator(np.random.PCG64(args.seed))
    bad_pairs = 0
    for _ in range(args.pairs):
        s, t = (int(x) for x in rng.integers(0, g.n, size=2))
        truth = bfs_query(g, s, t, k)
        answers = [truth, bibfs_query(g, s, t, k), hn_query(g, hubs, net, s, t, k),
                   hl_query(g, idx, s, t)]
        if not all(check_result(g, res, truth.distance)
                   and (not res.found or (res.path[0], res.path[-1]) == (s, t))
                   for res in answers):
            bad_pairs += 1
        est, full = estimate(idx, s, t), estimate_full_join(idx, s, t)
        if (est.value, est.argpair) != (full.value, full.argpair):
            bad_pairs += 1
    print(f"engine-agreement: pairs={args.pairs} failures={bad_pairs}")
    if bad_pairs:
        failures.append(("agreement", bad_pairs))

    if failures:
        print(f"VERIFY FAILED ({len(failures)} failure groups)")
        return 1
    print("VERIFY OK")
    return 0


def _label_set(idx, v, side):
    return {(int(idx.hubs.ids[r]), d) for r, d in zip(*idx.labels(v, side))}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "gen": cmd_gen, "build": cmd_build, "query": cmd_query,
        "hubnet": cmd_hubnet, "bench": cmd_bench, "verify": cmd_verify,
    }
    try:
        _check_args(args)
        return handlers[args.command](args)
    except (EdgeListParseError, IndexFormatError, IndexIntegrityError, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
