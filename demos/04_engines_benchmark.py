"""
Four engines, one contract
==========================

Every engine answers the same question -- exact distance plus one certified
shortest path when the distance is within k -- and they must agree on every
pair.  What differs is the work:

- bfs: plain bounded BFS from the source.
- bibfs: bidirectional BFS, smaller frontier first.
- hn: bidirectional BFS where hubs expand only inside the hub network.
- hl: label-join estimate, then a bidirectional BFS that skips hubs
  entirely, bounded by the estimate.
"""

import time

from hubpath import (
    bfs_query,
    build_index,
    discover,
    gen_synthetic,
    index_stats,
    load_edge_list,
    make_workload,
    run_engine,
    select_hubs,
    summarize,
)
from hubpath.bench import summary_tsv

k = 6
g = load_edge_list(gen_synthetic("ba", 20000, 5, seed=1))
hubs = select_hubs(g, 200)
net = discover(g, hubs, k)
t0 = time.monotonic()
idx = build_index(g, hubs, k)
build_seconds = time.monotonic() - t0
print(f"{g}, {hubs.size} hubs, k={k}")
print(f"index: {index_stats(idx)['avg_label_count']:.1f} labels/vertex, "
      f"built in {build_seconds:.1f}s\n")

# A seeded workload of non-hub pairs (the pruned search is defined for
# those); the same seed always yields the same pairs.
workload = make_workload(g, 400, seed=11, non_hub_only=True, hubs=hubs)

records = []
for engine in ("bfs", "bibfs", "hn", "hl"):
    records.extend(run_engine(engine, g, workload.pairs, k, net=net, idx=idx))

# All engines agree pairwise on every distance.
by_pair = {}
for rec in records:
    by_pair.setdefault((rec.s, rec.t), set()).add(rec.distance)
print("engines agree on all pairs:", all(len(d) == 1 for d in by_pair.values()))

# The summary's enqueued columns are the search space: vertices the traversal
# labeled.  Hub pruning is what shrinks it.  The expanded columns count the
# frontier vertices whose edges were scanned.
print()
print(summary_tsv(summarize(records)), end="")

sample = workload.pairs[0]
res = bfs_query(g, *sample, k)
print(f"\nsample pair {sample}: distance {res.distance}, path {res.path}")
