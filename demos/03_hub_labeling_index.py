"""
The hub-labeling index: matrix and core-hub labels
==================================================

The heavier acceleration precomputes two things:

- the hub-pair distance matrix (k-bounded, one byte per entry), and
- for every other vertex, its *core hubs*: the hubs it can reach without
  any other hub strictly between on any shortest path.  Each label stores
  the hub and the distance, three bytes in all.  Paths are recovered without
  storing them: the next hop of a label (h, d) is the smallest-id neighbor
  holding the label (h, d - 1), or h itself when d = 1.  A hub's own labels
  are the hub-free paths to it from other hubs, and the matrix says where
  every other hub-pair path splits into those.

Core hubs prune aggressively: a vertex keeps only a small fraction of the
hub set, yet together with the matrix it can reproduce an exact shortest
path whenever some shortest path touches a hub.
"""

import io

from hubpath import (
    build_index,
    core_hubs_oracle,
    deserialize,
    estimate,
    gen_synthetic,
    index_stats,
    load_edge_list,
    reconstruct_estimated_path,
    select_hubs,
    serialize,
)

g = load_edge_list(gen_synthetic("ba", 5000, 5, seed=2))
hubs = select_hubs(g, 50)
idx = build_index(g, hubs, k=6)

stats = index_stats(idx)
print(f"{g}, {hubs.size} hubs, k=6")
print(f"labels per non-hub vertex: avg {stats['avg_label_count']:.1f}, "
      f"max {stats['max_label_count']} (of {hubs.size} hubs)")
print(f"matrix fill: {stats['matrix_finite_fraction']:.0%} finite")

# Inspect one vertex's farthest labels and the walk each one derives toward
# its hub: a path from v through hub h and on to h itself is v's walk to h.
v = int((~hubs.is_hub).nonzero()[0][0])
ranks, dists = idx.labels(v, "out")
print(f"\nvertex {v}: {len(ranks)} labels; the farthest (hub, dist) -> next hop:")
for r, d in list(zip(ranks, dists))[-6:]:
    h = int(hubs.ids[r])
    walk = reconstruct_estimated_path(idx, g, v, h, h, h)
    print(f"  ({h}, {d}) -> {walk[1]}    walk {walk}")

# The label set matches the definition applied to exact distances.
print("definition oracle agrees:",
      {(int(hubs.ids[r]), d) for r, d in zip(ranks, dists)}
      == core_hubs_oracle(g, hubs, 6, v))

# Estimate a distance through the labels and rebuild the estimated path.
s, t = v, int((~hubs.is_hub).nonzero()[0][-1])
est = estimate(idx, s, t)
print(f"\nestimate {s} -> {t}: {est.value} via hub pair {est.argpair} "
      f"({est.join_ops} matrix cells read)")
if est.value is not None:
    x, y = est.argpair
    path = reconstruct_estimated_path(idx, g, s, x, y, t)
    print("reconstructed path:", path)

# The index serializes to a little-endian blob: header, hub ids, matrix,
# then each label table as one count array and one entry array, sealed by a
# trailing 64-bit blake2b digest.  Identical inputs produce
# identical bytes, and any corruption the digest sees is rejected on read.
sink = io.BytesIO()
serialize(idx, sink)
blob = sink.getvalue()
print(f"\nindex size {len(blob) / 1024:.0f} KiB, round trip OK: {deserialize(blob) == idx}")
