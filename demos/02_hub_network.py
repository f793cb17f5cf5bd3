"""
Discovering the distance-preserving hub network
===============================================

High-degree hubs make graph search explode: nearly every short path runs
through them, but expanding one touches a huge neighborhood.  The hub
network H* is a small vertex set containing the hubs plus just enough
connective tissue that every hub pair within k keeps its exact distance
inside the induced subgraph.  Searches can then expand hubs *inside the
network only* without losing exactness.
"""

from hubpath import (
    discover,
    gen_synthetic,
    load_edge_list,
    network_stats,
    select_hubs,
    verify_distance_preserving,
)

k = 6
g = load_edge_list(gen_synthetic("ba", 20000, 5, seed=1))
hubs = select_hubs(g, 200)  # top 1% by degree
print(f"{g}, hub set of {hubs.size}")

net = discover(g, hubs, k)
print(f"|H*| = {net.size} vertices "
      f"({net.size - hubs.size} non-hubs pulled in)")
print(f"basic hub pairs discovered: {len(net.basic_pairs)}")

# The point of the construction: hubs keep their pairwise distances while
# their degree inside the network collapses.
stats = network_stats(g, hubs, net)
print(f"avg hub degree: {stats['avg_hub_degree_original']:.1f} in G, "
      f"{stats['avg_hub_degree_network']:.1f} in G[H*] "
      f"(ratio {stats['avg_hub_degree_network'] / stats['avg_hub_degree_original']:.2f})")

# Check the preservation property directly: every ordered hub pair within
# k must keep its distance in the induced subgraph.
report = verify_distance_preserving(g, net)
print(f"preservation check: {report.checked} pairs, {len(report.failures)} failures")

# The greedy never adds more than one fresh path per unordered basic pair.
print(f"size bound: |H*| = {net.size} <= {net.size_bound()} + {hubs.size}")
