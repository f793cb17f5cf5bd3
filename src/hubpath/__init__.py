"""Exact k-bounded shortest-path queries on scale-free graphs.

The library answers "what is the shortest path between s and t, if their
distance is at most k" on large unweighted graphs whose degree distribution
is dominated by hubs.  It provides:

- a compressed immutable graph with BFS utilities (``graph``),
- top-degree hub selection (``hubs``),
- greedy extraction of a distance-preserving hub network (``network``),
- a hub-pair distance matrix plus per-vertex core-hub labels (hub,
  distance), from which every next hop is derived, serializable to a
  checksummed binary format (``hub2``),
- four query engines from plain BFS up to the label-accelerated two-step
  search (``engines``),
- deterministic synthetic graphs and benchmark workloads (``generate``,
  ``bench``) and a command-line front end (``cli``).
"""

from .bench import BenchRecord, Workload, make_workload, run_engine, summarize
from .engines import (
    Estimate,
    QueryResult,
    SearchStats,
    bfs_query,
    bibfs_query,
    estimate,
    estimate_full_join,
    hl_query,
    hn_query,
    reconstruct_estimated_path,
)
from .generate import gen_synthetic
from .graph import (
    EdgeListParseError,
    Graph,
    bounded_bfs,
    induced_subgraph,
    load_edge_list,
    validate_path,
)
from .hub2 import (
    INF,
    Hub2Index,
    Hub2Matrix,
    IndexFormatError,
    IndexIntegrityError,
    LabelTable,
    build,
    core_hubs_oracle,
    deserialize,
    index_stats,
    serialize,
)
from .hubs import HubSet, select_hubs
from .network import (
    HubNetwork,
    PreservationReport,
    discover,
    network_stats,
    verify_distance_preserving,
)

build_index = build

__all__ = [
    "BenchRecord", "Workload", "make_workload", "run_engine", "summarize",
    "Estimate", "QueryResult", "SearchStats",
    "bfs_query", "bibfs_query", "hl_query", "hn_query",
    "estimate", "estimate_full_join", "reconstruct_estimated_path",
    "gen_synthetic",
    "EdgeListParseError", "Graph", "bounded_bfs", "induced_subgraph",
    "load_edge_list", "validate_path",
    "INF", "Hub2Index", "Hub2Matrix", "IndexFormatError", "IndexIntegrityError",
    "LabelTable", "build", "build_index", "core_hubs_oracle", "deserialize",
    "index_stats", "serialize",
    "HubSet", "select_hubs",
    "HubNetwork", "PreservationReport", "discover",
    "network_stats", "verify_distance_preserving",
]
