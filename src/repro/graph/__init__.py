"""Graph substrate: CSR graphs, shortest paths, reachability, I/O."""

from repro.graph.builders import GraphBuilder, from_networkx, to_networkx
from repro.graph.core import Graph
from repro.graph.distance_store import (
    DistanceStore,
    DistanceStoreDescriptor,
    attach_distance_store,
    build_distance_store,
)
from repro.graph.forest_cache import (
    ForestCache,
    default_forest_cache,
    graph_fingerprint,
)
from repro.graph.io import (
    read_edge_list,
    read_json_graph,
    write_edge_list,
    write_json_graph,
)
from repro.graph.metrics import (
    TopologyMetrics,
    clustering_coefficient,
    degree_assortativity,
    degree_histogram,
    degree_tail_fit,
    topology_metrics,
)
from repro.graph.ops import (
    GraphStats,
    clean_edges,
    connected_components,
    diameter,
    graph_stats,
    is_connected,
    largest_connected_component,
    require_connected,
)
from repro.graph.paths import (
    ShortestPathForest,
    WeightedForest,
    bfs,
    bfs_from_many,
    dijkstra,
    distance_matrix,
    distances_from,
    uniform_arc_weights,
)
from repro.graph.reachability import (
    AveragedReachability,
    ReachabilityProfile,
    average_path_length,
    average_profile,
    classify_growth,
    reachability_profile,
)

__all__ = [
    "Graph",
    "GraphBuilder",
    "DistanceStore",
    "DistanceStoreDescriptor",
    "attach_distance_store",
    "build_distance_store",
    "ForestCache",
    "default_forest_cache",
    "graph_fingerprint",
    "from_networkx",
    "to_networkx",
    "read_edge_list",
    "write_edge_list",
    "read_json_graph",
    "write_json_graph",
    "TopologyMetrics",
    "clustering_coefficient",
    "degree_assortativity",
    "degree_histogram",
    "degree_tail_fit",
    "topology_metrics",
    "GraphStats",
    "clean_edges",
    "connected_components",
    "diameter",
    "graph_stats",
    "is_connected",
    "largest_connected_component",
    "require_connected",
    "ShortestPathForest",
    "WeightedForest",
    "bfs",
    "bfs_from_many",
    "dijkstra",
    "distance_matrix",
    "distances_from",
    "uniform_arc_weights",
    "AveragedReachability",
    "ReachabilityProfile",
    "average_path_length",
    "average_profile",
    "classify_growth",
    "reachability_profile",
]
