"""Graph cleaning and structural statistics.

The paper says all topologies "were cleaned by removing duplicate edges
(most often found in the TIERS topologies) and all remaining edges were
then assumed to be bi-directional" — :func:`clean_edges` +
:func:`largest_connected_component` implement exactly that pipeline, and
:func:`graph_stats` computes the columns of Table 1.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import DisconnectedGraphError, GraphError
from repro.graph.core import Graph
from repro.graph.forest_cache import _FINGERPRINT_MEMO_MAX, graph_fingerprint
from repro.graph.paths import distances_from
from repro.utils.rng import RandomState, ensure_rng

__all__ = [
    "clean_edges",
    "connected_components",
    "largest_connected_component",
    "is_connected",
    "require_connected",
    "diameter",
    "GraphStats",
    "graph_stats",
]

# connectivity memo: graph fingerprint -> is_connected answer, LRU-bounded
# like the fingerprint memo it keys on.
_CONNECTED_MEMO: "OrderedDict[str, bool]" = OrderedDict()
_CONNECTED_LOCK = threading.Lock()


def clean_edges(
    edges: Iterable[Tuple[int, int]]
) -> Tuple[List[Tuple[int, int]], int]:
    """Deduplicate an undirected edge list and drop self-loops.

    Edges are treated as unordered pairs: ``(u, v)`` and ``(v, u)`` are the
    same edge.  The first occurrence's orientation is preserved.

    Returns
    -------
    (list, int)
        The cleaned edge list and the number of dropped entries.
    """
    seen = set()
    cleaned: List[Tuple[int, int]] = []
    dropped = 0
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            dropped += 1
            continue
        key = (u, v) if u < v else (v, u)
        if key in seen:
            dropped += 1
            continue
        seen.add(key)
        cleaned.append((u, v))
    return cleaned, dropped


def connected_components(graph: Graph) -> List[np.ndarray]:
    """Connected components, largest first; each is a sorted node array.

    Components of equal size come in order of their smallest node.  Only
    nodes with an edge need a BFS: every degree-0 node is its own
    component, and those singletons are the only size-1 components, so
    they close the list in node order.
    """
    degrees = graph.degrees
    seen = np.zeros(graph.num_nodes, dtype=bool)
    components: List[np.ndarray] = []
    for start in np.flatnonzero(degrees > 0).tolist():
        if seen[start]:
            continue
        members = np.flatnonzero(distances_from(graph, start) >= 0)
        seen[members] = True
        components.append(members)
    components.sort(key=len, reverse=True)
    components.extend(
        np.array([node], dtype=np.intp)
        for node in np.flatnonzero(degrees == 0).tolist()
    )
    return components


def largest_connected_component(graph: Graph) -> Tuple[Graph, np.ndarray]:
    """Restrict ``graph`` to its largest connected component.

    Returns
    -------
    (Graph, numpy.ndarray)
        The component subgraph (nodes relabelled densely) and the mapping
        from new ids to the original ids.
    """
    if graph.num_nodes == 0:
        raise GraphError("the empty graph has no connected component")
    components = connected_components(graph)
    return graph.subgraph(components[0].tolist())


def is_connected(graph: Graph) -> bool:
    """Whether the graph is connected (the empty graph is not).

    The answer is memoized per :func:`graph_fingerprint` — the content
    key :class:`~repro.graph.forest_cache.ForestCache` and
    ``DistanceStore.check_graph`` already trust — so the BFS runs once
    per graph content, not once per call: a :class:`Graph`'s CSR arrays
    are read-only, so its answer cannot change, and an equal-content
    copy shares it.  Both answers are cached.  The memo holds at most
    as many entries as the fingerprint memo and drops the least recently
    used first.
    """
    if graph.num_nodes == 0:
        return False
    key = graph_fingerprint(graph)
    with _CONNECTED_LOCK:
        known = _CONNECTED_MEMO.get(key)
        if known is not None:
            _CONNECTED_MEMO.move_to_end(key)
            return known
    connected = (
        int(np.count_nonzero(distances_from(graph, 0) >= 0)) == graph.num_nodes
    )
    with _CONNECTED_LOCK:
        _CONNECTED_MEMO[key] = connected
        _CONNECTED_MEMO.move_to_end(key)
        while len(_CONNECTED_MEMO) > _FINGERPRINT_MEMO_MAX:
            _CONNECTED_MEMO.popitem(last=False)
    return connected


def require_connected(graph: Graph, context: str = "operation") -> None:
    """Raise :class:`DisconnectedGraphError` unless ``graph`` is connected."""
    if not is_connected(graph):
        raise DisconnectedGraphError(
            f"{context} requires a connected graph; run "
            "largest_connected_component() first"
        )


def diameter(
    graph: Graph,
    exact: bool = False,
    num_probes: int = 16,
    rng: RandomState = None,
) -> int:
    """Graph diameter (longest shortest path).

    Parameters
    ----------
    graph:
        A connected graph.
    exact:
        When True, run BFS from every node — O(N·E).  When False (default)
        use the double-sweep lower bound: BFS from ``num_probes`` random
        seeds, re-sweep from the farthest node found by each.  On the
        sparse, roughly tree-like topologies used here the double sweep is
        almost always exact, and it is what the benchmarks use for the
        large Internet-like maps.
    num_probes:
        Number of double-sweep seeds when ``exact`` is False.
    rng:
        Randomness for probe selection.

    Returns
    -------
    int
        The diameter (exact) or a lower bound that is usually tight.
    """
    require_connected(graph, "diameter")
    if exact or graph.num_nodes <= num_probes:
        best = 0
        for node in range(graph.num_nodes):
            best = max(best, int(distances_from(graph, node).max()))
        return best
    generator = ensure_rng(rng)
    seeds = generator.choice(graph.num_nodes, size=num_probes, replace=False)
    best = 0
    for seed in seeds:
        dist = distances_from(graph, int(seed))
        far = int(np.argmax(dist))
        best = max(best, int(distances_from(graph, far).max()))
    return best


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics of a topology — the columns of Table 1.

    Attributes
    ----------
    name:
        Human-readable topology name.
    num_nodes / num_edges:
        Order and size of the graph.
    average_degree:
        ``2·E/N``.
    max_degree / min_degree:
        Degree extremes.
    diameter:
        Diameter (or the double-sweep bound; see :func:`diameter`).
    average_path_length:
        Mean hop distance over sampled source-destination pairs.
    """

    name: str
    num_nodes: int
    num_edges: int
    average_degree: float
    max_degree: int
    min_degree: int
    diameter: int
    average_path_length: float

    def as_row(self) -> Tuple:
        """The stats as a table row (see Table 1 benchmarks)."""
        return (
            self.name,
            self.num_nodes,
            self.num_edges,
            self.average_degree,
            self.max_degree,
            self.diameter,
            self.average_path_length,
        )

    ROW_HEADERS = (
        "network",
        "nodes",
        "links",
        "avg degree",
        "max degree",
        "diameter",
        "avg path len",
    )


def graph_stats(
    graph: Graph,
    name: str = "graph",
    path_samples: int = 32,
    exact_diameter: Optional[bool] = None,
    rng: RandomState = None,
) -> GraphStats:
    """Compute :class:`GraphStats` for a connected graph.

    ``average_path_length`` is estimated from BFS sweeps out of
    ``path_samples`` random sources (all sources when the graph is small);
    the diameter is exact for graphs up to 512 nodes unless overridden.
    """
    require_connected(graph, "graph_stats")
    generator = ensure_rng(rng)
    degrees = graph.degrees

    if exact_diameter is None:
        exact_diameter = graph.num_nodes <= 512
    diam = diameter(graph, exact=exact_diameter, rng=generator)

    if graph.num_nodes <= path_samples:
        sources = np.arange(graph.num_nodes)
    else:
        sources = generator.choice(graph.num_nodes, size=path_samples, replace=False)
    total = 0.0
    count = 0
    for source in sources:
        dist = distances_from(graph, int(source))
        total += float(dist.sum())  # source contributes 0
        count += graph.num_nodes - 1
    avg_path = total / count if count else 0.0

    return GraphStats(
        name=name,
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        average_degree=graph.average_degree,
        max_degree=int(degrees.max()),
        min_degree=int(degrees.min()),
        diameter=diam,
        average_path_length=avg_path,
    )
