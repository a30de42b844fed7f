"""Steiner-tree heuristic multicast — how much does SPT routing waste?

The paper (and IP multicast generally) builds *shortest-path trees*:
every receiver gets its unicast-shortest path from the source.  The
cheapest possible delivery tree is instead a *Steiner minimal tree*,
which is NP-hard; Waxman's multipoint-routing work (the paper's refs
[10, 11]) and Wei & Estrin's comparisons [12] both frame multicast
efficiency against that optimum.

This module implements the classic Takahashi–Matsuyama heuristic — grow
the tree by repeatedly attaching the receiver currently *closest to the
tree* via its shortest path — which is a 2-approximation of the Steiner
optimum on unweighted graphs and typically within a few percent of it
in practice.  Comparing ``L_SPT(m)`` against ``L_TM(m)`` measures the
price of shortest-path (i.e. deployable) multicast routing, and whether
the Chuang-Sirbu exponent survives at the (near-)optimal tree — it
does, which strengthens the law's claim to be about network structure
rather than about a routing algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import GraphError, SamplingError
from repro.graph.core import Graph
from repro.graph.paths import multi_source_bfs

__all__ = ["SteinerTree", "takahashi_matsuyama_tree", "multi_source_distances"]


def multi_source_distances(
    graph: Graph, sources: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """BFS from a *set* of sources simultaneously.

    Returns ``(dist, parent)`` where ``dist[v]`` is the hop distance
    from ``v`` to the nearest source and following ``parent`` pointers
    from any reachable node terminates at some source (whose parent is
    −1).

    Thin wrapper over :func:`repro.graph.paths.multi_source_bfs` — the
    same BFS kernel as :func:`repro.graph.paths.bfs`, seeded with the
    whole source set at level 0 — kept for the sampling-layer error
    contract (an empty source set is a :class:`SamplingError` here) and
    for backward compatibility.
    """
    seed = np.unique(np.asarray(list(sources), dtype=np.int64))
    if seed.size == 0:
        raise SamplingError("multi-source BFS needs at least one source")
    return multi_source_bfs(graph, seed)


@dataclass(frozen=True)
class SteinerTree:
    """A heuristic Steiner tree for one multicast group.

    Attributes
    ----------
    source:
        The multicast source (always in the tree).
    nodes:
        All tree nodes, sorted.
    edges:
        Tree links as ``(u, v)`` pairs; ``len(edges) == len(nodes) − 1``.
    """

    source: int
    nodes: np.ndarray
    edges: np.ndarray

    @property
    def num_links(self) -> int:
        """Number of links in the tree."""
        return self.edges.shape[0]

    def covers(self, node: int) -> bool:
        """Whether ``node`` is in the tree."""
        pos = int(np.searchsorted(self.nodes, node))
        return pos < self.nodes.shape[0] and int(self.nodes[pos]) == node


def takahashi_matsuyama_tree(
    graph: Graph,
    source: int,
    receivers: Sequence[int],
) -> SteinerTree:
    """Grow a near-optimal delivery tree by nearest-receiver attachment.

    At each step, a multi-source BFS from the current tree finds the
    closest not-yet-connected receiver, whose shortest path to the tree
    is then grafted.  Runs ``O(groups · E)``; the guarantee is cost at
    most twice the Steiner optimum.

    Parameters
    ----------
    graph:
        A connected graph.
    source:
        The multicast source.
    receivers:
        Receiver sites (duplicates and the source itself are fine).
    """
    source = graph.check_node(source)
    wanted: Set[int] = {graph.check_node(int(r)) for r in receivers}
    wanted.discard(source)

    in_tree: Set[int] = {source}
    edges: List[Tuple[int, int]] = []
    remaining = set(wanted)
    while remaining:
        dist, parent = multi_source_distances(graph, sorted(in_tree))
        reachable = [(int(dist[r]), r) for r in remaining if dist[r] >= 0]
        if not reachable:
            missing = sorted(remaining)[0]
            raise GraphError(
                f"receiver {missing} is unreachable from the tree"
            )
        _, target = min(reachable)
        # Graft the shortest path from the tree out to the target.
        node = target
        while node not in in_tree:
            up = int(parent[node])
            edges.append((up, node))
            in_tree.add(node)
            node = up
        remaining -= in_tree
    nodes = np.asarray(sorted(in_tree), dtype=np.int64)
    return SteinerTree(
        source=source,
        nodes=nodes,
        edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
    )
