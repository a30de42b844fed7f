"""Pluggable multicast tree builders: the ``algorithm`` axis.

The paper measures shortest-path trees only.  Whether the Chuang-Sirbu
``L(m) ∝ m^0.8`` exponent is a property of *network structure* or of
*SPT routing* is ROADMAP item 3, and answering it needs every other
tree-construction discipline to flow through the same measurement
pipeline.  This module is that seam: a registry of named tree builders
(mirroring :mod:`repro.topology.registry`), each producing the uniform
:class:`~repro.multicast.tree.DeliveryTree` — link count, depth
profile, per-receiver path cost — so sweeps, estimator tables, the
serving tier, and the figure drivers can switch algorithm by name.

Registered builders
-------------------
``spt``
    The paper's shortest-path tree: union of BFS-first paths from the
    source.  Wraps :class:`~repro.multicast.tree.MulticastTreeCounter`,
    so its link counts are bit-identical to the Monte-Carlo engine's.
``steiner-tm``
    Takahashi–Matsuyama nearest-receiver grafting (2-approximation of
    the Steiner optimum; the paper's refs [10–12] frame multicast
    efficiency against that optimum).  Guarded to never exceed the SPT
    tree: the raw heuristic has no such guarantee on tie-heavy
    unit-cost graphs, and a *routing* comparison should charge the
    heuristic only when it actually wins, so the builder returns
    whichever of {TM, SPT} is smaller.
``dst-approx``
    Dynamic Steiner join semantics (the greedy online heuristic used by
    resilient-multicast designs): each receiver, **in arrival order**,
    attaches via its shortest path to the *current* tree.  Identical to
    ``steiner-tm`` except for the attachment order — arrival order
    instead of nearest-first — which makes it order-sensitive, exactly
    like real join protocols.
``kdisjoint``
    ``k`` maximally-edge-disjoint redundant trees (k = 2..3): the
    primary is the SPT tree; each backup re-runs BFS on the graph with
    all previously used links pruned, falling back to the primary path
    for receivers the pruned graph can no longer reach (those links
    stay *unprotected* and are reported as such).  ``build_tree``
    returns the primary; the full set with per-link protection
    accounting comes from :func:`build_redundant_set`, and sweep counts
    measure the set's distinct-link total (installed forwarding state).

Hot loops should pass the source's ``forest=`` (one BFS per source);
the sweep engine does, via :func:`count_tree_links`, which counts a
whole receiver matrix per call — batched for ``spt``, per-set builder
fallback otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import ExperimentError, GraphError
from repro.graph.core import Graph
from repro.graph.paths import ShortestPathForest, bfs
from repro.multicast.tree import DeliveryTree, MulticastTreeCounter, _spt_tree

__all__ = [
    "BuilderSpec",
    "BUILDER_NAMES",
    "DEFAULT_REDUNDANCY",
    "MAX_REDUNDANCY",
    "RedundantTreeSet",
    "build_redundant_set",
    "build_tree",
    "builder_spec",
    "count_tree_links",
]

#: Redundant-set sizes the ``kdisjoint`` builder supports.
DEFAULT_REDUNDANCY = 2
MAX_REDUNDANCY = 3


@dataclass(frozen=True)
class BuilderSpec:
    """A named tree-construction discipline.

    Attributes
    ----------
    name:
        Registry key (the ``algorithm`` value everywhere downstream).
    description:
        One-line human summary.
    build:
        ``build(graph, source, receivers, forest=None) -> DeliveryTree``.
    count:
        ``count(graph, source, receiver_matrix, forest=None)`` returning
        per-row int64 link counts for a ``(num_sets, size)`` matrix —
        what the sweep engine calls.
    """

    name: str
    description: str
    build: Callable[..., DeliveryTree]
    count: Callable[..., np.ndarray]


def builder_spec(name: str) -> BuilderSpec:
    """Look up a registered builder; raises on unknown names."""
    spec = _SPECS.get(name)
    if spec is None:
        raise ExperimentError(
            f"unknown tree algorithm {name!r}; available: "
            f"{', '.join(sorted(_SPECS))}"
        )
    return spec


def build_tree(
    algorithm: str,
    graph: Graph,
    source: int,
    receivers: Sequence[int],
    forest: Optional[ShortestPathForest] = None,
) -> DeliveryTree:
    """Build one delivery tree with the named algorithm.

    For ``kdisjoint`` this returns the redundant set's *primary* tree
    (tagged with the algorithm); use :func:`build_redundant_set` for
    the full set and its protection accounting.
    """
    return builder_spec(algorithm).build(graph, source, receivers, forest=forest)


def count_tree_links(
    algorithm: str,
    graph: Graph,
    source: int,
    receiver_matrix: Sequence[Sequence[int]],
    forest: Optional[ShortestPathForest] = None,
) -> np.ndarray:
    """Per-row delivery-tree link counts for a receiver matrix.

    The sweep engine's entry point: ``spt`` runs the batched counter
    walk (bit-identical to :class:`MulticastTreeCounter`), the other
    algorithms build one tree per row.  ``kdisjoint`` rows count the
    default-``k`` set's distinct links (redundancy overhead).
    """
    return builder_spec(algorithm).count(
        graph, source, receiver_matrix, forest=forest
    )


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def _resolve_forest(
    graph: Graph, source: int, forest: Optional[ShortestPathForest]
) -> ShortestPathForest:
    if forest is None:
        return bfs(graph, source, tie_break="first")
    if forest.source != source:
        raise GraphError(
            f"forest is rooted at {forest.source}, not at source {source}"
        )
    if forest.num_nodes != graph.num_nodes:
        raise GraphError(
            f"forest covers {forest.num_nodes} nodes but the graph has "
            f"{graph.num_nodes}"
        )
    return forest


def _as_matrix(receiver_matrix) -> np.ndarray:
    matrix = np.asarray(receiver_matrix, dtype=np.int64)
    if matrix.ndim != 2:
        raise GraphError(
            f"receiver_matrix must be 2-D (num_sets, size), "
            f"got shape {matrix.shape}"
        )
    return matrix


def _graft_chain(
    in_tree: np.ndarray,
    edges: List[Tuple[int, int]],
    parent: np.ndarray,
    target: int,
) -> None:
    """Attach ``target``'s parent-chain path to the growing tree.

    ``in_tree`` is the tree's bool node mask, updated in place.
    """
    node = target
    while not in_tree[node]:
        up = int(parent[node])
        edges.append((up, node))
        in_tree[node] = True
        node = up


def _tree_arrays(
    in_tree: np.ndarray, edges: List[Tuple[int, int]]
) -> Tuple[np.ndarray, np.ndarray]:
    """``(nodes, edges)`` int64 arrays for a :class:`DeliveryTree`."""
    return (
        np.flatnonzero(in_tree).astype(np.int64, copy=False),
        np.asarray(edges, dtype=np.int64).reshape(-1, 2),
    )


# ----------------------------------------------------------------------
# spt — the paper's shortest-path tree
# ----------------------------------------------------------------------


def _build_spt(
    graph: Graph,
    source: int,
    receivers: Sequence[int],
    forest: Optional[ShortestPathForest] = None,
) -> DeliveryTree:
    forest = _resolve_forest(graph, graph.check_node(source), forest)
    return _spt_tree(forest, receivers)


def _count_spt(
    graph: Graph,
    source: int,
    receiver_matrix,
    forest: Optional[ShortestPathForest] = None,
) -> np.ndarray:
    forest = _resolve_forest(graph, graph.check_node(source), forest)
    return MulticastTreeCounter(forest).tree_sizes_batch(
        _as_matrix(receiver_matrix)
    )


# ----------------------------------------------------------------------
# steiner-tm and dst-approx — grafting shortest paths onto the tree
# ----------------------------------------------------------------------


def _graft_tree(
    graph: Graph,
    source: int,
    receivers: Sequence[int],
    nearest: bool,
    forest: Optional[ShortestPathForest] = None,
) -> DeliveryTree:
    """Grow a tree by grafting one shortest path to it per step.

    With ``nearest`` each step grafts the receiver closest to the tree
    by ``(distance, id)`` — Takahashi–Matsuyama, at most twice the
    Steiner optimum, *unguarded* — otherwise the first receiver not yet
    in the tree, in arrival order (``dst-approx``).

    One int32 distance-to-tree array serves the whole build.  It starts
    as a copy of the source forest's ``dist`` (the tree is the source
    alone; cached forests are frozen).  A graft walks from its target to
    the tree, each step to the lowest-id neighbour one hop nearer, then
    lowers the array from the new tree nodes (:func:`_lower_distances`).
    That walk elects the parent a multi-source BFS from the whole tree
    would: each BFS level's frontier is the sorted set of every node one
    level nearer, so its first arc into a node comes from the lowest-id
    such neighbour.  Every tree equals the one a fresh BFS per graft
    builds, without an n-sized allocation per graft.
    """
    source = graph.check_node(source)
    pending = np.asarray(
        [graph.check_node(int(r)) for r in receivers], dtype=np.int64
    )
    if nearest:
        # Sorted ids: the first minimum distance is the smallest id.
        pending = np.unique(pending)
    dist = _resolve_forest(graph, source, forest).dist.astype(np.int32)
    indptr, indices = graph.indptr, graph.indices
    edges: List[Tuple[int, int]] = []
    while True:
        pending = pending[dist[pending] != 0]
        if not pending.size:
            break
        # An unreachable receiver (-1) reads as the largest uint32, so
        # it becomes the target only once no reachable one is left.
        pick = np.argmin(dist[pending].view(np.uint32)) if nearest else 0
        target = int(pending[pick])
        if dist[target] < 0:
            raise GraphError(f"receiver {target} is unreachable from the tree")
        grafted = []
        node = target
        while dist[node]:
            around = indices[indptr[node]:indptr[node + 1]]
            up = int(around[dist[around] == dist[node] - 1].min())
            edges.append((up, node))
            grafted.append(node)
            node = up
        _lower_distances(graph, dist, grafted)
    nodes, edge_array = _tree_arrays(dist == 0, edges)
    return DeliveryTree(
        source=source,
        receivers=tuple(int(r) for r in receivers),
        nodes=nodes,
        edges=edge_array,
        algorithm="steiner-tm" if nearest else "dst-approx",
    )


def _lower_distances(
    graph: Graph, dist: np.ndarray, seeds: Sequence[int]
) -> None:
    """Make ``seeds`` tree nodes: lower ``dist`` in place to the new tree.

    A level-synchronous pass from the seeds that visits only the nodes
    whose distance it improves, and stops at the first level that
    improves none.  It misses no node: every node on a shortest path
    from a seed to an improved node is improved too.  Nothing reads a
    parent, so a level is one gather, one filter and a sorted dedupe.
    """
    indptr, indices = graph.indptr, graph.indices
    frontier = np.asarray(seeds, dtype=np.int32)
    dist[frontier] = 0
    level = 0
    while frontier.size:
        level += 1
        # Every arc leaving the frontier: node-major runs from indptr.
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        arcs = np.repeat(starts - np.cumsum(counts) + counts, counts)
        arcs += np.arange(arcs.size, dtype=np.int64)
        around = indices[arcs]
        closer = around[dist[around] > level]
        dist[closer] = level
        closer.sort()
        fresh = np.empty(closer.size, dtype=bool)
        fresh[:1] = True
        np.not_equal(closer[1:], closer[:-1], out=fresh[1:])
        frontier = closer[fresh]


def _build_steiner_tm(
    graph: Graph,
    source: int,
    receivers: Sequence[int],
    forest: Optional[ShortestPathForest] = None,
) -> DeliveryTree:
    source = graph.check_node(source)
    forest = _resolve_forest(graph, source, forest)
    spt = _spt_tree(forest, receivers)
    heuristic = _graft_tree(graph, source, receivers, True, forest)
    # Best-of guard (see module docs): the 2-approximation may lose to
    # the SPT tree outright on tie-heavy graphs; charge it the smaller.
    if heuristic.num_links < spt.num_links:
        return heuristic
    return replace(spt, algorithm="steiner-tm")


def _count_steiner_tm(
    graph: Graph,
    source: int,
    receiver_matrix,
    forest: Optional[ShortestPathForest] = None,
) -> np.ndarray:
    source = graph.check_node(source)
    forest = _resolve_forest(graph, source, forest)
    matrix = _as_matrix(receiver_matrix)
    # One batched walk covers the SPT side of the guard for every row.
    spt_links = MulticastTreeCounter(forest).tree_sizes_batch(matrix)
    out = np.empty(matrix.shape[0], dtype=np.int64)
    for i, row in enumerate(matrix):
        heuristic = _graft_tree(graph, source, row, True, forest)
        out[i] = min(heuristic.num_links, int(spt_links[i]))
    return out


def _build_dst_approx(
    graph: Graph,
    source: int,
    receivers: Sequence[int],
    forest: Optional[ShortestPathForest] = None,
) -> DeliveryTree:
    return _graft_tree(graph, source, receivers, False, forest)


def _count_dst_approx(
    graph: Graph,
    source: int,
    receiver_matrix,
    forest: Optional[ShortestPathForest] = None,
) -> np.ndarray:
    source = graph.check_node(source)
    forest = _resolve_forest(graph, source, forest)
    matrix = _as_matrix(receiver_matrix)
    out = np.empty(matrix.shape[0], dtype=np.int64)
    for i, row in enumerate(matrix):
        out[i] = _graft_tree(graph, source, row, False, forest).num_links
    return out


# ----------------------------------------------------------------------
# kdisjoint — redundant edge-disjoint trees with protection accounting
# ----------------------------------------------------------------------


def _undirected_links(edges: np.ndarray) -> Set[Tuple[int, int]]:
    return {
        (int(min(u, v)), int(max(u, v)))
        for u, v in np.asarray(edges).reshape(-1, 2)
    }


@dataclass(frozen=True)
class RedundantTreeSet:
    """``k`` redundant delivery trees plus their protection ledger.

    ``trees[0]`` is the primary (the SPT tree); each later tree avoids
    every link used by the trees before it wherever the pruned graph
    still reaches the receiver, falling back to the primary path
    otherwise.  Links appearing in more than one tree are *shared* —
    their failure takes out every tree that uses them — and the primary
    links absent from every backup are *protected*.
    """

    source: int
    receivers: Tuple[int, ...]
    trees: Tuple[DeliveryTree, ...]

    @property
    def k(self) -> int:
        return len(self.trees)

    @property
    def num_links(self) -> int:
        """Distinct links across all trees — installed forwarding state
        (what the redundancy-overhead sweeps count)."""
        links: Set[Tuple[int, int]] = set()
        for tree in self.trees:
            links |= _undirected_links(tree.edges)
        return len(links)

    @property
    def total_links(self) -> int:
        """Sum of per-tree link counts (bandwidth-reservation cost)."""
        return sum(tree.num_links for tree in self.trees)

    @property
    def shared_links(self) -> int:
        """Links used by two or more trees (unprotected overlap)."""
        uses: Dict[Tuple[int, int], int] = {}
        for tree in self.trees:
            for link in _undirected_links(tree.edges):
                uses[link] = uses.get(link, 0) + 1
        return sum(1 for count in uses.values() if count > 1)

    @property
    def fully_disjoint(self) -> bool:
        """Whether no link is used by more than one tree."""
        return self.total_links == self.num_links

    @property
    def protected_fraction(self) -> float:
        """Fraction of primary links no backup depends on — the share
        of the primary tree that can fail with every backup intact."""
        primary = _undirected_links(self.trees[0].edges)
        if not primary:
            return 1.0
        backups: Set[Tuple[int, int]] = set()
        for tree in self.trees[1:]:
            backups |= _undirected_links(tree.edges)
        return 1.0 - len(primary & backups) / len(primary)


def _pruned_graph(graph: Graph, banned: Set[Tuple[int, int]]) -> Graph:
    """The graph with ``banned`` undirected links removed."""
    indptr, indices = graph.indptr, graph.indices
    heads = np.repeat(
        np.arange(graph.num_nodes, dtype=np.int64), np.diff(indptr)
    )
    tails = indices.astype(np.int64)
    forward = heads < tails
    heads, tails = heads[forward], tails[forward]
    if banned:
        banned_keys = np.asarray(
            [u * graph.num_nodes + v for u, v in banned], dtype=np.int64
        )
        keep = np.isin(
            heads * graph.num_nodes + tails, banned_keys, invert=True
        )
        heads, tails = heads[keep], tails[keep]
    return Graph.from_edges(
        graph.num_nodes, np.column_stack([heads, tails])
    )


def _backup_tree(
    source: int,
    receivers: Tuple[int, ...],
    sub_forest: ShortestPathForest,
    primary_forest: ShortestPathForest,
) -> DeliveryTree:
    """One backup tree: pruned-graph paths, primary-path fallback.

    Each receiver walks the pruned-subgraph parent chain when the
    subgraph still reaches it, else its primary chain; the shared
    visited mask admits one parent edge per node, so the union is a tree
    whatever mix of chains built it.
    """
    in_tree = np.zeros(sub_forest.num_nodes, dtype=bool)
    in_tree[source] = True
    edges: List[Tuple[int, int]] = []
    for receiver in receivers:
        protected = sub_forest.dist[receiver] >= 0
        parent = sub_forest.parent if protected else primary_forest.parent
        _graft_chain(in_tree, edges, parent, receiver)
    nodes, edge_array = _tree_arrays(in_tree, edges)
    return DeliveryTree(
        source=source,
        receivers=receivers,
        nodes=nodes,
        edges=edge_array,
        algorithm="kdisjoint",
    )


def build_redundant_set(
    graph: Graph,
    source: int,
    receivers: Sequence[int],
    k: int = DEFAULT_REDUNDANCY,
    forest: Optional[ShortestPathForest] = None,
) -> RedundantTreeSet:
    """Build ``k`` maximally-edge-disjoint delivery trees.

    The primary is the SPT tree; backup ``t`` runs BFS on the graph
    minus every link used by trees ``0..t-1`` (so on 2-edge-connected
    graphs ``k=2`` yields fully disjoint trees), with unreachable
    receivers falling back to their primary path — counted as
    unprotected in the set's ledger rather than failing the build.
    """
    k = int(k)
    if not 2 <= k <= MAX_REDUNDANCY:
        raise ExperimentError(
            f"kdisjoint supports k in [2, {MAX_REDUNDANCY}], got {k}"
        )
    source = graph.check_node(source)
    forest = _resolve_forest(graph, source, forest)
    primary = replace(
        _build_spt(graph, source, receivers, forest=forest),
        algorithm="kdisjoint",
    )
    trees: List[DeliveryTree] = [primary]
    banned: Set[Tuple[int, int]] = _undirected_links(primary.edges)
    reachable = tuple(
        r for r in primary.receivers if r != source
    )
    for _ in range(k - 1):
        sub = _pruned_graph(graph, banned)
        sub_forest = bfs(sub, source, tie_break="first")
        backup = _backup_tree(source, reachable, sub_forest, forest)
        trees.append(backup)
        banned |= _undirected_links(backup.edges)
    return RedundantTreeSet(
        source=source,
        receivers=primary.receivers,
        trees=tuple(trees),
    )


def _build_kdisjoint(
    graph: Graph,
    source: int,
    receivers: Sequence[int],
    forest: Optional[ShortestPathForest] = None,
) -> DeliveryTree:
    return build_redundant_set(
        graph, source, receivers, k=DEFAULT_REDUNDANCY, forest=forest
    ).trees[0]


def _count_kdisjoint(
    graph: Graph,
    source: int,
    receiver_matrix,
    forest: Optional[ShortestPathForest] = None,
) -> np.ndarray:
    matrix = _as_matrix(receiver_matrix)
    forest = _resolve_forest(graph, graph.check_node(source), forest)
    out = np.empty(matrix.shape[0], dtype=np.int64)
    for i, row in enumerate(matrix):
        out[i] = build_redundant_set(
            graph, source, row, k=DEFAULT_REDUNDANCY, forest=forest
        ).num_links
    return out


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_SPECS: Dict[str, BuilderSpec] = {
    spec.name: spec
    for spec in (
        BuilderSpec(
            name="spt",
            description="shortest-path tree (the paper's routing; batched)",
            build=_build_spt,
            count=_count_spt,
        ),
        BuilderSpec(
            name="steiner-tm",
            description="Takahashi-Matsuyama Steiner 2-approximation",
            build=_build_steiner_tm,
            count=_count_steiner_tm,
        ),
        BuilderSpec(
            name="dst-approx",
            description="dynamic Steiner joins in arrival order",
            build=_build_dst_approx,
            count=_count_dst_approx,
        ),
        BuilderSpec(
            name="kdisjoint",
            description="k edge-disjoint redundant trees (k=2 default)",
            build=_build_kdisjoint,
            count=_count_kdisjoint,
        ),
    )
}

#: Registration-order builder names (the CLI's --algorithm choices).
BUILDER_NAMES: Tuple[str, ...] = tuple(_SPECS)
