"""Shortest-path machinery: BFS forests, distance matrices, Dijkstra.

Everything the paper measures — multicast tree sizes ``L(m)``, unicast path
lengths ``ū``, reachability profiles ``S(r)`` — derives from single-source
shortest paths on unweighted graphs, so the one level-synchronous
vectorized BFS kernel — behind :func:`bfs`, :func:`distances_from`,
:func:`bfs_from_many` and :func:`multi_source_bfs` alike — is the hottest
code path in the repository.  Each level dedupes its arcs without a
sort: every fresh neighbour is claimed by the lowest arc position that
reaches it (``np.minimum.at``), which elects the same first arc a
stable sort would.

Shortest-path *trees* are not unique on graphs with equal-cost multipaths.
The ``tie_break`` policy selects among them:

* ``"first"`` (default): deterministic — among equal-distance parents the
  one reached earliest in (frontier-order, adjacency-order) wins.  This is
  the conventional BFS-parent choice.
* ``"random"``: each node picks uniformly among its candidate parents at
  its BFS level, which is the natural model of routers hashing among
  equal-cost routes.  Requires an ``rng``.

The effect of this choice on tree size is one of the ablations indexed in
DESIGN.md.

A forest also carries, on demand, the preorder tables the tree counter
reads instead of climbing (:attr:`ShortestPathForest.preorder`): ranks
from subtree sizes and a range-min table over depth in preorder.  They
are built once and kept for the forest's lifetime, because the forest's
rows are read-only.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.exceptions import GraphError, NodeError
from repro.graph.core import Graph
from repro.utils.rng import RandomState, ensure_rng

__all__ = [
    "ShortestPathForest",
    "bfs",
    "bfs_from_many",
    "multi_source_bfs",
    "distances_from",
    "distance_matrix",
    "dijkstra",
    "uniform_arc_weights",
]

_TIE_BREAKS = ("first", "random")

# One inc per preorder-table build, labelled with whether the forest
# keeps the tables (``true``) or the counting call drops them after use.
_OBS_PREORDER_TABLES = obs.counter(
    "repro_preorder_tables_total",
    "Preorder-table builds, by whether the forest keeps them.",
    labelnames=("kept",),
)

#: ``(rank, table, left, right)``: see :func:`_preorder_tables`.
PreorderTables = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class ShortestPathForest:
    """The result of a single-source shortest-path computation.

    Attributes
    ----------
    source:
        The source node.
    dist:
        Distance from the source to every node; ``-1`` marks unreachable
        nodes.  Integer hop counts for BFS, float costs for Dijkstra are
        rounded into this array only when integral — Dijkstra returns its
        own float array alongside.
    parent:
        Shortest-path-tree parent of every node; ``-1`` for the source and
        for unreachable nodes.  Following ``parent`` pointers from any
        reachable node terminates at the source.
    reused:
        Whether a :class:`~repro.graph.forest_cache.ForestCache` has
        handed this forest out more than once (:meth:`mark_reused`).
        BFS forests and distance-store rows are never marked.
    """

    source: int
    dist: np.ndarray
    parent: np.ndarray
    reused: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.dist.setflags(write=False)
        self.parent.setflags(write=False)

    def mark_reused(self) -> None:
        """Record that a cache handed this forest out again.

        The one write to a frozen forest: it changes no array, only
        whether a sparse counting call keeps :attr:`preorder`.
        """
        object.__setattr__(self, "reused", True)

    @functools.cached_property
    def preorder(self) -> PreorderTables:
        """Preorder tables for counting trees without a climb, kept.

        Built on first access and held for the forest's lifetime: the
        rows are read-only, so the tables cannot go stale, and every
        array in them is read-only too.  A kept 10k-node forest holds
        ~180 KB (``rank`` and ``table``); ``left``/``right`` are shared
        with every forest of the same reachable count.
        :class:`~repro.multicast.tree.MulticastTreeCounter` keeps them
        for sparse calls on a :attr:`reused` forest only.
        """
        _OBS_PREORDER_TABLES.inc(kept="true")
        return _preorder_tables(self.dist, self.parent)

    @property
    def kept_preorder(self) -> Optional[PreorderTables]:
        """:attr:`preorder` if it has been built, else ``None``."""
        return self.__dict__.get("preorder")

    def build_preorder(self) -> PreorderTables:
        """Fresh preorder tables that the forest does not keep."""
        _OBS_PREORDER_TABLES.inc(kept="false")
        return _preorder_tables(self.dist, self.parent)

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the underlying graph."""
        return self.dist.shape[0]

    @property
    def reachable_mask(self) -> np.ndarray:
        """Boolean mask of nodes reachable from the source."""
        return self.dist >= 0

    @functools.cached_property
    def num_reachable(self) -> int:
        """Count of reachable nodes, including the source itself.

        Computed once per forest: the rows are read-only, so the count
        cannot change.
        """
        return int(np.count_nonzero(self.dist >= 0))

    @property
    def eccentricity(self) -> int:
        """Greatest finite distance from the source."""
        return int(self.dist.max(initial=0))

    def path_to(self, node: int) -> List[int]:
        """The shortest path from the source to ``node``, inclusive.

        Raises
        ------
        GraphError
            If ``node`` is unreachable from the source.
        """
        node = int(node)
        if not 0 <= node < self.num_nodes:
            raise NodeError(node, self.num_nodes)
        if self.dist[node] < 0:
            raise GraphError(
                f"node {node} is not reachable from source {self.source}"
            )
        path = [node]
        while path[-1] != self.source:
            path.append(int(self.parent[path[-1]]))
        path.reverse()
        return path


def _sibling_levels(dist: np.ndarray, parent: np.ndarray):
    """Reachable nodes sorted by depth, siblings adjacent.

    Returns ``(order, depth, levels)``: ``depth == dist[order]``, and
    ``levels[d - 1]`` is ``(nodes, parents, runs)`` for depth ``d >= 1``,
    ``runs`` marking where each run of siblings starts.  The order of
    siblings within a run is free.
    """
    reach = np.flatnonzero(dist >= 0)
    order = reach[np.argsort(
        dist[reach].astype(np.int64) * (dist.shape[0] + 1) + parent[reach]
    )]
    depth = dist[order]
    eccentricity = int(depth[-1])
    bounds = np.searchsorted(depth, np.arange(eccentricity + 2, dtype=np.int32))
    levels = []
    for level in range(1, eccentricity + 1):
        nodes = order[bounds[level]:bounds[level + 1]]
        parents = parent[nodes]
        runs = np.flatnonzero(np.r_[True, parents[1:] != parents[:-1]])
        levels.append((nodes, parents, runs))
    return order, depth, levels


def _subtree_sizes(levels, num_nodes: int) -> np.ndarray:
    """Nodes in each reachable node's subtree, itself included.

    One bottom-up pass over :func:`_sibling_levels`' levels: each run
    of siblings adds its sizes to their parent.  Unreachable nodes
    read 1.
    """
    size = np.ones(num_nodes, dtype=np.int32)
    for nodes, parents, runs in reversed(levels):
        size[parents[runs]] += np.add.reduceat(size[nodes], runs)
    return size


@functools.lru_cache(maxsize=4)
def _gap_offsets(count: int, rows: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(left, right)`` for a sparse table over ``count`` ranks.

    They depend on nothing but the reachable count (``rows`` follows
    from it), so every forest with that count shares one read-only
    pair.
    """
    log2 = np.zeros(count, dtype=np.int64)
    for k in range(1, rows):
        log2[1 << k:] += 1
    index = np.int32 if (rows + 1) * count < 2**31 else np.int64
    left = (log2 * count + 1).astype(index)
    right = (log2 * count - (1 << log2) + 1).astype(index)
    left[0] = right[0] = rows * count
    left.setflags(write=False)
    right.setflags(write=False)
    return left, right


def _preorder_tables(dist: np.ndarray, parent: np.ndarray) -> PreorderTables:
    """``(rank, table, left, right)`` for the preorder counting path.

    ``rank[v]`` is reachable node ``v``'s preorder rank (the source is
    0): a node's rank is its parent's plus one plus the subtree sizes
    (:func:`_subtree_sizes`) of the siblings ranked before it, filled
    top-down by BFS level.  ``table`` is a flattened sparse table over
    depth in preorder: row ``k`` holds the min over ranks
    ``[i, i + 2**k)``, and a last row holds depth + 1.  For a rank gap
    ``g >= 1``, ``left[g] + prev`` and ``right[g] + cur`` are the two
    row-``k`` cells (``2**k <= g``) covering ranks ``(prev, cur]``; for
    ``g == 0`` both point at the depth + 1 row.  Depths are stored as
    int8 when the eccentricity plus one fits, else as int32.  Every
    array returned is read-only.
    """
    dist = dist.astype(np.int32, copy=False)
    parent = parent.astype(np.int32, copy=False)
    order, depth, levels = _sibling_levels(dist, parent)
    size = _subtree_sizes(levels, dist.shape[0])
    rank = np.zeros(dist.shape[0], dtype=np.int32)
    for nodes, parents, runs in levels:
        sizes = size[nodes]
        before = np.cumsum(sizes) - sizes
        run_start = np.repeat(before[runs], np.diff(np.r_[runs, nodes.size]))
        rank[nodes] = rank[parents] + 1 + (before - run_start)

    count = order.size
    eccentricity = int(depth[-1])
    dtype = np.int8 if eccentricity < np.iinfo(np.int8).max else np.int32
    rows = max(count - 1, 1).bit_length()
    table = np.empty((rows + 1, count), dtype=dtype)
    table[0, rank[order]] = depth
    for k in range(1, rows):
        half = 1 << (k - 1)
        table[k] = table[k - 1]
        np.minimum(
            table[k - 1, :count - half], table[k - 1, half:],
            out=table[k, :count - half],
        )
    table[rows] = table[0] + 1
    table = table.ravel()
    rank.setflags(write=False)
    table.setflags(write=False)
    return (rank, table) + _gap_offsets(count, rows)


def _gather_frontier_arcs(
    indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray
):
    """All (neighbour, frontier-parent) arc pairs leaving ``frontier``."""
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return (
            np.empty(0, dtype=indices.dtype),
            np.empty(0, dtype=frontier.dtype),
        )
    cum = np.cumsum(counts)
    flat = np.arange(total, dtype=np.int64) - np.repeat(cum - counts, counts)
    flat += np.repeat(starts, counts)
    return indices[flat], np.repeat(frontier, counts)


def _levels(graph: Graph, seeds, generator=None):
    """The one BFS kernel: level-synchronous search whose level 0 is ``seeds``.

    Returns int32 ``(dist, parent)``.  Among equal-distance candidate
    parents the one reached earliest in (frontier-order, adjacency-order)
    wins, unless ``generator`` shuffles each level's arcs first
    (``tie_break="random"``, where the first arc in permuted order wins).
    Seeds must be valid, unique node ids; their order is the level-0
    frontier order.

    Each level elects its first arcs with a claim instead of a sort: the
    ``k`` fresh arcs are numbered ``0..k-1``, every target's ``parent``
    slot is set to ``k``, and ``np.minimum.at`` lowers it to the smallest
    arc number that reaches the target, so an arc wins exactly when its
    target holds its number.  ``minimum.at`` is defined for repeated
    indices; a plain fancy-index scatter is not (numpy does not promise
    which of several writes to one slot lands).  ``parent`` can hold the
    claim because every claimed node's parent is overwritten in the same
    level.  The next frontier is the sorted winner set, exactly what
    ``np.unique`` would return.  ``k`` must fit in int32, which holds
    for any graph whose arc count does.
    """
    n = graph.num_nodes
    dist = np.full(n, -1, dtype=np.int32)
    parent = np.full(n, -1, dtype=np.int32)
    frontier = np.asarray(seeds, dtype=np.int32)
    dist[frontier] = 0
    indptr, indices = graph.indptr, graph.indices

    level = 0
    while frontier.size:
        level += 1
        neighbours, parents = _gather_frontier_arcs(indptr, indices, frontier)
        if neighbours.size == 0:
            break
        fresh = dist[neighbours] < 0
        neighbours = neighbours[fresh]
        parents = parents[fresh]
        if neighbours.size == 0:
            break
        if generator is not None:
            order = generator.permutation(neighbours.size)
            neighbours = neighbours[order]
            parents = parents[order]
        arc = np.arange(neighbours.size, dtype=np.int32)
        parent[neighbours] = neighbours.size
        np.minimum.at(parent, neighbours, arc)
        winner = parent[neighbours] == arc
        claimed = neighbours[winner]
        dist[claimed] = level
        parent[claimed] = parents[winner]
        frontier = np.sort(claimed)
    return dist, parent


def bfs(
    graph: Graph,
    source: int,
    tie_break: str = "first",
    rng: RandomState = None,
) -> ShortestPathForest:
    """Breadth-first search from ``source``.

    Parameters
    ----------
    graph:
        The graph to search.
    source:
        Source node id.
    tie_break:
        ``"first"`` or ``"random"`` parent selection (see module docs).
    rng:
        Randomness for ``tie_break="random"``; ignored otherwise.

    Returns
    -------
    ShortestPathForest
        Hop distances and shortest-path-tree parents.
    """
    if tie_break not in _TIE_BREAKS:
        raise ValueError(
            f"tie_break must be one of {_TIE_BREAKS}, got {tie_break!r}"
        )
    source = graph.check_node(source)
    generator = ensure_rng(rng) if tie_break == "random" else None
    dist, parent = _levels(graph, [source], generator)
    return ShortestPathForest(source=source, dist=dist, parent=parent)


def bfs_from_many(graph: Graph, sources: Sequence[int]):
    """BFS forests from many sources: ``(dist, parent)`` matrices.

    Shape ``(len(sources), num_nodes)`` int32, one row per source, each
    row bit-identical to ``bfs(graph, s, tie_break="first")`` (``-1``
    for unreachable nodes).  This is what
    :class:`repro.graph.distance_store.DistanceStore` builds its mmap
    rows from.
    """
    nodes = [graph.check_node(s) for s in sources]
    dist = np.empty((len(nodes), graph.num_nodes), dtype=np.int32)
    parent = np.empty_like(dist)
    for row, source in enumerate(nodes):
        dist[row], parent[row] = _levels(graph, [source])
    return dist, parent


def multi_source_bfs(graph: Graph, seeds: Sequence[int]):
    """BFS from a *set* of seed nodes simultaneously.

    Returns 1-D ``(dist, parent)`` arrays: ``dist[v]`` is the hop
    distance from ``v`` to the nearest seed, and following ``parent``
    pointers from any reachable node terminates at some seed (whose
    parent is ``-1``).  Level 0 is the sorted unique seed set, so every
    parent choice matches :func:`bfs`'s ``tie_break="first"`` rule.
    """
    if not isinstance(seeds, np.ndarray):
        seeds = list(seeds)
    seed = np.unique(np.asarray(seeds, dtype=np.int64))
    if seed.size == 0:
        raise GraphError("multi-source BFS needs at least one seed")
    n = graph.num_nodes
    if seed[0] < 0 or seed[-1] >= n:
        # Name the smallest bad id, whichever side of the range it is on.
        bad = seed[0] if seed[0] < 0 else seed[np.searchsorted(seed, n)]
        raise NodeError(int(bad), n)
    return _levels(graph, seed)


def distances_from(graph: Graph, source: int) -> np.ndarray:
    """Hop distances from ``source`` (``-1`` for unreachable nodes)."""
    return _levels(graph, [graph.check_node(source)])[0]


def distance_matrix(
    graph: Graph,
    nodes: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """All-pairs (or some-pairs) hop-distance matrix.

    Parameters
    ----------
    graph:
        The graph.
    nodes:
        Optional row subset; when given, returns distances from each of
        these nodes to *all* nodes (shape ``(len(nodes), num_nodes)``).
        Defaults to all nodes.

    Notes
    -----
    Rows come from the process-wide
    :class:`repro.graph.forest_cache.ForestCache` while the row count
    fits its capacity; a larger request would churn the whole cache for
    nothing, so it runs direct BFS instead.  Memory is
    ``O(rows × num_nodes)`` int32 — fine for the ≤ ~10k-node graphs on
    which callers (affinity sampling, diameter checks) use it.
    """
    row_nodes = (
        np.arange(graph.num_nodes, dtype=np.int64)
        if nodes is None
        else np.asarray([graph.check_node(v) for v in nodes], dtype=np.int64)
    )
    # Imported here: forest_cache depends on this module's bfs().
    from repro.graph.forest_cache import default_forest_cache

    cache = default_forest_cache()
    cached = row_nodes.size <= cache.max_entries
    out = np.empty((row_nodes.size, graph.num_nodes), dtype=np.int32)
    for i, node in enumerate(row_nodes):
        if cached:
            out[i] = cache.forest(graph, int(node), tie_break="first").dist
        else:
            out[i] = distances_from(graph, int(node))
    return out


def uniform_arc_weights(graph: Graph, weight: float = 1.0) -> np.ndarray:
    """Per-arc weight array (aligned with ``graph.indices``), all equal."""
    if weight <= 0:
        raise GraphError(f"arc weights must be positive, got {weight}")
    return np.full(graph.indices.shape[0], float(weight))


def dijkstra(
    graph: Graph,
    source: int,
    arc_weights: Optional[np.ndarray] = None,
) -> "WeightedForest":
    """Dijkstra's algorithm for positively-weighted graphs.

    The paper counts unweighted hops, but link-weighted variants of the
    ``L(m)`` question (weight links by length or cost) drop out of the same
    API by passing ``arc_weights``; this is used by the weighted ablation.

    Parameters
    ----------
    graph:
        The graph.
    source:
        Source node id.
    arc_weights:
        Weight per directed arc, aligned with ``graph.indices``.  Defaults
        to all-ones (which reproduces BFS distances).

    Returns
    -------
    WeightedForest
        Float distances (``inf`` for unreachable) and tree parents.
    """
    source = graph.check_node(source)
    if arc_weights is None:
        arc_weights = uniform_arc_weights(graph)
    weights = np.asarray(arc_weights, dtype=float)
    if weights.shape != graph.indices.shape:
        raise GraphError(
            f"arc_weights must have shape {graph.indices.shape}, "
            f"got {weights.shape}"
        )
    if weights.size and weights.min() <= 0:
        raise GraphError("Dijkstra requires strictly positive arc weights")

    n = graph.num_nodes
    dist = np.full(n, np.inf)
    parent = np.full(n, -1, dtype=np.int32)
    done = np.zeros(n, dtype=bool)
    dist[source] = 0.0
    heap: List = [(0.0, source)]
    indptr, indices = graph.indptr, graph.indices
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        lo, hi = indptr[u], indptr[u + 1]
        for pos in range(lo, hi):
            v = int(indices[pos])
            nd = d + float(weights[pos])
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    return WeightedForest(source=source, cost=dist, parent=parent)


@dataclass(frozen=True)
class WeightedForest:
    """Dijkstra result: float path costs and shortest-path-tree parents."""

    source: int
    cost: np.ndarray
    parent: np.ndarray

    def __post_init__(self) -> None:
        self.cost.setflags(write=False)
        self.parent.setflags(write=False)

    @property
    def reachable_mask(self) -> np.ndarray:
        """Boolean mask of nodes with finite cost."""
        return np.isfinite(self.cost)

    def path_to(self, node: int) -> List[int]:
        """The minimum-cost path from the source to ``node``, inclusive."""
        node = int(node)
        if not 0 <= node < self.cost.shape[0]:
            raise NodeError(node, self.cost.shape[0])
        if not np.isfinite(self.cost[node]):
            raise GraphError(
                f"node {node} is not reachable from source {self.source}"
            )
        path = [node]
        while path[-1] != self.source:
            path.append(int(self.parent[path[-1]]))
        path.reverse()
        return path
