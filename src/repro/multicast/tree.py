"""Multicast delivery-tree construction and link counting.

The paper's central measured quantity is ``L(m)``: the number of links in
the source-specific shortest-path multicast tree reaching ``m`` receiver
sites.  The delivery tree is the union, over receivers, of the shortest
path from the source to that receiver — packets "traverse the shortest
path between source and receiver" and multicast routing ensures "no more
than one copy of each packet will traverse each link".

Given a shortest-path forest (BFS parents) for a source, the tree for any
receiver set follows by walking each receiver's parent chain and counting
the distinct non-source nodes touched: in a tree rooted at the source,
links and non-source nodes are in bijection (each contributes its parent
link).  :class:`MulticastTreeCounter` amortizes the per-source BFS across
the thousands of receiver sets the Monte-Carlo methodology draws from it,
using an epoch-stamped visited array so successive queries cost only the
size of the tree they count.

The batched counts have a second, walk-free path.  Number the reachable
nodes in preorder; for one receiver set with ranks ``r1 <= ... <= rm``,

    L = depth(r1) + sum over i >= 2 of
        (depth(ri) + 1 - min depth over ranks (r(i-1), ri])

because that minimum is one below the depth of the lowest common
ancestor of the adjacent pair, and a duplicate receiver (an empty range)
adds 0.  It costs one O(R log R) build per forest of R reachable nodes
— preorder ranks and a sparse range-min table over depth in preorder
(:attr:`repro.graph.paths.ShortestPathForest.preorder`) — and then a
sort and two table reads per receiver, against the walk's one parent
step per receiver and tree node.  The tables belong to the forest.  A
counting call uses tables the forest already keeps; otherwise a call
bringing at least ``MulticastTreeCounter._PREORDER_MIN_DENSITY``
receivers per reachable node builds tables for itself and drops them,
a sparser call on a forest a cache has handed out again builds tables
and the forest keeps them, and any other call walks.  Every path gives
the same integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.exceptions import GraphError, NodeError
from repro.graph.core import Graph
from repro.graph.paths import PreorderTables, ShortestPathForest, bfs
from repro.utils.rng import RandomState

__all__ = ["MulticastTreeCounter", "DeliveryTree", "build_delivery_tree"]

# One inc per batched counting call, labelled with the path that counted
# it, so a trace or /metrics shows which one a sweep took.
_OBS_COUNTS = obs.counter(
    "repro_tree_counts_total",
    "Batched tree-counting calls, by counting strategy.",
    labelnames=("strategy",),
)


class MulticastTreeCounter:
    """Counts multicast delivery-tree links for many receiver sets.

    Parameters
    ----------
    forest:
        Shortest-path forest from the multicast source (from
        :func:`repro.graph.paths.bfs`).

    Notes
    -----
    Receivers placed *at the source* contribute nothing (their path is
    empty); unreachable receivers raise :class:`GraphError` — the
    experiment layer guarantees connectivity so this is a programming
    error, not a data condition.  Receiver ids outside
    ``0..num_nodes-1`` raise :class:`~repro.exceptions.NodeError`.
    """

    # A batched count on a forest without kept tables builds tables
    # for itself when it brings at least this many receivers per
    # reachable node.  Measured on the 10k-node internet map (2-vCPU
    # VM), the two paths (build included) break even at ~1 receiver per
    # node for sweep-shaped calls and at ~1.7 for rows of 1000; at 2 the
    # preorder path led on every row shape tried (1.2-9x).  On a
    # 1M-node forest the build alone takes ~250 ms, against ~7 ms for a
    # whole store-backed sweep call.  Tables a reused forest keeps cost
    # nothing per call, so they are read at any density.
    _PREORDER_MIN_DENSITY = 2

    def __init__(self, forest: ShortestPathForest) -> None:
        self._forest = forest
        self._parent = forest.parent
        self._dist = forest.dist
        self._source = forest.source
        # The scalar walks' visited stamps, allocated on first use: the
        # batched paths never read them.
        self._stamp: Optional[np.ndarray] = None
        self._epoch = 0
        # int32 views of the forest for the batched paths, which only
        # read them: BFS forests and store rows are int32 already, so no
        # copy is taken.
        self._parent32 = forest.parent.astype(np.int32, copy=False)
        self._dist32 = forest.dist.astype(np.int32, copy=False)

    @property
    def forest(self) -> ShortestPathForest:
        """The underlying shortest-path forest."""
        return self._forest

    @property
    def source(self) -> int:
        """The multicast source."""
        return self._source

    def _visited_stamps(self) -> np.ndarray:
        if self._stamp is None:
            self._stamp = np.zeros(self._dist.shape[0], dtype=np.int64)
        return self._stamp

    def tree_size(self, receivers: Sequence[int]) -> int:
        """Number of links in the delivery tree for ``receivers``.

        Duplicate receivers are fine (the with-replacement ``L̂(n)``
        methodology relies on it) and cost nothing extra: the walk from a
        duplicate stops at its first already-visited node.
        """
        self._epoch += 1
        epoch = self._epoch
        stamp = self._visited_stamps()
        parent = self._parent
        dist = self._dist
        source = self._source
        links = 0
        for receiver in self._checked_ids(receivers):
            node = int(receiver)
            if dist[node] < 0:
                raise GraphError(
                    f"receiver {node} is unreachable from source {source}"
                )
            while node != source and stamp[node] != epoch:
                stamp[node] = epoch
                links += 1
                node = int(parent[node])
        return links

    def tree_nodes(self, receivers: Sequence[int]) -> np.ndarray:
        """All nodes of the delivery tree (including the source), sorted."""
        self._epoch += 1
        epoch = self._epoch
        stamp = self._visited_stamps()
        parent = self._parent
        dist = self._dist
        source = self._source
        members: List[int] = [source]
        for receiver in self._checked_ids(receivers):
            node = int(receiver)
            if dist[node] < 0:
                raise GraphError(
                    f"receiver {node} is unreachable from source {source}"
                )
            while node != source and stamp[node] != epoch:
                stamp[node] = epoch
                members.append(node)
                node = int(parent[node])
        return np.asarray(sorted(members), dtype=np.int64)

    def tree_sizes_batch(self, receiver_matrix: Sequence[Sequence[int]]) -> np.ndarray:
        """Delivery-tree link counts for many receiver sets at once.

        Parameters
        ----------
        receiver_matrix:
            ``(num_sets, size)`` integer matrix; each row is one receiver
            set (duplicates within a row are fine, exactly as in
            :meth:`tree_size`).

        Returns
        -------
        numpy.ndarray
            ``(num_sets,)`` int64 array, ``out[r] == tree_size(row r)``.

        Notes
        -----
        Dense calls count from preorder ranks (see the module
        docstring); the rest climb all rows together, one BFS level per
        iteration from the deepest receiver up: the distinct
        ``(set, node)`` pairs at each level are exactly that level's tree
        links.  The loop runs ``eccentricity(source)`` times at most,
        with one sort and one neighbour test over the level's pairs —
        the per-receiver Python loop of :meth:`tree_size` disappears
        entirely.
        """
        matrix = self._as_receiver_matrix(receiver_matrix)
        depths = self._check_reachable(matrix).sum(axis=1, dtype=np.int64)
        return self._count_blocks([matrix], [depths])[0]

    def count_trees_and_unicast(
        self, matrices: Sequence[Sequence[Sequence[int]]]
    ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Link counts and unicast totals for several receiver matrices.

        Equivalent to calling :meth:`tree_sizes_batch` and
        :meth:`unicast_totals_batch` on each matrix, but all matrices
        are counted together — one path choice, one climb or one
        preorder count for the whole call — and one distance gather
        serves the reachability check, the unicast totals and the
        preorder count.  This is the Monte-Carlo engine's fast path:
        a whole per-source sweep — every group size, every receiver set —
        costs a single count over the forest.
        """
        blocks = []
        totals = []
        for receiver_matrix in matrices:
            matrix = self._as_receiver_matrix(receiver_matrix)
            totals.append(
                self._check_reachable(matrix).sum(axis=1, dtype=np.int64)
            )
            blocks.append(matrix)
        return self._count_blocks(blocks, totals), totals

    def _count_blocks(
        self, blocks: List[np.ndarray], depths: List[np.ndarray]
    ) -> List[np.ndarray]:
        """Link counts for ``blocks``, by the path that suits the call.

        ``depths[b]`` holds block ``b``'s per-row receiver depth sums.
        The one place a counting path is chosen, in this order: tables
        the forest keeps; tables built for a dense call and dropped (the
        build's cost grows with the reachable nodes whatever the call,
        so one call pays for it only when it brings enough receivers per
        reachable node); tables built and kept by a sparse call on a
        reused forest, whose later calls then count without a build;
        else the climb.
        """
        forest = self._forest
        tables = forest.kept_preorder
        if tables is None:
            if self._dense(sum(block.size for block in blocks)):
                tables = forest.build_preorder()
            elif forest.reused:
                tables = forest.preorder
        if tables is None:
            _OBS_COUNTS.inc(strategy="walk")
            return self._walk_blocks(blocks)
        _OBS_COUNTS.inc(strategy="preorder")
        return self._preorder_blocks(blocks, depths, tables)

    def _dense(self, receivers: int) -> bool:
        """Whether ``receivers >= _PREORDER_MIN_DENSITY * reachable``.

        The forest counts its reachable nodes once (a full scan of the
        distance row, ~0.7 ms at 1M nodes) and keeps the count, so a
        forest that serves many counting calls scans its row once.
        """
        reachable = self._forest.num_reachable
        return self._PREORDER_MIN_DENSITY * reachable <= receivers

    def _preorder_blocks(
        self,
        blocks: List[np.ndarray],
        depths: List[np.ndarray],
        tables: PreorderTables,
    ) -> List[np.ndarray]:
        """Link counts from sorted preorder ranks and range minima.

        Per row, ``L = sum(depth) + (m - 1) - sum(low)`` where ``low`` is
        the range-min read for each adjacent pair of sorted ranks (the
        module docstring's identity); a duplicate pair reads the table's
        depth + 1 row, so it adds 0.
        """
        rank, table, left, right = tables
        out = []
        for block, depth in zip(blocks, depths):
            ranks = np.take(rank, block)
            ranks.sort(axis=1)
            prev, cur = ranks[:, :-1], ranks[:, 1:]
            gap = cur - prev
            lo = np.take(left, gap)
            lo += prev
            hi = np.take(right, gap)
            hi += cur
            low = np.minimum(np.take(table, lo), np.take(table, hi))
            out.append(
                depth + max(block.shape[1] - 1, 0)
                - low.sum(axis=1, dtype=np.int64)
            )
        return out

    def _walk_blocks(self, blocks: List[np.ndarray]) -> List[np.ndarray]:
        """Depth-bucketed climb over the rows of all ``blocks``.

        Returns one ``(num_sets,)`` link-count array per block; row ``r``
        of block ``b`` behaves exactly like an independent
        :meth:`tree_size` call on that row.  Every receiver becomes an
        int64 key ``row << shift | node``, sorted once by depth.  From
        the deepest level up, the climbers from below join the receivers
        at that depth, a sort and a neighbour test keep each key once,
        and each key steps to its parent.  (``np.unique`` gives the same
        array but hashes int64 keys before it sorts them, several times
        slower at these sizes.)  A ``(row, node)`` key can only appear
        at step ``dist[node]``, so each tree link of each row is counted
        exactly once, and the source (depth 0) never is.
        """
        shift = max(self._dist.shape[0] - 1, 0).bit_length()
        mask = (1 << shift) - 1
        parts = [np.empty(0, dtype=np.int64)]
        spans = []
        row = 0
        for block in blocks:
            rows = block.shape[0]
            row_ids = np.arange(row, row + rows, dtype=np.int64) << shift
            parts.append((row_ids[:, None] | block).ravel())
            spans.append(slice(row, row + rows))
            row += rows
        keys = np.concatenate(parts)
        depth = np.take(self._dist32, keys & mask)
        order = np.argsort(depth)
        keys = keys[order]
        levels = np.searchsorted(
            depth[order], np.arange(depth.max(initial=0) + 2, dtype=np.int32)
        )
        parent = self._parent32
        climbers = keys[:0]
        used = [climbers]
        for level in range(levels.size - 2, 0, -1):
            arrivals = keys[levels[level]:levels[level + 1]]
            merged = np.concatenate([climbers, arrivals])
            merged.sort()
            keep = np.empty(merged.size, dtype=bool)
            keep[:1] = True
            np.not_equal(merged[1:], merged[:-1], out=keep[1:])
            climbers = merged[keep]
            used.append(climbers)
            nodes = climbers & mask
            climbers = climbers + (np.take(parent, nodes) - nodes)
        links = np.bincount(np.concatenate(used) >> shift, minlength=row)
        return [links[span] for span in spans]

    def unicast_total(self, receivers: Sequence[int]) -> int:
        """Total link traversals if each receiver were reached by unicast.

        This is the quantity whose mean over receivers is the paper's
        ``ū(m)``; multicast's efficiency is the gap between
        :meth:`tree_size` and this sum.
        """
        idx = self._checked_ids(receivers)
        d = self._dist[idx]
        if np.any(d < 0):
            bad = int(idx[int(np.argmax(d < 0))])
            raise GraphError(
                f"receiver {bad} is unreachable from source {self._source}"
            )
        return int(d.sum())

    def unicast_totals_batch(
        self, receiver_matrix: Sequence[Sequence[int]]
    ) -> np.ndarray:
        """Per-row unicast totals for a ``(num_sets, size)`` receiver matrix.

        ``out[r] == unicast_total(row r)``; the whole matrix is gathered
        and reduced in two vector operations.
        """
        matrix = self._as_receiver_matrix(receiver_matrix)
        return self._check_reachable(matrix).sum(axis=1, dtype=np.int64)

    def _check_range(self, ids: np.ndarray) -> None:
        """Raise :class:`NodeError` for the first (row-major) id outside
        ``0..num_nodes-1``: a negative id would otherwise wrap to a real
        node, and one past the end would fail deep inside a gather."""
        num_nodes = self._dist.shape[0]
        if ids.size and (ids.min() < 0 or ids.max() >= num_nodes):
            flat = ids.ravel()
            bad = int(flat[int(np.argmax((flat < 0) | (flat >= num_nodes)))])
            raise NodeError(bad, num_nodes)

    def _checked_ids(self, receivers: Sequence[int]) -> np.ndarray:
        ids = np.asarray(receivers, dtype=np.int64).ravel()
        self._check_range(ids)
        return ids

    def _as_receiver_matrix(self, receiver_matrix) -> np.ndarray:
        matrix = np.asarray(receiver_matrix)
        if matrix.dtype not in (np.int32, np.int64):
            matrix = matrix.astype(np.int64)
        if matrix.ndim != 2:
            raise GraphError(
                f"receiver_matrix must be 2-D (num_sets, size), "
                f"got shape {matrix.shape}"
            )
        self._check_range(matrix)
        return matrix

    def _check_reachable(self, matrix: np.ndarray) -> np.ndarray:
        """Gathered distances for ``matrix``; raises on the first (in
        row-major order) unreachable receiver."""
        d = np.take(self._dist32, matrix)
        if np.any(d < 0):
            flat = matrix.ravel()
            bad = int(flat[int(np.argmax(d.ravel() < 0))])
            raise GraphError(
                f"receiver {bad} is unreachable from source {self._source}"
            )
        return d


@dataclass(frozen=True)
class DeliveryTree:
    """An explicit multicast delivery tree.

    Attributes
    ----------
    source:
        The multicast source.
    receivers:
        The receiver set the tree was built for.
    nodes:
        All tree nodes (source included), sorted.
    edges:
        The tree's links as ``(parent, child)`` pairs, one per non-source
        node.
    algorithm:
        Name of the builder that produced the tree (a
        :mod:`repro.multicast.builders` registry key; ``"spt"`` for the
        paper's shortest-path trees).
    """

    source: int
    receivers: Tuple[int, ...]
    nodes: np.ndarray
    edges: np.ndarray
    algorithm: str = "spt"

    @property
    def num_links(self) -> int:
        """Number of links — the paper's ``L``."""
        return self.edges.shape[0]

    def covers(self, node: int) -> bool:
        """Whether ``node`` is part of the tree."""
        pos = int(np.searchsorted(self.nodes, node))
        return pos < self.nodes.shape[0] and int(self.nodes[pos]) == node

    def _node_depths(self) -> Dict[int, int]:
        """Depth of every tree node, walking each parent chain once."""
        parent_of = {int(c): int(p) for p, c in self.edges}
        depth = {int(self.source): 0}
        for start in parent_of:
            chain: List[int] = []
            node = start
            while node not in depth:
                chain.append(node)
                if node not in parent_of:
                    raise GraphError(
                        f"tree node {node} has no parent chain to the "
                        f"source {self.source}"
                    )
                node = parent_of[node]
            base = depth[node]
            for offset, member in enumerate(reversed(chain), start=1):
                depth[member] = base + offset
        return depth

    def depth_profile(self) -> np.ndarray:
        """Node counts per tree depth (entry 0 is the source itself).

        The depth of a node is its hop count from the source *along tree
        edges* — for shortest-path trees this equals the BFS distance,
        while Steiner-style trees may route receivers through longer
        detours (the latency price of link efficiency).
        """
        depths = self._node_depths()
        profile = np.zeros(max(depths.values()) + 1, dtype=np.int64)
        for level in depths.values():
            profile[level] += 1
        return profile

    def receiver_path_costs(self) -> np.ndarray:
        """Hops from the source to each receiver within the tree.

        Aligned with :attr:`receivers`; a receiver placed at the source
        costs 0.  Together with :meth:`depth_profile` this is the
        per-algorithm latency ledger the efficiency figures report
        alongside link counts.
        """
        depths = self._node_depths()
        try:
            return np.asarray(
                [depths[int(r)] for r in self.receivers], dtype=np.int64
            )
        except KeyError as exc:
            raise GraphError(
                f"receiver {exc.args[0]} is not covered by the tree"
            ) from None


def _spt_tree(
    forest: ShortestPathForest, receivers: Sequence[int]
) -> DeliveryTree:
    """The shortest-path delivery tree of ``receivers`` over ``forest``."""
    nodes = MulticastTreeCounter(forest).tree_nodes(receivers)
    non_source = nodes[nodes != forest.source]
    edges = np.column_stack(
        [forest.parent[non_source], non_source]
    ).astype(np.int64)
    return DeliveryTree(
        source=int(forest.source),
        receivers=tuple(int(r) for r in receivers),
        nodes=nodes,
        edges=edges,
    )


def build_delivery_tree(
    graph: Graph,
    source: int,
    receivers: Sequence[int],
    tie_break: str = "first",
    rng: RandomState = None,
) -> DeliveryTree:
    """Construct the explicit shortest-path delivery tree.

    Convenience wrapper for examples and one-off queries; hot loops should
    create one :func:`~repro.graph.paths.bfs` forest per source and a
    :class:`MulticastTreeCounter` over it instead.
    """
    return _spt_tree(bfs(graph, source, tie_break=tie_break, rng=rng), receivers)
