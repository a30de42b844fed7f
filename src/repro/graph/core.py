"""Core graph data structure.

The whole reproduction runs on one graph representation: an immutable,
undirected graph stored in *compressed sparse row* (CSR) form.  CSR keeps
the adjacency of all nodes in two flat numpy arrays, which makes the hot
operations of this package — breadth-first searches and neighbourhood
gathers over tens of thousands of nodes — cheap and vectorizable, while
remaining trivially hashable into a stable structural signature for tests.

Mutability lives in :class:`repro.graph.builders.GraphBuilder`; once built,
a :class:`Graph` never changes, so shortest-path results and reachability
profiles computed from it can be cached safely by callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import GraphError, NodeError
from repro.utils.segment import SegmentHandle, create_segment, open_segment

__all__ = ["Graph", "SharedGraphDescriptor"]

#: Segment schema of a published CSR graph (see :mod:`repro.utils.segment`).
_SEGMENT_SCHEMA = ("csr graph", 1)


@dataclass(frozen=True)
class SharedGraphDescriptor:
    """A picklable token naming a graph published via :meth:`Graph.to_shared`.

    Carries everything a worker process needs to reconstruct zero-copy
    views over the creator's CSR arrays: the shared-memory segment name,
    the array lengths, and the content fingerprint — so attachments can
    prime the :mod:`repro.graph.forest_cache` key without re-paying the
    O(E) hash.  A descriptor is a few dozen bytes however large the
    graph is; *this* is what crosses a ``submit()`` boundary, never the
    graph itself (lint rule RR010).
    """

    name: str
    num_nodes: int
    num_indices: int
    fingerprint: str

    @property
    def nbytes(self) -> int:
        """Size of the segment payload (int64 indptr + int32 indices)."""
        return 8 * (self.num_nodes + 1) + 4 * self.num_indices


class Graph:
    """An immutable undirected graph over nodes ``0 .. num_nodes-1``.

    Parameters
    ----------
    num_nodes:
        Number of nodes.  Nodes are dense integer ids starting at zero.
    indptr:
        CSR row-pointer array of length ``num_nodes + 1``.
    indices:
        CSR column-index array of length ``2 * num_edges``; the neighbours
        of node ``u`` are ``indices[indptr[u]:indptr[u+1]]``.  Each
        undirected edge appears twice, once in each endpoint's row.
    check:
        Validate the CSR invariants (symmetry, sortedness, no self-loops,
        no duplicates).  Generators that construct CSR directly may disable
        this once their own tests establish correctness.

    Notes
    -----
    The adjacency list of every node is kept **sorted**.  This gives
    deterministic iteration order (and hence deterministic shortest-path
    tie-breaking under the ``"first"`` policy) and allows ``has_edge`` to
    run in ``O(log degree)``.
    """

    __slots__ = ("_num_nodes", "_indptr", "_indices", "__weakref__")

    def __init__(
        self,
        num_nodes: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        check: bool = True,
    ) -> None:
        self._num_nodes = int(num_nodes)
        self._indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self._indices = np.ascontiguousarray(indices, dtype=np.int32)
        self._indptr.setflags(write=False)
        self._indices.setflags(write=False)
        if check:
            self._validate()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls, num_nodes: int, edges: Iterable[Tuple[int, int]]
    ) -> "Graph":
        """Build a graph from an iterable of undirected edges.

        Self-loops and duplicate edges (in either orientation) are
        rejected with :class:`GraphError`; use
        :func:`repro.graph.ops.clean_edges` first when reading data that
        may contain them (the paper's TIERS topologies famously do).
        """
        edge_list = edges if isinstance(edges, np.ndarray) else list(edges)
        if num_nodes < 0:
            raise GraphError(f"num_nodes must be non-negative, got {num_nodes}")
        if len(edge_list) == 0:
            indptr = np.zeros(num_nodes + 1, dtype=np.int64)
            return cls(num_nodes, indptr, np.empty(0, dtype=np.int32), check=False)

        arr = np.asarray(edge_list, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphError("edges must be (u, v) pairs")
        if arr.min() < 0 or arr.max() >= num_nodes:
            bad = int(arr.min()) if arr.min() < 0 else int(arr.max())
            raise NodeError(bad, num_nodes)
        if np.any(arr[:, 0] == arr[:, 1]):
            loop_at = int(arr[arr[:, 0] == arr[:, 1]][0, 0])
            raise GraphError(f"self-loop at node {loop_at} is not allowed")

        lo = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        keys = lo * num_nodes + hi
        if np.unique(keys).size != keys.size:
            raise GraphError(
                "duplicate edges present; clean the edge list first "
                "(repro.graph.ops.clean_edges)"
            )

        # Symmetrize and sort into CSR.
        heads = np.concatenate([arr[:, 0], arr[:, 1]])
        tails = np.concatenate([arr[:, 1], arr[:, 0]])
        order = np.lexsort((tails, heads))
        heads = heads[order]
        tails = tails[order]
        counts = np.bincount(heads, minlength=num_nodes)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(num_nodes, indptr, tails.astype(np.int32), check=False)

    def _validate(self) -> None:
        n = self._num_nodes
        if self._indptr.shape != (n + 1,):
            raise GraphError(
                f"indptr must have length num_nodes+1 = {n + 1}, "
                f"got {self._indptr.shape[0]}"
            )
        if n >= 0 and self._indptr[0] != 0:
            raise GraphError("indptr must start at 0")
        if np.any(np.diff(self._indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        if self._indptr[-1] != self._indices.shape[0]:
            raise GraphError(
                f"indptr[-1] ({int(self._indptr[-1])}) must equal "
                f"len(indices) ({self._indices.shape[0]})"
            )
        if self._indices.size:
            if self._indices.min() < 0 or self._indices.max() >= n:
                raise GraphError("indices contain out-of-range node ids")
        for u in range(n):
            row = self._indices[self._indptr[u] : self._indptr[u + 1]]
            if np.any(np.diff(row) <= 0):
                raise GraphError(f"adjacency of node {u} is not strictly sorted")
            if np.any(row == u):
                raise GraphError(f"self-loop at node {u}")
        # Symmetry: the multiset of (u, v) arcs must equal that of (v, u).
        heads = np.repeat(np.arange(n, dtype=np.int64), np.diff(self._indptr))
        fwd = heads * n + self._indices
        bwd = self._indices.astype(np.int64) * n + heads
        if not np.array_equal(np.sort(fwd), np.sort(bwd)):
            raise GraphError("adjacency is not symmetric (graph must be undirected)")

    # ------------------------------------------------------------------
    # Shared-memory publication (zero-copy cross-process views)
    # ------------------------------------------------------------------

    def to_shared(self) -> SegmentHandle:
        """Publish the CSR arrays into a shared-memory segment (one copy).

        The segment is a ``csr graph`` schema over
        :mod:`repro.utils.segment`: ``indptr`` (int64) then ``indices``
        (int32) — the same flat arrays this object holds, so
        :meth:`from_shared` reconstructs byte-identical adjacency.  The
        returned handle owns the segment: ship ``handle.descriptor`` to
        workers and call ``handle.unlink()`` when the topology retires
        (segments outlive processes otherwise).  Sweeps should go
        through :class:`repro.experiments.pool.SharedGraphRegistry`,
        which deduplicates publication by content fingerprint.
        """
        from repro.graph.forest_cache import graph_fingerprint

        handle = create_segment(
            *_SEGMENT_SCHEMA,
            {"indptr": self._indptr, "indices": self._indices},
        )
        handle.descriptor = SharedGraphDescriptor(
            name=handle.name,
            num_nodes=self._num_nodes,
            num_indices=int(self._indices.shape[0]),
            fingerprint=graph_fingerprint(self),
        )
        return handle

    @classmethod
    def from_shared(cls, descriptor: SharedGraphDescriptor) -> "Graph":
        """Attach zero-copy, read-only views over a published segment.

        The segment stays mapped exactly as long as the attached graph's
        arrays are reachable.  Attaching skips CSR validation (the
        creator's graph already passed it) but not the segment checks:
        a name holding another schema raises
        :class:`~repro.exceptions.SegmentError`.  The fingerprint memo
        is primed from the descriptor so forest-cache keys match the
        creator's without re-hashing.
        """
        from repro.graph.forest_cache import prime_fingerprint

        arrays = open_segment(*_SEGMENT_SCHEMA, name=descriptor.name).arrays
        graph = cls(
            descriptor.num_nodes, arrays["indptr"], arrays["indices"], check=False
        )
        prime_fingerprint(graph, descriptor.fingerprint)
        return graph

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self._indices.shape[0] // 2

    @property
    def indptr(self) -> np.ndarray:
        """CSR row-pointer array (read-only view)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR column-index array (read-only view)."""
        return self._indices

    def check_node(self, node: int) -> int:
        """Validate ``node`` and return it as a plain int."""
        node = int(node)
        if not 0 <= node < self._num_nodes:
            raise NodeError(node, self._num_nodes)
        return node

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted neighbours of ``node`` (read-only array view)."""
        node = self.check_node(node)
        return self._indices[self._indptr[node] : self._indptr[node + 1]]

    def degree(self, node: int) -> int:
        """Degree of ``node``."""
        node = self.check_node(node)
        return int(self._indptr[node + 1] - self._indptr[node])

    @property
    def degrees(self) -> np.ndarray:
        """Array of all node degrees."""
        return np.diff(self._indptr)

    @property
    def average_degree(self) -> float:
        """Mean node degree, ``2·E / N`` (0.0 for the empty graph)."""
        if self._num_nodes == 0:
            return 0.0
        return 2.0 * self.num_edges / self._num_nodes

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``(u, v)`` exists."""
        u = self.check_node(u)
        v = self.check_node(v)
        row = self.neighbors(u)
        pos = int(np.searchsorted(row, v))
        return pos < row.size and int(row[pos]) == v

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over undirected edges as ``(u, v)`` with ``u < v``."""
        for u in range(self._num_nodes):
            for v in self.neighbors(u):
                if u < v:
                    yield (u, int(v))

    def edge_array(self) -> np.ndarray:
        """All undirected edges as an ``(E, 2)`` array with ``u < v`` rows."""
        heads = np.repeat(
            np.arange(self._num_nodes, dtype=np.int32), np.diff(self._indptr)
        )
        mask = heads < self._indices
        return np.column_stack([heads[mask], self._indices[mask]])

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._num_nodes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._num_nodes == other._num_nodes
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
        )

    def __hash__(self) -> int:
        return hash(
            (self._num_nodes, self._indptr.tobytes(), self._indices.tobytes())
        )

    def __repr__(self) -> str:
        return (
            f"Graph(num_nodes={self._num_nodes}, num_edges={self.num_edges}, "
            f"avg_degree={self.average_degree:.2f})"
        )

    # ------------------------------------------------------------------
    # Structural convenience
    # ------------------------------------------------------------------

    def subgraph(self, nodes: Sequence[int]) -> Tuple["Graph", np.ndarray]:
        """Induced subgraph on ``nodes``.

        Returns
        -------
        (Graph, numpy.ndarray)
            The subgraph (with nodes relabelled ``0..len(nodes)-1`` in the
            order given) and the array mapping new ids back to old ids.
        """
        keep = np.asarray(list(nodes), dtype=np.int64)
        if keep.size != np.unique(keep).size:
            raise GraphError("subgraph node list contains duplicates")
        for node in keep:
            self.check_node(int(node))
        old_to_new = -np.ones(self._num_nodes, dtype=np.int64)
        old_to_new[keep] = np.arange(keep.size, dtype=np.int64)
        # Imported here: paths depends on this module's Graph.
        from repro.graph.paths import _gather_frontier_arcs

        # Every arc leaving a kept node, straight out of the CSR arrays;
        # each surviving edge is kept once, from its lower new endpoint.
        old_v, old_u = _gather_frontier_arcs(self._indptr, self._indices, keep)
        new_u = old_to_new[old_u]
        new_v = old_to_new[old_v]
        inside = new_u < new_v  # also drops arcs to dropped nodes (-1)
        edges = np.stack([new_u[inside], new_v[inside]], axis=1)
        return Graph.from_edges(keep.size, edges), keep

    def with_extra_edges(self, extra: Iterable[Tuple[int, int]]) -> "Graph":
        """A new graph with ``extra`` undirected edges added.

        Edges already present are rejected (consistent with
        :meth:`from_edges`).
        """
        combined = [(int(u), int(v)) for u, v in self.edges()]
        combined.extend((int(u), int(v)) for u, v in extra)
        return Graph.from_edges(self._num_nodes, combined)
