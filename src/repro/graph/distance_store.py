"""Memory-mapped per-source distance (and parent) rows.

Million-node sweeps spend almost all their time re-running BFS: every
(source, receiver-set) cell of a Monte-Carlo grid needs the source's
full shortest-path forest, and at ``n = 10^6`` a single forest is ~8 MB
of int32 — too big to keep hundreds of in the
:class:`~repro.graph.forest_cache.ForestCache`, too slow to recompute
per sweep.  A :class:`DistanceStore` precomputes the rows **once** into
a flat file and lets every consumer — samplers, estimator-table builds,
fleet workers — map them zero-copy:

* **Build once.**  :func:`build_distance_store` runs the single-source
  BFS kernel once per source (:func:`repro.graph.paths.bfs_from_many`)
  over chunks of sources and writes each ``(dist, parent)`` row pair
  straight into the mapped file.  With ``num_workers > 1`` the chunks
  fan out over the persistent worker pool from
  :mod:`repro.experiments.pool`; the graph crosses the process boundary
  as a :class:`~repro.graph.core.SharedGraphDescriptor` (never pickled
  — lint rule RR010) and each worker writes its own disjoint row slice.
* **Attach zero-copy.**  :func:`attach_distance_store` maps the file
  read-only; ``store.distances`` / ``store.parents`` are views over the
  page cache, so forty attached processes cost one copy of the rows.
* **Same lifecycle as the fleet table store.**  The file is a
  ``distance store`` schema over :mod:`repro.utils.segment` (which owns
  the byte layout): a ``sources`` int32 row index, then ``dist`` and —
  when built with parents — ``parent`` int32 ``(rows, num_nodes)``
  blocks, plus the graph fingerprint.  The header carries a
  ``generation``; attaching through a stale descriptor raises, and
  reload rides on POSIX unlink semantics — attached stores keep a valid
  mapping after the creator unlinks, new attachments can only land on
  the new generation's file.
* **Atomic build.**  Rows are written into a sibling temp file that
  replaces ``path`` only once every row is in, so a failed build leaves
  the directory as it was and a rebuild never truncates a file under
  live readers.

Because rows store *parents* too, a consumer gets the full
:class:`~repro.graph.paths.ShortestPathForest` back (tie-break
``"first"``, bit-identical to :func:`repro.graph.paths.bfs`) — enough
to run the whole multicast-tree counting pipeline without ever touching
the graph again.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.exceptions import GraphError
from repro.graph.core import Graph
from repro.graph.forest_cache import graph_fingerprint
from repro.graph.paths import ShortestPathForest, bfs_from_many
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.segment import Segment, create_segment, open_segment

__all__ = [
    "DistanceStore",
    "DistanceStoreDescriptor",
    "attach_distance_store",
    "build_distance_store",
]

_SEGMENT_SCHEMA = ("distance store", 2)

#: Sources per BFS batch during a build — bounds the writer's transient
#: working set at ``2 * chunk * num_nodes`` int32 regardless of how
#: many rows the store holds.
_BUILD_CHUNK_SOURCES = 8


@dataclass(frozen=True)
class DistanceStoreDescriptor:
    """A picklable token naming one distance-store generation.

    This is what crosses process boundaries (a hundred bytes, never the
    rows): workers re-attach from it, and attaching through a stale
    generation raises — the same protocol as
    :class:`repro.serve.fleet.store.TableStoreDescriptor`.
    """

    path: str
    generation: int
    num_nodes: int
    num_sources: int
    has_parents: bool
    fingerprint: str
    nbytes: int


class DistanceStore:
    """An attached, read-only view over a distance-store file.

    Row views handed out stay valid on their own: the file stays mapped
    until the last view over it — the store's or an escaped row's — dies.
    """

    def __init__(self, path: str, segment: Segment) -> None:
        self._path = path
        self._generation = segment.generation
        self._fingerprint = str(segment.meta["fingerprint"])
        self._nbytes = segment.nbytes
        self._sources = segment.arrays["sources"]
        self._dist = segment.arrays["dist"]
        self._parent = segment.arrays.get("parent")
        self._num_nodes = int(self._dist.shape[1])
        self._has_parents = self._parent is not None
        self._row_of = {int(s): i for i, s in enumerate(self._sources)}
        # One forest object per row, made on first use (see forest()).
        self._forests: Dict[int, ShortestPathForest] = {}
        self._complete = self._sources.size == self._num_nodes and bool(
            np.array_equal(
                self._sources, np.arange(self._num_nodes, dtype=np.int32)
            )
        )

    # -- identity -----------------------------------------------------
    @property
    def path(self) -> str:
        """The backing file's path."""
        return self._path

    @property
    def generation(self) -> int:
        """Store generation, as written by the builder."""
        return self._generation

    @property
    def num_nodes(self) -> int:
        """Columns per row (the graph's node count)."""
        return self._num_nodes

    @property
    def num_sources(self) -> int:
        """Rows in the store."""
        return int(self._sources.size)

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the graph the rows were built from."""
        return self._fingerprint

    @property
    def has_parents(self) -> bool:
        """Whether parent rows were built alongside distances."""
        return self._has_parents

    @property
    def descriptor(self) -> DistanceStoreDescriptor:
        """The picklable token a worker re-attaches from."""
        return DistanceStoreDescriptor(
            path=self._path,
            generation=self.generation,
            num_nodes=self.num_nodes,
            num_sources=self.num_sources,
            has_parents=self.has_parents,
            fingerprint=self.fingerprint,
            nbytes=self._nbytes,
        )

    # -- rows ---------------------------------------------------------
    @property
    def sources(self) -> np.ndarray:
        """The source node of each row, in row order."""
        return self._sources

    @property
    def distances(self) -> np.ndarray:
        """The ``(num_sources, num_nodes)`` int32 distance rows."""
        return self._dist

    @property
    def parents(self) -> Optional[np.ndarray]:
        """Parent rows, or ``None`` for a distance-only store."""
        return self._parent

    @property
    def is_complete(self) -> bool:
        """True when the store holds row ``s`` for *every* node ``s``.

        A complete store lets samplers draw sources from the exact same
        stream as the storeless path — see :meth:`pick_source`.
        """
        return self._complete

    def row_index(self, source: int) -> int:
        """The row holding ``source``, or raise :class:`GraphError`."""
        try:
            return self._row_of[int(source)]
        except KeyError:
            raise GraphError(
                f"source {source} has no row in distance store "
                f"{self._path!r} ({self.num_sources} rows)"
            ) from None

    def distance_row(self, source: int) -> np.ndarray:
        """The distance row for ``source`` (zero-copy, read-only)."""
        return self._dist[self.row_index(source)]

    def forest(self, source: int) -> ShortestPathForest:
        """The stored BFS forest for ``source``.

        Bit-identical to ``bfs(graph, source, tie_break="first")`` on
        the graph the store was built from; the arrays are zero-copy
        views pinned to this store's mapping.  Each row's forest is made
        once and handed out again, so what it memoizes (its reachable
        count) is paid once per row, not once per sweep.
        """
        if self._parent is None:
            raise GraphError(
                f"distance store {self._path!r} was built without parent "
                "rows; rebuild with include_parents=True"
            )
        i = self.row_index(source)
        forest = self._forests.get(i)
        if forest is None:
            forest = ShortestPathForest(
                source=int(source), dist=self._dist[i], parent=self._parent[i]
            )
            self._forests[i] = forest
        return forest

    def pick_source(self, rng: RandomState) -> int:
        """Draw a stored source uniformly.

        On a complete store this is ``rng.integers(0, num_nodes)`` —
        the *same* stream consumption as the storeless sampling path,
        so sweeps against a complete store are bit-identical to sweeps
        without one.  On a partial store it draws a row index instead
        (a different, documented stream).
        """
        generator = ensure_rng(rng)
        if self._complete:
            return int(generator.integers(0, self.num_nodes))
        return int(self._sources[int(generator.integers(0, self.num_sources))])

    # -- lifecycle ----------------------------------------------------
    def check_graph(self, graph: Graph) -> None:
        """Raise unless ``graph`` is the graph the rows were built from."""
        if graph.num_nodes != self.num_nodes:
            raise GraphError(
                f"distance store {self._path!r} was built for "
                f"{self.num_nodes} nodes, graph has {graph.num_nodes}"
            )
        actual = graph_fingerprint(graph)
        if actual != self.fingerprint:
            raise GraphError(
                f"distance store {self._path!r} was built for graph "
                f"{self.fingerprint[:12]}…, got {actual[:12]}…"
            )

    def close(self) -> None:
        """Drop this store's row views (idempotent).

        The mapping is unmapped once no view over it is left — right
        away unless row views handed out earlier are still referenced,
        exactly like a detached shared-memory view.
        """
        self._dist = None
        self._parent = None
        self._forests = {}
        self._sources = np.array(self._sources, dtype=np.int32)
        self._row_of = {}

    def unlink(self) -> None:
        """Delete the backing file (idempotent).

        Attached stores — this one included — keep reading through
        their existing mappings; only *new* attachments fail.
        """
        try:
            os.unlink(self._path)
        except FileNotFoundError:
            pass

    def __repr__(self) -> str:
        return (
            f"DistanceStore(path={self._path!r}, "
            f"generation={self.generation}, rows={self.num_sources}, "
            f"num_nodes={self.num_nodes}, parents={self.has_parents})"
        )


def _build_rows_task(
    graph_descriptor,
    path: str,
    num_nodes: int,
    offsets: Dict[str, int],
    row_lo: int,
    sources_chunk: Sequence[int],
) -> int:
    """Worker entry: BFS a chunk of sources and write its row slice."""
    # Imported here: pool lives above the graph layer (it already
    # imports repro.graph.core), so the build reaches up lazily instead
    # of creating an import cycle.
    from repro.experiments.pool import _attached_graph

    return _write_rows(
        _attached_graph(graph_descriptor),
        path,
        num_nodes,
        offsets,
        row_lo,
        sources_chunk,
    )


def _write_rows(
    graph: Graph,
    path: str,
    num_nodes: int,
    offsets: Dict[str, int],
    row_lo: int,
    sources_chunk: Sequence[int],
) -> int:
    rows = len(sources_chunk)
    dist, parent = bfs_from_many(graph, sources_chunk)
    for name, block in (("dist", dist), ("parent", parent)):
        if name not in offsets:
            continue
        out = np.memmap(
            path,
            dtype=np.int32,
            mode="r+",
            offset=offsets[name] + 4 * row_lo * num_nodes,
            shape=(rows, num_nodes),
        )
        out[:] = block
        out.flush()
        del out
    return rows


def build_distance_store(
    graph: Graph,
    path: str,
    sources: Optional[Sequence[int]] = None,
    *,
    generation: int = 1,
    include_parents: bool = True,
    num_workers: int = 1,
    chunk_sources: int = _BUILD_CHUNK_SOURCES,
) -> DistanceStore:
    """Precompute per-source BFS rows into a memory-mapped file.

    Parameters
    ----------
    graph:
        The graph to BFS.
    path:
        File to create, atomically: rows are written to a sibling temp
        file that replaces ``path`` (if present) only once complete.
    sources:
        Row sources, unique, in row order.  Defaults to *all* nodes —
        only sensible for small graphs; million-node stores should pass
        the subset a sweep will actually draw from.
    generation:
        Version stamp checked at attach time; bump it when republishing
        rows for a changed graph.
    include_parents:
        Also store parent rows, making :meth:`DistanceStore.forest`
        (and hence full tree counting) available from the store.
    num_workers:
        ``> 1`` fans source chunks out over the persistent worker pool
        (the graph ships as a shared-memory descriptor); 1 builds
        inline.
    chunk_sources:
        Sources per BFS batch — bounds the builder's working set.

    Returns
    -------
    DistanceStore
        Already attached read-only; the caller owns the file and should
        eventually :meth:`~DistanceStore.unlink` it.
    """
    if sources is None:
        src = np.arange(graph.num_nodes, dtype=np.int32)
    else:
        src = np.asarray(
            [graph.check_node(s) for s in sources], dtype=np.int32
        )
    if src.size == 0:
        raise GraphError("a distance store needs at least one source row")
    if np.unique(src).size != src.size:
        raise GraphError("distance-store sources must be unique")
    if chunk_sources < 1:
        raise GraphError(f"chunk_sources must be >= 1, got {chunk_sources}")

    num_nodes = graph.num_nodes
    arrays = {"sources": src, "dist": (np.int32, (src.size, num_nodes))}
    if include_parents:
        arrays["parent"] = (np.int32, (src.size, num_nodes))
    chunks = [
        (lo, src[lo : lo + chunk_sources].tolist())
        for lo in range(0, src.size, chunk_sources)
    ]

    def fill(tmp_path: str, offsets: Dict[str, int]) -> None:
        if num_workers > 1 and len(chunks) > 1:
            # Imported here for the same layering reason as in
            # _build_rows_task.
            from repro.experiments.pool import get_pool, shared_graphs

            executor = get_pool().ensure(num_workers)
            shared_csr = shared_graphs().descriptor(graph)
            futures = [
                (
                    lo,
                    chunk,
                    executor.submit(
                        _build_rows_task,
                        shared_csr,
                        tmp_path,
                        num_nodes,
                        offsets,
                        lo,
                        chunk,
                    ),
                )
                for lo, chunk in chunks
            ]
            for lo, chunk, future in futures:
                try:
                    future.result()
                except Exception as exc:
                    # A crashed worker costs its chunk, never the build —
                    # rows are a pure function of (graph, sources), so
                    # the inline recompute is bit-identical.
                    warnings.warn(
                        f"distance-store worker failed on rows "
                        f"[{lo}, {lo + len(chunk)}) ({exc!r}); recomputing "
                        "inline",
                        RuntimeWarning,
                        stacklevel=4,
                    )
                    _write_rows(graph, tmp_path, num_nodes, offsets, lo, chunk)
        else:
            for lo, chunk in chunks:
                _write_rows(graph, tmp_path, num_nodes, offsets, lo, chunk)

    create_segment(
        *_SEGMENT_SCHEMA,
        arrays,
        generation=int(generation),
        meta={"fingerprint": graph_fingerprint(graph)},
        path=path,
        fill=fill,
    )
    return attach_distance_store(path, expected_generation=int(generation))


def attach_distance_store(
    target: Union[str, DistanceStoreDescriptor],
    *,
    expected_generation: Optional[int] = None,
    graph: Optional[Graph] = None,
) -> DistanceStore:
    """Map an existing store file read-only.

    Parameters
    ----------
    target:
        The file path, or a :class:`DistanceStoreDescriptor` (in which
        case the descriptor's generation is enforced).
    expected_generation:
        When given, raise :class:`ValueError` unless the file header
        matches — the stale-generation guard for path-based attaches.
    graph:
        When given, verify node count and content fingerprint against
        the graph the rows were built from.
    """
    if isinstance(target, DistanceStoreDescriptor):
        path = target.path
        if expected_generation is None:
            expected_generation = target.generation
    else:
        path = str(target)

    store = DistanceStore(
        path,
        open_segment(
            *_SEGMENT_SCHEMA, path=path, generation=expected_generation
        ),
    )
    if graph is not None:
        store.check_graph(graph)
    return store
