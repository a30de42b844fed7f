"""Persistent shared-memory worker pool for the Monte-Carlo engine.

Why this module exists
----------------------
4 workers used to run *slower* than one (a measured 0.78×): every
parallel sweep spawned a fresh ``ProcessPoolExecutor``
(interpreter start + imports per worker, per sweep) and pickled the
whole CSR topology into every ``submit()``.  Both costs are fixed, so
this module pays each exactly once:

* **One pool per process.**  :class:`WorkerPool` lazily spawns a
  spawn-context executor the first parallel sweep needs, grows it when
  a sweep asks for more workers, and reuses it until process exit (or
  :func:`shutdown_pool`).  Spawn — not fork — so workers start with
  clean state: no inherited trace collectors, fault plans, or caches.
* **One shared segment per topology.**  :class:`SharedGraphRegistry`
  publishes a graph's CSR arrays via :meth:`Graph.to_shared` keyed by
  the content fingerprint; repeated sweeps over the same topology (and
  every worker's :class:`~repro.graph.forest_cache.ForestCache`) reuse
  one attachment.  Tasks carry a
  :class:`~repro.graph.core.SharedGraphDescriptor` — a few dozen bytes
  — instead of the graph (enforced by lint rule RR010).
* **Grid chunking.**  :func:`plan_grid_chunks` splits the
  (source × receiver-set) grid: contiguous source runs while sources
  outnumber workers, per-source receiver-row slices otherwise — so the
  worker count is no longer capped by ``num_sources``.

Bit-identity
------------
Workers return **raw integer counts** (per-size links / unicast totals
from :func:`repro.experiments.runner._source_counts`); the parent
stitches row slices back into full per-source arrays with
``np.concatenate`` and only then runs the float reduction.  Integer
re-layout commutes with nothing float, so results are bit-identical to
the serial path for every worker count and every chunking.  A row-slice
worker draws the source's *full* receiver matrices (sampling is what
consumes the stream; counting draws nothing) and counts only its rows,
which keeps the PR 1 seed-sequence layout intact.

Failure and observability
-------------------------
The ``runner.worker.exit`` fault point fires parent-side per chunk; a
crashed worker (injected or real) costs its chunk, never the run — the
chunk is a pure function of its seed sequences, so the inline recompute
is bit-identical.  A genuinely broken executor is recycled so the next
sweep re-spawns cleanly.  When the parent is tracing, each task arms a
worker-side collector and hands back its spans (so ``runner.chunk``
measures real worker compute; the parent's wait is ``runner.chunk_wait``)
plus a per-task metrics delta merged into the parent registry.
"""

from __future__ import annotations

import atexit
import logging
import multiprocessing
import os
import threading
from collections import OrderedDict
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro import faults, obs
from repro.exceptions import ExperimentError
from repro.graph.core import Graph, SharedGraphDescriptor
from repro.graph.forest_cache import graph_fingerprint
from repro.utils.segment import SegmentHandle

__all__ = [
    "GridChunk",
    "plan_grid_chunks",
    "resolve_workers",
    "SharedGraphRegistry",
    "WorkerPool",
    "get_pool",
    "shared_graphs",
    "shutdown_pool",
    "run_sweep_chunks",
]

logger = logging.getLogger("repro.experiments.pool")

_FP_WORKER_EXIT = faults.point(
    "runner.worker.exit",
    "Parent-side, as a worker chunk's result is collected; a 'crash' "
    "simulates the worker process dying — the chunk must be recomputed "
    "inline and the source-order reduction stay bit-identical.",
)

# Same spec as the runner's declaration: obs metrics are get-or-create,
# so both modules increment one shared series.
_OBS_CHUNKS = obs.counter(
    "repro_runner_chunks_total",
    "Source chunks by execution path: worker processes, the serial "
    "fallback, or an inline recompute after a worker died.",
    labelnames=("path",),
)
_OBS_POOL_SPAWNS = obs.counter(
    "repro_pool_spawns_total",
    "Worker-pool executors spawned (persistent: ~1 per process, +1 per "
    "growth or post-crash recycle).",
)
_OBS_POOL_TASKS = obs.counter(
    "repro_pool_tasks_total", "Grid-chunk tasks submitted to the pool."
)
_OBS_POOL_WORKERS = obs.gauge(
    "repro_pool_workers", "Current size of the persistent worker pool."
)
_OBS_SEGMENTS = obs.gauge(
    "repro_shared_graph_segments",
    "Shared-memory graph segments currently published by this process.",
)


#: Published graph segments kept per process: the parent registry's
#: default LRU bound, and the bound on each worker's attachments.
_MAX_SEGMENTS = 8


def resolve_workers(requested: int) -> int:
    """Concrete worker count for a config value (``0`` = one per CPU)."""
    requested = int(requested)
    if requested < 0:
        raise ExperimentError(
            f"num_workers must be >= 0 (0 = auto), got {requested}"
        )
    if requested == 0:
        return max(1, os.cpu_count() or 1)
    return requested


# ---------------------------------------------------------------------------
# Grid chunking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridChunk:
    """One task's slice of the (source × receiver-set) grid.

    Spans sources ``[source_lo, source_hi)`` and receiver-set rows
    ``[row_lo, row_hi)``.  Multi-source chunks always cover every row;
    single-source row slices appear only when workers outnumber sources.
    """

    index: int
    source_lo: int
    source_hi: int
    row_lo: int
    row_hi: int

    @property
    def num_sources(self) -> int:
        return self.source_hi - self.source_lo

    @property
    def num_rows(self) -> int:
        return self.row_hi - self.row_lo


def plan_grid_chunks(
    num_sources: int, num_rows: int, workers: int
) -> List[GridChunk]:
    """Split the grid into ~``workers`` contiguous tasks.

    Sources are the natural unit (each source's forest and receiver
    matrices are private to its stream), so while sources outnumber
    workers the grid splits into contiguous source runs — the same
    layout the serial reduction walks.  With fewer sources than
    workers, each source's receiver rows split into
    ``ceil(workers / num_sources)`` slices instead, so the worker count
    is not capped by the source count.  Bit-identity never depends on
    the split: chunks return raw integer counts and the parent
    re-assembles rows in order before any float math.
    """
    if num_sources < 1 or num_rows < 1:
        raise ExperimentError(
            f"grid must be non-empty, got {num_sources}x{num_rows}"
        )
    workers = max(1, min(int(workers), num_sources * num_rows))
    if num_sources >= workers:
        bounds = np.linspace(0, num_sources, workers + 1, dtype=int)
        spans = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
        return [
            GridChunk(i, int(lo), int(hi), 0, num_rows)
            for i, (lo, hi) in enumerate(spans)
        ]
    per_source = min(-(-workers // num_sources), num_rows)
    row_bounds = np.linspace(0, num_rows, per_source + 1, dtype=int)
    row_spans = [
        (lo, hi) for lo, hi in zip(row_bounds, row_bounds[1:]) if hi > lo
    ]
    chunks: List[GridChunk] = []
    for source in range(num_sources):
        for lo, hi in row_spans:
            chunks.append(
                GridChunk(len(chunks), source, source + 1, int(lo), int(hi))
            )
    return chunks


# ---------------------------------------------------------------------------
# Shared-graph registry (parent side)
# ---------------------------------------------------------------------------


class SharedGraphRegistry:
    """Published graph segments, deduplicated by content fingerprint.

    ``descriptor(graph)`` publishes on first sight and returns the
    cached descriptor afterwards, so repeated sweeps over structurally
    identical topologies (every figure driver rebuilds its own
    :class:`Graph`) share one segment and one worker-side attachment.
    LRU-bounded; evicted segments are unlinked — workers that still
    hold views keep their mapping until the views die (POSIX semantics),
    they just can't be joined by new attachments.
    """

    def __init__(self, max_segments: int = _MAX_SEGMENTS) -> None:
        if max_segments < 1:
            raise ExperimentError(
                f"max_segments must be >= 1, got {max_segments}"
            )
        self._max_segments = int(max_segments)
        self._handles: "OrderedDict[str, SegmentHandle]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._handles)

    def descriptor(self, graph: Graph) -> SharedGraphDescriptor:
        """The (possibly cached) descriptor publishing ``graph``."""
        fingerprint = graph_fingerprint(graph)
        with self._lock:
            handle = self._handles.get(fingerprint)
            if handle is not None:
                self._handles.move_to_end(fingerprint)
                return handle.descriptor
        handle = graph.to_shared()
        evicted: List[SegmentHandle] = []
        with self._lock:
            raced = self._handles.get(fingerprint)
            if raced is not None:
                evicted.append(handle)
                handle = raced
                self._handles.move_to_end(fingerprint)
            else:
                self._handles[fingerprint] = handle
                while len(self._handles) > self._max_segments:
                    evicted.append(self._handles.popitem(last=False)[1])
        for old in evicted:
            old.release()
        _OBS_SEGMENTS.set(len(self))
        return handle.descriptor

    def release_all(self) -> None:
        """Unlink every published segment (atexit / test teardown)."""
        with self._lock:
            handles = list(self._handles.values())
            self._handles.clear()
        for handle in handles:
            handle.release()
        _OBS_SEGMENTS.set(0)


# ---------------------------------------------------------------------------
# The persistent pool
# ---------------------------------------------------------------------------


class WorkerPool:
    """The process-wide persistent executor behind every parallel sweep.

    Spawn-context workers are started once and reused across sweeps;
    :meth:`ensure` grows the pool when a sweep asks for more workers
    than it has and keeps the larger size (idle workers cost a few MB;
    re-spawning costs interpreter start + imports).  :meth:`recycle`
    discards the executor — after a real crash, or from
    :func:`shutdown_pool` — so the next sweep re-spawns cleanly.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._size = 0

    @property
    def size(self) -> int:
        """Workers the current executor was sized for (0 = none yet)."""
        return self._size

    def ensure(self, workers: int) -> ProcessPoolExecutor:
        """The executor, spawned or grown to at least ``workers``."""
        workers = int(workers)
        if workers < 1:
            raise ExperimentError(f"workers must be >= 1, got {workers}")
        retired = None
        with self._lock:
            if self._executor is None or workers > self._size:
                retired = self._executor
                self._size = max(workers, self._size)
                self._executor = ProcessPoolExecutor(
                    max_workers=self._size,
                    mp_context=multiprocessing.get_context("spawn"),
                )
                _OBS_POOL_SPAWNS.inc()
                _OBS_POOL_WORKERS.set(self._size)
            executor = self._executor
        if retired is not None:
            retired.shutdown(wait=False)
        return executor

    def recycle(self) -> None:
        """Drop the executor (idempotent); the next sweep re-spawns."""
        with self._lock:
            executor = self._executor
            self._executor = None
            self._size = 0
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
            _OBS_POOL_WORKERS.set(0)


_POOL = WorkerPool()
_SHARED = SharedGraphRegistry()


def get_pool() -> WorkerPool:
    """The process-wide persistent pool."""
    return _POOL


def shared_graphs() -> SharedGraphRegistry:
    """The process-wide shared-graph registry."""
    return _SHARED


def shutdown_pool() -> None:
    """Stop the workers and unlink every shared segment.

    Registered with ``atexit`` so no segment survives the process; safe
    to call repeatedly (tests do) — the next parallel sweep simply
    re-spawns and re-publishes.
    """
    _POOL.recycle()
    _SHARED.release_all()


atexit.register(shutdown_pool)


# ---------------------------------------------------------------------------
# Worker-side task
# ---------------------------------------------------------------------------

#: Worker-side attachments: segment name -> zero-copy Graph view, LRU-
#: bounded like the parent registry.  Segment names are unique, so a
#: re-published topology gets a fresh entry and the stale one ages out;
#: its mapping dies with its views.
_ATTACHED: "OrderedDict[str, Graph]" = OrderedDict()


def _attached_graph(descriptor: SharedGraphDescriptor) -> Graph:
    graph = _ATTACHED.get(descriptor.name)
    if graph is None:
        graph = Graph.from_shared(descriptor)
        _ATTACHED[descriptor.name] = graph
        while len(_ATTACHED) > _MAX_SEGMENTS:
            _ATTACHED.popitem(last=False)
    else:
        _ATTACHED.move_to_end(descriptor.name)
    return graph


def _chunk_counts(
    fn: Callable[..., Tuple],
    graph: Graph,
    chunk: GridChunk,
    child_seeds: Sequence,
    task_args: Tuple,
) -> List[Tuple]:
    """Raw counts for one chunk — shared by workers and inline recompute."""
    row_slice = (chunk.row_lo, chunk.row_hi)
    return [
        fn(graph, child, *task_args, row_slice=row_slice)
        for child in child_seeds
    ]


def _worker_chunk(
    fn: Callable[..., Tuple],
    descriptor: SharedGraphDescriptor,
    chunk: GridChunk,
    child_seeds: Sequence,
    task_args: Tuple,
    want_trace: bool,
):
    """Worker-process entry point: counts plus obs hand-back.

    Runs disarmed unless the parent is tracing, in which case a local
    collector brackets the compute in a worker-side ``runner.chunk``
    span — absorbed by the parent, so chunk durations measure worker
    compute, not parent wait.  Metrics return as the delta against the
    task-start snapshot: persistent workers serve many tasks, and
    re-sending cumulative totals would double-count in the parent.
    """
    graph = _attached_graph(descriptor)
    registry = obs.default_registry()
    before = registry.to_dict()
    collector = None
    if want_trace and obs.active_collector() is None:
        collector = obs.start_tracing()
    try:
        with obs.span(
            "runner.chunk",
            chunk=chunk.index,
            sources=chunk.num_sources,
            rows=chunk.num_rows,
        ):
            counts = _chunk_counts(fn, graph, chunk, child_seeds, task_args)
    finally:
        if collector is not None:
            obs.stop_tracing()
    spans = collector.export() if collector is not None else None
    return counts, spans, obs.metrics_delta(before, registry.to_dict())


# ---------------------------------------------------------------------------
# Parent-side orchestration
# ---------------------------------------------------------------------------


def _stitch_source_counts(
    chunks: Sequence[GridChunk],
    results: Sequence[List[Tuple]],
    num_sources: int,
) -> List[Tuple[List[np.ndarray], List[np.ndarray]]]:
    """Re-assemble full-row per-source (links, totals) lists.

    Row slices concatenate in row order — an integer re-layout, so the
    downstream float reduction sees exactly the arrays the serial path
    computes.
    """
    gathered: List[List[Tuple[int, Tuple]]] = [[] for _ in range(num_sources)]
    for chunk, chunk_result in zip(chunks, results):
        for offset, source in enumerate(
            range(chunk.source_lo, chunk.source_hi)
        ):
            gathered[source].append((chunk.row_lo, chunk_result[offset]))
    stitched: List[Tuple[List[np.ndarray], List[np.ndarray]]] = []
    for rows in gathered:
        rows.sort(key=lambda item: item[0])
        parts = [item[1] for item in rows]
        if len(parts) == 1:
            stitched.append(parts[0])
            continue
        num_sizes = len(parts[0][0])
        stitched.append(
            (
                [
                    np.concatenate([part[0][k] for part in parts])
                    for k in range(num_sizes)
                ],
                [
                    np.concatenate([part[1][k] for part in parts])
                    for k in range(num_sizes)
                ],
            )
        )
    return stitched


def run_sweep_chunks(
    graph: Graph,
    children: Sequence,
    num_rows: int,
    workers: int,
    fn: Callable[..., Tuple],
    task_args: Tuple,
) -> List[Tuple[List[np.ndarray], List[np.ndarray]]]:
    """Fan one sweep's grid over the persistent pool.

    ``fn`` is the per-source counting function (picklable by reference;
    the runner passes ``_source_counts``) called as
    ``fn(graph, child, *task_args, row_slice=(lo, hi))``.  Returns one
    full-row ``(links_list, totals_list)`` pair per source, in source
    order — exactly what the serial path computes.  Crashed workers
    (injected or real) fall back to the bit-identical inline recompute;
    a genuinely broken executor is recycled afterwards so the next
    sweep gets a fresh pool.
    """
    chunks = plan_grid_chunks(len(children), num_rows, workers)
    descriptor = _SHARED.descriptor(graph)
    executor = _POOL.ensure(min(int(workers), len(chunks)))
    want_trace = obs.active_collector() is not None

    futures: List[Optional[object]] = []
    broken = False
    for chunk in chunks:
        if broken:
            futures.append(None)
            continue
        try:
            futures.append(
                executor.submit(
                    _worker_chunk,
                    fn,
                    descriptor,
                    chunk,
                    children[chunk.source_lo : chunk.source_hi],
                    task_args,
                    want_trace,
                )
            )
        except (BrokenExecutor, RuntimeError) as exc:
            logger.warning(
                "pool submit failed (%s); chunk %d and the rest run inline",
                exc,
                chunk.index,
            )
            broken = True
            futures.append(None)
    _OBS_POOL_TASKS.inc(sum(1 for f in futures if f is not None))

    collector = obs.active_collector()
    results: List[List[Tuple]] = []
    for chunk, future in zip(chunks, futures):
        seeds = children[chunk.source_lo : chunk.source_hi]
        with obs.span(
            "runner.chunk_wait", chunk=chunk.index, sources=len(seeds)
        ) as wait_span:
            try:
                _FP_WORKER_EXIT.fire(chunk=chunk.index)
                if future is None:
                    raise BrokenExecutor("worker pool is broken")
                counts, spans, delta = future.result()
                if spans and collector is not None:
                    collector.absorb(spans)
                if delta["metrics"]:
                    obs.default_registry().merge(delta)
                _OBS_CHUNKS.inc(path="worker")
            except (faults.WorkerCrash, BrokenExecutor) as exc:
                # A dead worker costs its chunk, never the run: the
                # chunk is a pure function of its seed sequences, so the
                # inline recompute is bit-identical to what the worker
                # would have returned.
                logger.warning(
                    "worker for chunk %d/%d died (%s); recomputing inline",
                    chunk.index + 1,
                    len(chunks),
                    exc,
                )
                if isinstance(exc, BrokenExecutor):
                    broken = True
                counts = _chunk_counts(fn, graph, chunk, seeds, task_args)
                _OBS_CHUNKS.inc(path="inline-recompute")
                wait_span.set(recomputed=True)
        results.append(counts)
    if broken:
        _POOL.recycle()
    return _stitch_source_counts(chunks, results, len(children))
