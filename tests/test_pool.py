"""Persistent worker pool: shared-memory lifecycle, chunking, identity.

Four contracts, each pinned separately so a regression localizes:

* ``Graph.to_shared()/from_shared()`` publish the CSR arrays once and
  attach zero-copy, write-protected views; unlink is explicit and
  segments never leak (a module-scoped fixture diffs ``/dev/shm``).
* :func:`plan_grid_chunks` partitions the (source × receiver-set) grid
  exactly — contiguous source runs, or per-source row slices when
  workers outnumber sources — so worker count is not capped by sources.
* A *warm persistent* pool returns bit-identical sweeps for workers
  ∈ {1, 2, 4}, survives injected worker crashes without recycling, and
  is reused across sweeps (the spawn counter stays flat).
* Observability hands back: ``runner.chunk`` spans carry worker pids
  and real compute durations (the parent's wait is ``runner.chunk_wait``),
  and worker metrics merge into the parent registry as per-task deltas.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.exceptions import ExperimentError
from repro.experiments.config import MonteCarloConfig
from repro.experiments.pool import (
    SharedGraphRegistry,
    WorkerPool,
    get_pool,
    plan_grid_chunks,
    resolve_workers,
    shared_graphs,
    shutdown_pool,
)
from repro.experiments.runner import measure_sweep
from repro.faults import FaultPlan, FaultSpec
from repro.graph.core import Graph, SharedGraphDescriptor
from repro.serve.fleet.store import publish_tables
from repro.serve.tables import EstimatorTable
from repro.topology.kary import kary_tree

pytestmark = pytest.mark.usefixtures("_no_leaked_segments")

MAPS = Path("/proc/self/maps")


def _spawn_count() -> float:
    return obs.default_registry().get("repro_pool_spawns_total").value()


# ---------------------------------------------------------------------------
# Shared-memory graph round trip
# ---------------------------------------------------------------------------


class TestSharedGraph:
    def test_roundtrip_is_byte_identical(self, binary_tree_d4):
        tree = binary_tree_d4.graph
        handle = tree.to_shared()
        try:
            clone = Graph.from_shared(handle.descriptor)
            assert clone == tree
            np.testing.assert_array_equal(clone.indptr, tree.indptr)
            np.testing.assert_array_equal(clone.indices, tree.indices)
            assert clone.indptr.dtype == np.int64
            assert clone.indices.dtype == np.int32
        finally:
            handle.release()

    def test_attached_views_are_write_protected(self, path_graph):
        handle = path_graph.to_shared()
        try:
            clone = Graph.from_shared(handle.descriptor)
            with pytest.raises(ValueError, match="read-only"):
                clone.indptr[0] = 99
            with pytest.raises(ValueError, match="read-only"):
                clone.indices[0] = 99
        finally:
            handle.release()

    def test_descriptor_records_layout(self, binary_tree_d4):
        tree = binary_tree_d4.graph
        handle = tree.to_shared()
        try:
            descriptor = handle.descriptor
            assert descriptor.num_nodes == tree.num_nodes
            assert descriptor.num_indices == tree.indices.shape[0]
            assert descriptor.nbytes == 8 * (
                descriptor.num_nodes + 1
            ) + 4 * descriptor.num_indices
        finally:
            handle.release()

    def test_unlinked_segment_cannot_be_attached(self, path_graph):
        handle = path_graph.to_shared()
        descriptor = handle.descriptor
        handle.release()
        with pytest.raises(FileNotFoundError):
            Graph.from_shared(descriptor)

    def test_release_is_idempotent(self, path_graph):
        handle = path_graph.to_shared()
        handle.release()
        handle.release()
        handle.unlink()

    def test_table_segment_is_not_a_graph(self):
        table = EstimatorTable(
            name="arpa",
            mode="distinct",
            sizes=np.array([1, 10]),
            tree_size=np.array([5.0, 20.0]),
            mean_path=np.array([5.0, 5.0]),
            source="closed-form",
        )
        handle = publish_tables({("arpa", "distinct", "spt"): table}, generation=1)
        try:
            impostor = SharedGraphDescriptor(
                name=handle.descriptor.name,
                num_nodes=1,
                num_indices=0,
                fingerprint="0" * 40,
            )
            with pytest.raises(ValueError, match="csr graph"):
                Graph.from_shared(impostor)
        finally:
            handle.release()

    @pytest.mark.skipif(not MAPS.exists(), reason="needs /proc/self/maps")
    def test_dropped_attachments_are_unmapped(self, binary_tree_d4):
        tree = binary_tree_d4.graph
        names = []
        for _ in range(3):
            handle = tree.to_shared()
            names.append(handle.descriptor.name)
            clone = Graph.from_shared(handle.descriptor)
            assert clone.num_edges == tree.num_edges
            del clone
            handle.release()
        maps = MAPS.read_text()
        assert [name for name in names if name in maps] == []


# ---------------------------------------------------------------------------
# Worker-count resolution and config validation
# ---------------------------------------------------------------------------


class TestResolveWorkers:
    def test_zero_means_one_worker_per_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert resolve_workers(0) == 6

    def test_unknown_cpu_count_degrades_to_one(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_workers(0) == 1

    def test_positive_counts_pass_through(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(7) == 7

    def test_negative_is_rejected(self):
        with pytest.raises(ExperimentError, match="num_workers"):
            resolve_workers(-1)

    def test_config_accepts_auto_and_rejects_negative(self):
        MonteCarloConfig(num_workers=0).validate()
        with pytest.raises(ExperimentError, match="num_workers"):
            MonteCarloConfig(num_workers=-1).validate()


# ---------------------------------------------------------------------------
# Grid chunking
# ---------------------------------------------------------------------------


class TestPlanGridChunks:
    @pytest.mark.parametrize(
        "sources,rows,workers",
        [(6, 5, 4), (4, 8, 4), (1, 8, 4), (3, 8, 8), (2, 3, 16), (5, 5, 1)],
    )
    def test_chunks_partition_the_grid_exactly(self, sources, rows, workers):
        covered = np.zeros((sources, rows), dtype=int)
        for chunk in plan_grid_chunks(sources, rows, workers):
            assert chunk.num_sources >= 1 and chunk.num_rows >= 1
            covered[
                chunk.source_lo : chunk.source_hi, chunk.row_lo : chunk.row_hi
            ] += 1
        assert (covered == 1).all()

    def test_indices_are_sequential(self):
        chunks = plan_grid_chunks(7, 3, 4)
        assert [c.index for c in chunks] == list(range(len(chunks)))

    def test_source_runs_while_sources_outnumber_workers(self):
        chunks = plan_grid_chunks(10, 4, 3)
        assert len(chunks) == 3
        assert all(c.row_lo == 0 and c.row_hi == 4 for c in chunks)
        assert chunks[0].source_lo == 0 and chunks[-1].source_hi == 10
        for prev, nxt in zip(chunks, chunks[1:]):
            assert nxt.source_lo == prev.source_hi

    def test_row_slices_when_workers_outnumber_sources(self):
        # 2 sources cannot occupy 6 workers as whole sources; each
        # source's 8 receiver rows split into 3 slices instead.
        chunks = plan_grid_chunks(2, 8, 6)
        assert len(chunks) == 6
        assert all(c.num_sources == 1 for c in chunks)
        assert {c.source_lo for c in chunks} == {0, 1}

    def test_workers_clamp_to_grid_cells(self):
        chunks = plan_grid_chunks(2, 2, 50)
        assert len(chunks) <= 4

    def test_empty_grid_is_rejected(self):
        with pytest.raises(ExperimentError, match="non-empty"):
            plan_grid_chunks(0, 4, 2)


# ---------------------------------------------------------------------------
# Shared-graph registry
# ---------------------------------------------------------------------------


class TestSharedGraphRegistry:
    def test_descriptor_is_cached_by_content(self, binary_tree_d4):
        registry = SharedGraphRegistry()
        try:
            first = registry.descriptor(binary_tree_d4.graph)
            twin = kary_tree(2, 4).graph  # a distinct object, same topology
            assert registry.descriptor(twin).name == first.name
            assert len(registry) == 1
        finally:
            registry.release_all()

    def test_lru_eviction_unlinks_the_oldest_segment(self):
        registry = SharedGraphRegistry(max_segments=2)
        try:
            graphs = [kary_tree(2, depth).graph for depth in (2, 3, 4)]
            oldest = registry.descriptor(graphs[0])
            registry.descriptor(graphs[1])
            registry.descriptor(graphs[2])
            assert len(registry) == 2
            with pytest.raises(FileNotFoundError):
                Graph.from_shared(oldest)
        finally:
            registry.release_all()

    def test_release_all_empties_and_unlinks(self, path_graph):
        registry = SharedGraphRegistry()
        descriptor = registry.descriptor(path_graph)
        registry.release_all()
        assert len(registry) == 0
        with pytest.raises(FileNotFoundError):
            Graph.from_shared(descriptor)

    def test_invalid_capacity_is_rejected(self):
        with pytest.raises(ExperimentError, match="max_segments"):
            SharedGraphRegistry(max_segments=0)


# ---------------------------------------------------------------------------
# Pool lifecycle (no tasks submitted: executors spawn workers lazily, so
# these stay cheap)
# ---------------------------------------------------------------------------


class TestWorkerPoolLifecycle:
    def test_ensure_grows_and_reuses(self):
        pool = WorkerPool()
        try:
            first = pool.ensure(2)
            assert pool.size == 2
            assert pool.ensure(2) is first
            assert pool.ensure(1) is first  # never shrinks
            grown = pool.ensure(4)
            assert grown is not first
            assert pool.size == 4
        finally:
            pool.recycle()

    def test_recycle_is_idempotent_and_respawns(self):
        pool = WorkerPool()
        try:
            first = pool.ensure(1)
            pool.recycle()
            pool.recycle()
            assert pool.size == 0
            assert pool.ensure(1) is not first
        finally:
            pool.recycle()

    def test_invalid_worker_count_is_rejected(self):
        with pytest.raises(ExperimentError, match="workers"):
            WorkerPool().ensure(0)


# ---------------------------------------------------------------------------
# End-to-end sweeps over the warm persistent pool
# ---------------------------------------------------------------------------

SIZES = [1, 3, 7]


def _sweep(graph, workers, *, seed=11, sources=4, rows=6):
    return measure_sweep(
        graph,
        SIZES,
        config=MonteCarloConfig(
            num_sources=sources,
            num_receiver_sets=rows,
            seed=seed,
            num_workers=workers,
        ),
        topology="kary",
    )


class TestPoolSweeps:
    @pytest.fixture(scope="class")
    def tree(self):
        return kary_tree(2, 4).graph

    def test_bit_identical_for_one_two_and_four_workers(self, tree):
        serial = _sweep(tree, 1)
        for workers in (2, 4):
            assert _sweep(tree, workers) == serial

    def test_pool_persists_across_sweeps(self, tree):
        _sweep(tree, 2)  # warm (a no-op if an earlier test already did)
        spawns = _spawn_count()
        first = _sweep(tree, 2, seed=12)
        second = _sweep(tree, 2, seed=12)
        assert first == second
        assert _spawn_count() == spawns  # no re-spawn, no growth
        assert get_pool().size >= 2
        assert len(shared_graphs()) >= 1  # segment reused, not republished

    def test_injected_worker_crash_recomputes_inline(self, tree):
        baseline = _sweep(tree, 2)
        spawns = _spawn_count()
        plan = FaultPlan(
            [FaultSpec("runner.worker.exit", "crash", max_fires=1)], seed=5
        )
        with plan.activate():
            crashed = _sweep(tree, 2)
        assert plan.injected_count == 1
        assert crashed == baseline
        # An injected crash costs one chunk, not the pool: no recycle.
        assert _spawn_count() == spawns
        assert _sweep(tree, 2) == baseline

    def test_more_workers_than_grid_cells(self, tree):
        serial = _sweep(tree, 1, sources=2, rows=2)
        assert _sweep(tree, 8, sources=2, rows=2) == serial

    def test_row_split_grid_matches_serial(self, tree):
        # Fewer sources than workers: the grid splits receiver rows, the
        # path where stitching re-concatenates per-source counts.
        serial = _sweep(tree, 1, sources=2, rows=8)
        assert _sweep(tree, 4, sources=2, rows=8) == serial

    def test_auto_worker_count_lands_in_the_sweep_span(self, tree, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with obs.tracing() as collector:
            _sweep(tree, 0)
        (sweep,) = [
            s for s in collector.export() if s["name"] == "runner.sweep"
        ]
        assert sweep["attrs"]["workers"] == 2
        assert sweep["attrs"]["workers_requested"] == 0


class TestObsHandBack:
    @pytest.fixture(scope="class")
    def tree(self):
        return kary_tree(2, 4).graph

    def test_chunk_spans_measure_worker_compute(self, tree):
        _sweep(tree, 2)  # warm the pool so spawn cost stays out of spans
        with obs.tracing() as collector:
            _sweep(tree, 2)
        spans = collector.export()
        chunk_spans = [s for s in spans if s["name"] == "runner.chunk"]
        wait_spans = [s for s in spans if s["name"] == "runner.chunk_wait"]
        assert chunk_spans and len(chunk_spans) == len(wait_spans)
        parent = os.getpid()
        for span in chunk_spans:
            assert span["pid"] != parent  # measured *in* the worker
            assert span["duration"] > 0.0
        assert {s["attrs"]["chunk"] for s in chunk_spans} == set(
            range(len(chunk_spans))
        )
        for span in wait_spans:
            assert span["pid"] == parent
            assert "recomputed" not in span["attrs"]

    def test_worker_metrics_merge_into_parent_registry(self, tree):
        chunks = obs.default_registry().get("repro_runner_chunks_total")
        misses = obs.default_registry().get("repro_forest_cache_misses_total")
        before_chunks = chunks.value(path="worker")
        before_misses = misses.value()
        with obs.tracing():
            _sweep(tree, 2, seed=977)  # fresh seed: cold worker caches
        assert chunks.value(path="worker") > before_chunks
        # Worker-side BFS misses travel back as per-task deltas.
        assert misses.value() > before_misses


# ---------------------------------------------------------------------------
# Shutdown (keep last: it tears the process-wide pool down)
# ---------------------------------------------------------------------------


class TestShutdown:
    def test_shutdown_unlinks_segments_and_next_sweep_restarts(self):
        tree = kary_tree(2, 4).graph
        baseline = _sweep(tree, 2)
        descriptor = shared_graphs().descriptor(tree)  # cached, not new
        shutdown_pool()
        assert get_pool().size == 0
        assert len(shared_graphs()) == 0
        with pytest.raises(FileNotFoundError):
            Graph.from_shared(descriptor)
        # The pool is not poisoned: the next sweep re-spawns cleanly.
        assert _sweep(tree, 2) == baseline
