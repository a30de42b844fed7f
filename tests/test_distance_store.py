"""Lifecycle tests for the mmap'd :class:`DistanceStore`.

Mirrors ``test_fleet_store.py``'s contract checks on the file-backed
store: build/attach round trips are bit-identical, attached views are
read-only and zero-copy, stale generations are rejected, unlink keeps
POSIX semantics (attached stores survive, new attachments cannot land),
and no temp files leak.  On top of that, the consumer integrations: the
runner samples bit-identically against a complete store (serial and
worker paths), estimator tables build from a store, and store-built
tables flow through the fleet's publish/attach path.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.exceptions import ExperimentError, GraphError
from repro.experiments.config import MonteCarloConfig
from repro.experiments.runner import measure_sweep
from repro.graph.distance_store import (
    DistanceStoreDescriptor,
    attach_distance_store,
    build_distance_store,
)
from repro.graph.paths import bfs, distances_from
from repro.topology.powerlaw import as_like_graph, internet_like_graph

pytestmark = pytest.mark.usefixtures("_no_leaked_segments")


@pytest.fixture(scope="module")
def graph():
    return as_like_graph(600, rng=17)


def _build(graph, tmp_path, name="store.dist", **kwargs):
    return build_distance_store(graph, str(tmp_path / name), **kwargs)


class TestBuildAttachRoundtrip:
    def test_rows_are_bit_identical_to_bfs(self, graph, tmp_path):
        sources = [0, 7, 599, 123]
        store = _build(graph, tmp_path, sources=sources)
        for i, source in enumerate(sources):
            forest = bfs(graph, source, tie_break="first")
            assert np.array_equal(store.distances[i], forest.dist)
            assert np.array_equal(store.parents[i], forest.parent)
            row_forest = store.forest(source)
            assert np.array_equal(row_forest.dist, forest.dist)
            assert np.array_equal(row_forest.parent, forest.parent)
        store.close()

    def test_forest_supports_path_walks(self, graph, tmp_path):
        store = _build(graph, tmp_path, sources=[5])
        forest = store.forest(5)
        path = forest.path_to(400)
        assert path[0] == 5 and path[-1] == 400
        assert len(path) == forest.dist[400] + 1
        store.close()

    def test_reattach_from_descriptor(self, graph, tmp_path):
        store = _build(graph, tmp_path, sources=[1, 2, 3], generation=6)
        attached = attach_distance_store(store.descriptor, graph=graph)
        assert attached.generation == 6
        assert np.array_equal(attached.distances, store.distances)
        assert np.array_equal(attached.sources, np.asarray([1, 2, 3]))
        attached.close()
        store.close()

    def test_attached_views_are_read_only_and_zero_copy(self, graph, tmp_path):
        store = _build(graph, tmp_path, sources=[0, 1])
        assert not store.distances.flags.writeable
        assert not store.parents.flags.writeable
        with pytest.raises(ValueError):
            store.distances[0, 0] = 1
        # Zero-copy: rows are views over the file mapping.
        assert store.distances.base is not None
        assert store.distance_row(1).base is not None
        store.close()

    def test_parallel_build_matches_serial(self, graph, tmp_path):
        sources = list(range(0, 60))
        serial = _build(graph, tmp_path, "serial.dist", sources=sources)
        parallel = _build(
            graph,
            tmp_path,
            "parallel.dist",
            sources=sources,
            num_workers=2,
            chunk_sources=7,
        )
        assert np.array_equal(serial.distances, parallel.distances)
        assert np.array_equal(serial.parents, parallel.parents)
        serial.close()
        parallel.close()

    def test_distance_only_store_refuses_forests(self, graph, tmp_path):
        store = _build(
            graph, tmp_path, sources=[4], include_parents=False
        )
        assert store.parents is None
        assert np.array_equal(store.distance_row(4), distances_from(graph, 4))
        with pytest.raises(GraphError, match="parent"):
            store.forest(4)
        store.close()

    def test_unknown_source_rejected(self, graph, tmp_path):
        store = _build(graph, tmp_path, sources=[1, 2])
        with pytest.raises(GraphError, match="no row"):
            store.distance_row(3)
        store.close()

    def test_duplicate_sources_rejected(self, graph, tmp_path):
        with pytest.raises(GraphError, match="unique"):
            _build(graph, tmp_path, sources=[1, 1, 2])

    def test_rows_match_bfs_past_65536_nodes(self, tmp_path):
        big = internet_like_graph(70_000, rng=5, stream="vectorized")
        assert big.num_nodes >= 1 << 16
        sources = [0, big.num_nodes // 2, big.num_nodes - 1]
        store = _build(big, tmp_path, sources=sources)
        for source in sources:
            forest = bfs(big, source)
            row_forest = store.forest(source)
            assert np.array_equal(row_forest.dist, forest.dist)
            assert np.array_equal(row_forest.parent, forest.parent)
        store.close()


class TestGenerationAndGraphGuards:
    def test_stale_generation_is_rejected(self, graph, tmp_path):
        store = _build(graph, tmp_path, sources=[0], generation=2)
        stale = DistanceStoreDescriptor(
            path=store.path,
            generation=7,
            num_nodes=store.num_nodes,
            num_sources=store.num_sources,
            has_parents=True,
            fingerprint=store.fingerprint,
            nbytes=store.descriptor.nbytes,
        )
        with pytest.raises(ValueError, match="generation"):
            attach_distance_store(stale)
        store.close()

    def test_wrong_graph_is_rejected(self, graph, tmp_path):
        store = _build(graph, tmp_path, sources=[0])
        other = as_like_graph(600, rng=99)
        with pytest.raises(GraphError, match="built for"):
            attach_distance_store(store.path, graph=other)
        with pytest.raises(GraphError):
            measure_sweep(
                other,
                [1, 4],
                config=MonteCarloConfig(num_sources=2, num_receiver_sets=2),
                distance_store=store,
            )
        store.close()

    def test_non_store_file_is_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.dist"
        bogus.write_bytes(b"\x00" * 64)
        with pytest.raises(ValueError, match="distance store"):
            attach_distance_store(str(bogus))

    def test_truncated_store_is_rejected(self, graph, tmp_path):
        store = _build(graph, tmp_path, sources=[0, 1, 2])
        data = (tmp_path / "store.dist").read_bytes()
        cut = tmp_path / "cut.dist"
        cut.write_bytes(data[: -4 * store.num_nodes])  # one row short
        with pytest.raises(ValueError, match="truncated"):
            attach_distance_store(str(cut))
        store.close()


class TestAtomicBuild:
    def test_failed_build_leaves_the_directory_unchanged(
        self, graph, tmp_path, monkeypatch
    ):
        kept = _build(graph, tmp_path, "kept.dist", sources=[0], generation=1)
        kept.close()
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def failing_bfs(*args, **kwargs):
            raise RuntimeError("injected BFS failure")

        monkeypatch.setattr(
            "repro.graph.distance_store.bfs_from_many", failing_bfs
        )
        # A fresh path gets no partial file; a rebuild onto an existing
        # store leaves the old generation intact.
        for name in ("fresh.dist", "kept.dist"):
            with pytest.raises(RuntimeError, match="injected"):
                _build(graph, tmp_path, name, sources=[0, 1, 2], generation=2)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert attach_distance_store(kept.path).generation == 1


class TestUnlinkSemantics:
    def test_attached_store_survives_the_creator_unlink(self, graph, tmp_path):
        creator = _build(graph, tmp_path, sources=[0, 9])
        attached = attach_distance_store(creator.path)
        expected = bfs(graph, 9).dist
        creator.unlink()
        # The reader's mapping outlives the unlink...
        assert np.array_equal(attached.distance_row(9), expected)
        # ...but new attachments cannot land on the retired file.
        with pytest.raises(FileNotFoundError):
            attach_distance_store(creator.path)
        attached.close()
        creator.close()

    def test_unlink_is_idempotent(self, graph, tmp_path):
        store = _build(graph, tmp_path, sources=[0])
        store.unlink()
        store.unlink()
        store.close()

    def test_close_then_row_access_raises(self, graph, tmp_path):
        store = _build(graph, tmp_path, sources=[0])
        store.close()
        store.close()  # idempotent
        with pytest.raises(GraphError):
            store.distance_row(0)

    def test_two_generations_coexist_until_the_old_retires(self, graph, tmp_path):
        old = _build(graph, tmp_path, "gen1.dist", sources=[3], generation=1)
        new = _build(graph, tmp_path, "gen2.dist", sources=[3], generation=2)
        assert np.array_equal(old.distances, new.distances)
        assert old.generation == 1 and new.generation == 2
        old.unlink()
        assert attach_distance_store(new.path).generation == 2
        new.unlink()
        old.close()
        new.close()

    def test_no_files_leak(self, graph, tmp_path):
        before = set(os.listdir(tmp_path))
        store = _build(graph, tmp_path, "leakcheck.dist", sources=[0, 1])
        assert set(os.listdir(tmp_path)) != before
        store.close()
        store.unlink()
        assert set(os.listdir(tmp_path)) == before


class TestRunnerIntegration:
    def test_complete_store_sweep_is_bit_identical(self, graph, tmp_path):
        store = _build(graph, tmp_path)  # one row per node
        assert store.is_complete
        config = MonteCarloConfig(num_sources=6, num_receiver_sets=5, seed=13)
        base = measure_sweep(graph, [1, 4, 16], config=config)
        stored = measure_sweep(
            graph, [1, 4, 16], config=config, distance_store=store
        )
        assert stored == base
        store.close()

    def test_worker_path_with_store_is_bit_identical(self, graph, tmp_path):
        store = _build(graph, tmp_path)
        serial = MonteCarloConfig(num_sources=6, num_receiver_sets=5, seed=13)
        fanned = MonteCarloConfig(
            num_sources=6, num_receiver_sets=5, seed=13, num_workers=2
        )
        base = measure_sweep(graph, [1, 4, 16], config=serial)
        stored = measure_sweep(
            graph, [1, 4, 16], config=fanned, distance_store=store
        )
        assert stored == base
        store.close()

    def test_partial_store_sweep_is_deterministic(self, graph, tmp_path):
        store = _build(graph, tmp_path, sources=[2, 40, 100, 599])
        assert not store.is_complete
        config = MonteCarloConfig(num_sources=4, num_receiver_sets=4, seed=5)
        first = measure_sweep(
            graph, [1, 8], config=config, distance_store=store
        )
        again = measure_sweep(
            graph, [1, 8], config=config, distance_store=store
        )
        assert first == again
        assert all(v > 0 for v in first.mean_tree_size)
        store.close()

    def test_random_tie_break_is_refused(self, graph, tmp_path):
        store = _build(graph, tmp_path, sources=[0])
        config = MonteCarloConfig(
            num_sources=2, num_receiver_sets=2, tie_break="random"
        )
        with pytest.raises(ExperimentError, match="first"):
            measure_sweep(graph, [1], config=config, distance_store=store)
        store.close()

    def test_distance_only_store_is_refused(self, graph, tmp_path):
        store = _build(graph, tmp_path, include_parents=False)
        config = MonteCarloConfig(num_sources=2, num_receiver_sets=2)
        with pytest.raises(ExperimentError, match="parent"):
            measure_sweep(graph, [1], config=config, distance_store=store)
        store.close()

    def test_runner_store_cache_evicts_old_attachments(self, graph, tmp_path):
        maps = "/proc/self/maps"
        if not os.path.exists(maps):
            pytest.skip("needs /proc/self/maps")
        config = MonteCarloConfig(num_sources=2, num_receiver_sets=2, seed=1)
        paths = []
        for i in range(9):
            store = _build(graph, tmp_path, f"lru{i}.dist", sources=[i, i + 1])
            paths.append(store.path)
            measure_sweep(
                graph, [1, 2], config=config, distance_store=store.descriptor
            )
            store.close()
        with open(maps, encoding="utf-8") as handle:
            mapped = handle.read()
        assert paths[0] not in mapped
        assert paths[-1] in mapped


class TestServeIntegration:
    def test_table_from_store_matches_storeless_build(self, graph, tmp_path):
        from repro.serve.tables import EstimatorTable

        store = _build(graph, tmp_path)
        config = MonteCarloConfig(num_sources=4, num_receiver_sets=4, seed=3)
        base = EstimatorTable.from_sweep(graph, "as", config=config, rng=3)
        stored = EstimatorTable.from_sweep(
            graph, "as", config=config, rng=3, distance_store=store
        )
        assert np.array_equal(base.sizes, stored.sizes)
        assert np.array_equal(base.tree_size, stored.tree_size)
        assert np.array_equal(base.mean_path, stored.mean_path)
        store.close()

    def test_store_built_table_flows_through_fleet_store(self, graph, tmp_path):
        from repro.serve.fleet.store import attach_tables, publish_tables
        from repro.serve.tables import EstimatorTable

        store = _build(graph, tmp_path)
        config = MonteCarloConfig(num_sources=3, num_receiver_sets=3, seed=8)
        table = EstimatorTable.from_sweep(
            graph, "as", config=config, rng=8, distance_store=store
        )
        handle = publish_tables({("as", "distinct", "spt"): table}, generation=1)
        try:
            attached = attach_tables(handle.descriptor)[("as", "distinct", "spt")]
            assert np.array_equal(attached.tree_size, table.tree_size)
            assert np.array_equal(attached.mean_path, table.mean_path)
        finally:
            handle.release()
        store.close()
