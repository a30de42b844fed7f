"""Tests for the content-keyed LRU forest cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graph.core import Graph
from repro.graph.forest_cache import (
    DEFAULT_MAX_ENTRIES,
    ForestCache,
    default_forest_cache,
    graph_fingerprint,
)
from repro.graph.paths import bfs


def ring(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


class TestFingerprint:
    def test_identical_content_shares_fingerprint(self):
        # Two independently built but identical graphs — the property the
        # cross-driver cache sharing rests on.
        assert graph_fingerprint(ring(8)) == graph_fingerprint(ring(8))

    def test_different_graphs_differ(self):
        assert graph_fingerprint(ring(8)) != graph_fingerprint(ring(9))
        chord = Graph.from_edges(
            8, [(i, (i + 1) % 8) for i in range(8)] + [(0, 4)]
        )
        assert graph_fingerprint(ring(8)) != graph_fingerprint(chord)

    def test_memoized_per_object(self):
        graph = ring(16)
        assert graph_fingerprint(graph) == graph_fingerprint(graph)


class TestForestCache:
    def test_hit_returns_same_object(self):
        cache = ForestCache()
        graph = ring(10)
        first = cache.forest(graph, 0)
        second = cache.forest(graph, 0)
        assert second is first
        assert (cache.hits, cache.misses) == (1, 1)

    def test_rebuilt_identical_graph_hits(self):
        cache = ForestCache()
        forest = cache.forest(ring(10), 3)
        again = cache.forest(ring(10), 3)
        assert again is forest
        assert cache.hits == 1

    def test_forest_is_correct(self):
        cache = ForestCache()
        graph = ring(9)
        forest = cache.forest(graph, 2)
        reference = bfs(graph, 2)
        assert forest.source == 2
        assert np.array_equal(forest.dist, reference.dist)

    def test_distinct_keys_miss(self):
        cache = ForestCache()
        graph = ring(10)
        cache.forest(graph, 0)
        cache.forest(graph, 1)  # different source
        cache.forest(ring(11), 0)  # different graph
        assert (cache.hits, cache.misses) == (0, 3)
        assert len(cache) == 3

    def test_lru_eviction_order(self):
        cache = ForestCache(max_entries=2)
        graph = ring(12)
        cache.forest(graph, 0)
        cache.forest(graph, 1)
        cache.forest(graph, 0)  # refresh 0 -> 1 is now least recent
        cache.forest(graph, 2)  # evicts 1
        assert len(cache) == 2
        cache.forest(graph, 0)
        assert cache.hits == 2  # 0 survived
        cache.forest(graph, 1)
        assert cache.misses == 4  # 1 was evicted and recomputed

    def test_clear_resets(self):
        cache = ForestCache()
        cache.forest(ring(8), 0)
        cache.forest(ring(8), 0)
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (0, 0)

    def test_capacity_validation(self):
        with pytest.raises(GraphError, match="max_entries"):
            ForestCache(max_entries=0)
        assert ForestCache().max_entries == DEFAULT_MAX_ENTRIES

    def test_repr_mentions_counters(self):
        cache = ForestCache(max_entries=4)
        cache.forest(ring(6), 0)
        assert "hits=0" in repr(cache) and "misses=1" in repr(cache)


class TestRandomTieBreak:
    def test_requires_integer_seed(self):
        cache = ForestCache()
        with pytest.raises(GraphError, match="seed"):
            cache.forest(ring(8), 0, tie_break="random")

    def test_seed_is_part_of_key(self):
        cache = ForestCache()
        graph = ring(10)
        a = cache.forest(graph, 0, tie_break="random", seed=1)
        b = cache.forest(graph, 0, tie_break="random", seed=2)
        assert cache.misses == 2
        again = cache.forest(graph, 0, tie_break="random", seed=1)
        assert again is a and again is not b

    def test_cached_forest_matches_direct_bfs(self):
        cache = ForestCache()
        graph = ring(10)
        cached = cache.forest(graph, 0, tie_break="random", seed=5)
        direct = bfs(graph, 0, tie_break="random", rng=5)
        assert np.array_equal(cached.parent, direct.parent)

    def test_seed_rejected_for_first(self):
        cache = ForestCache()
        with pytest.raises(GraphError, match="random"):
            cache.forest(ring(8), 0, tie_break="first", seed=1)


class TestWriteGuards:
    """Cached forests are shared: handed out read-only, copied to write."""

    def test_mutating_cached_dist_raises(self):
        cache = ForestCache()
        forest = cache.forest(ring(10), 0)
        with pytest.raises(ValueError, match="read-only"):
            forest.dist[3] = 99

    def test_mutating_cached_parent_raises(self):
        cache = ForestCache()
        forest = cache.forest(ring(10), 0)
        with pytest.raises(ValueError, match="read-only"):
            forest.parent[...] = -1

    def test_thawed_entry_is_refrozen_on_next_hand_out(self):
        cache = ForestCache()
        graph = ring(10)
        first = cache.forest(graph, 0)
        # A misbehaving caller re-enables writes on the shared arrays...
        first.dist.setflags(write=True)
        # ...but the next hand-out arrives frozen again.
        second = cache.forest(graph, 0)
        assert second is first
        with pytest.raises(ValueError, match="read-only"):
            second.dist[0] = 7

    def test_get_is_an_alias_for_forest(self):
        cache = ForestCache()
        graph = ring(10)
        assert cache.get(graph, 4) is cache.forest(graph, 4)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_borrow_mutable_is_writable_independent_copy(self):
        cache = ForestCache()
        graph = ring(10)
        shared = cache.forest(graph, 0)
        borrowed = cache.borrow_mutable(graph, 0)
        assert borrowed is not shared
        assert np.array_equal(borrowed.dist, shared.dist)
        assert np.array_equal(borrowed.parent, shared.parent)
        borrowed.dist[5] = 123
        borrowed.parent[5] = 7
        # The shared cache entry never sees the edits.
        assert shared.dist[5] != 123
        assert cache.forest(graph, 0).dist[5] == shared.dist[5]

    def test_borrow_mutable_reuses_the_cache_entry(self):
        cache = ForestCache()
        graph = ring(10)
        cache.forest(graph, 0)
        cache.borrow_mutable(graph, 0)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_borrow_mutable_random_tie_break(self):
        cache = ForestCache()
        graph = ring(10)
        borrowed = cache.borrow_mutable(graph, 0, tie_break="random", seed=3)
        direct = bfs(graph, 0, tie_break="random", rng=3)
        assert np.array_equal(borrowed.parent, direct.parent)
        borrowed.parent[1] = -5  # must not raise


class TestReuseMark:
    """A hit marks the shared forest reused and builds nothing; the
    tables a reused forest keeps are shared read-only state too."""

    def test_hit_marks_reused_and_builds_nothing(self):
        cache = ForestCache()
        graph = ring(10)
        first = cache.forest(graph, 0)
        assert not first.reused
        assert cache.forest(graph, 0).reused
        assert first.kept_preorder is None
        assert not bfs(graph, 0).reused

    def test_borrow_mutable_copy_is_unmarked(self):
        cache = ForestCache()
        graph = ring(10)
        cache.forest(graph, 0)
        cache.forest(graph, 0).preorder
        copy = cache.borrow_mutable(graph, 0)
        assert not copy.reused and copy.kept_preorder is None

    def test_kept_tables_are_read_only(self):
        cache = ForestCache()
        rank, table, left, right = cache.forest(ring(10), 0).preorder
        for array in (rank, table, left, right):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_gap_offsets_are_shared_by_reachable_count(self):
        cache = ForestCache()
        graph = ring(12)
        a, b = (cache.forest(graph, s).preorder for s in (0, 5))
        assert a[2] is b[2] and a[3] is b[3]
        assert a[0] is not b[0]


class TestConcurrency:
    """Thread-safety and single-flight regressions for shared caches.

    The serving layer points many executor threads at one cache; these
    tests run real thread pools against small caches so lookup/insert
    interleavings and eviction races actually happen.
    """

    def test_concurrent_borrowers_under_eviction_pressure(self):
        import threading

        cache = ForestCache(max_entries=3)  # far fewer slots than keys
        graph = ring(16)
        expected = {s: bfs(graph, s) for s in range(8)}
        errors = []
        start = threading.Barrier(8)

        def worker(seed):
            rng = np.random.default_rng(seed)
            start.wait()
            try:
                for _ in range(50):
                    source = int(rng.integers(0, 8))
                    forest = cache.forest(graph, source)
                    if not np.array_equal(forest.dist, expected[source].dist):
                        errors.append(f"wrong forest for source {source}")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []
        assert len(cache) <= 3
        assert cache.hits + cache.misses == 8 * 50

    def test_concurrent_misses_coalesce_to_one_bfs(self, monkeypatch):
        import threading
        import time as time_module

        import repro.graph.forest_cache as forest_cache_module

        calls = []
        real_bfs = forest_cache_module.bfs

        def slow_bfs(graph, source, **kwargs):
            calls.append(source)
            time_module.sleep(0.05)  # hold the miss open so others pile up
            return real_bfs(graph, source, **kwargs)

        monkeypatch.setattr(forest_cache_module, "bfs", slow_bfs)
        cache = ForestCache()
        graph = ring(12)
        start = threading.Barrier(6)
        results = []

        def worker():
            start.wait()
            results.append(cache.forest(graph, 0))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert calls == [0]  # exactly one BFS despite six simultaneous misses
        assert len(results) == 6
        assert all(forest is results[0] for forest in results)
        assert cache.misses == 1
        assert cache.hits == 5

    def test_waiters_recover_when_the_leader_fails(self, monkeypatch):
        import threading
        import time as time_module

        import repro.graph.forest_cache as forest_cache_module

        real_bfs = forest_cache_module.bfs
        calls = []

        def flaky_bfs(graph, source, **kwargs):
            calls.append(source)
            time_module.sleep(0.02)
            if len(calls) == 1:
                raise RuntimeError("transient BFS failure")
            return real_bfs(graph, source, **kwargs)

        monkeypatch.setattr(forest_cache_module, "bfs", flaky_bfs)
        cache = ForestCache()
        graph = ring(10)
        start = threading.Barrier(4)
        outcomes = []

        def worker():
            start.wait()
            try:
                outcomes.append(cache.forest(graph, 0))
            except RuntimeError:
                outcomes.append("failed")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        # Exactly one caller inherits the leader's exception; every
        # waiter retries and gets a real forest rather than the error.
        assert outcomes.count("failed") == 1
        forests = [o for o in outcomes if o != "failed"]
        assert len(forests) == 3
        assert all(np.array_equal(f.dist, forests[0].dist) for f in forests)

    def test_stats_counters_hold_under_concurrent_hammering(self):
        # Regression for the torn counter updates: hits/misses used to
        # be bumped outside the cache lock, so two racing lookups could
        # both read-modify-write the same value and lose an increment —
        # hits + misses would drift below the true call count.  Every
        # counter now mutates under self._lock; the exact accounting
        # invariant (one hit-or-miss per forest() call) must survive
        # real contention, eviction pressure included.
        import threading

        cache = ForestCache(max_entries=2)  # constant eviction churn
        graph = ring(12)
        calls_per_thread, num_threads, num_keys = 80, 8, 6
        start = threading.Barrier(num_threads)
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            start.wait()
            try:
                for _ in range(calls_per_thread):
                    cache.forest(graph, int(rng.integers(0, num_keys)))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=worker, args=(seed,))
            for seed in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == num_threads * calls_per_thread
        # Coalesced waiters also scored a hit or a miss — never neither.
        assert stats["coalesced"] <= stats["hits"] + stats["misses"]
        # More distinct keys than slots: evictions must have been counted.
        assert stats["evictions"] >= num_keys - cache.max_entries
        assert stats["entries"] <= cache.max_entries

    def test_stats_snapshot_is_internally_consistent_while_racing(self):
        # stats() must be taken under the lock: a reader polling during
        # traffic should never observe hits + misses exceeding the number
        # of completed calls (the signature of a torn multi-field read).
        import threading

        cache = ForestCache(max_entries=2)
        graph = ring(12)
        done = threading.Event()
        completed = [0]
        errors = []

        def traffic():
            rng = np.random.default_rng(3)
            try:
                for _ in range(400):
                    cache.forest(graph, int(rng.integers(0, 6)))
                    completed[0] += 1
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(repr(exc))
            finally:
                done.set()

        thread = threading.Thread(target=traffic)
        thread.start()
        try:
            while not done.is_set():
                stats = cache.stats()
                # completed is read after the snapshot, so it can only
                # have grown past what the snapshot saw — never shrunk.
                assert stats["hits"] + stats["misses"] <= completed[0] + 1
        finally:
            thread.join(timeout=30)
        assert errors == []
        assert cache.stats()["hits"] + cache.stats()["misses"] == 400


def test_default_cache_is_shared_singleton():
    assert default_forest_cache() is default_forest_cache()
