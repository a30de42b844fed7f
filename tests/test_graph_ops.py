"""Tests for :mod:`repro.graph.ops`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import DisconnectedGraphError, GraphError
from repro.graph.core import Graph
from repro.graph.ops import (
    GraphStats,
    clean_edges,
    connected_components,
    diameter,
    graph_stats,
    is_connected,
    largest_connected_component,
    require_connected,
)


class TestCleanEdges:
    def test_removes_duplicates_both_orientations(self):
        cleaned, dropped = clean_edges([(0, 1), (1, 0), (0, 1), (1, 2)])
        assert cleaned == [(0, 1), (1, 2)]
        assert dropped == 2

    def test_removes_self_loops(self):
        cleaned, dropped = clean_edges([(2, 2), (0, 1)])
        assert cleaned == [(0, 1)]
        assert dropped == 1

    def test_preserves_first_orientation(self):
        cleaned, _ = clean_edges([(3, 1), (1, 3)])
        assert cleaned == [(3, 1)]

    def test_empty(self):
        assert clean_edges([]) == ([], 0)


class TestConnectivity:
    def test_components_sorted_by_size(self, disconnected_graph):
        comps = connected_components(disconnected_graph)
        assert [len(c) for c in comps] == [3, 2, 1]
        assert comps[0].tolist() == [0, 1, 2]

    def test_single_component(self, cycle_graph):
        comps = connected_components(cycle_graph)
        assert len(comps) == 1

    def test_largest_component_extraction(self, disconnected_graph):
        sub, mapping = largest_connected_component(disconnected_graph)
        assert sub.num_nodes == 3
        assert sub.num_edges == 3  # the triangle
        assert sorted(mapping.tolist()) == [0, 1, 2]

    def test_largest_component_of_empty_raises(self):
        with pytest.raises(GraphError):
            largest_connected_component(Graph.from_edges(0, []))

    def test_is_connected(self, cycle_graph, disconnected_graph):
        assert is_connected(cycle_graph)
        assert not is_connected(disconnected_graph)
        assert not is_connected(Graph.from_edges(0, []))
        assert is_connected(Graph.from_edges(1, []))

    def test_require_connected_raises_with_context(self, disconnected_graph):
        with pytest.raises(DisconnectedGraphError, match="my-op"):
            require_connected(disconnected_graph, "my-op")

    def test_require_connected_passes(self, path_graph):
        require_connected(path_graph)  # no exception


class TestDiameter:
    def test_path_graph_exact(self, path_graph):
        assert diameter(path_graph, exact=True) == 4

    def test_cycle_graph_exact(self, cycle_graph):
        assert diameter(cycle_graph, exact=True) == 3

    def test_grid_exact(self, small_mesh):
        assert diameter(small_mesh, exact=True) == 6

    def test_double_sweep_matches_exact_on_suite(self, rng):
        from repro.topology.gtitm import pure_random_graph

        for seed in range(3):
            g = pure_random_graph(80, average_degree=3.0, rng=seed)
            assert diameter(g, exact=False, rng=rng) == diameter(g, exact=True)

    def test_rejects_disconnected(self, disconnected_graph):
        with pytest.raises(DisconnectedGraphError):
            diameter(disconnected_graph)


class TestGraphStats:
    def test_small_graph_full_stats(self, small_mesh):
        stats = graph_stats(small_mesh, name="grid", rng=0)
        assert stats.name == "grid"
        assert stats.num_nodes == 16
        assert stats.num_edges == 24
        assert stats.average_degree == pytest.approx(3.0)
        assert stats.max_degree == 4
        assert stats.min_degree == 2
        assert stats.diameter == 6

    def test_average_path_length_exact_on_path(self, path_graph):
        stats = graph_stats(path_graph, rng=0)
        # All-pairs distances of the 5-path sum to 40 (ordered), mean 2.0.
        assert stats.average_path_length == pytest.approx(2.0)

    def test_as_row_matches_headers(self, path_graph):
        stats = graph_stats(path_graph, rng=0)
        assert len(stats.as_row()) == len(GraphStats.ROW_HEADERS)

    def test_rejects_disconnected(self, disconnected_graph):
        with pytest.raises(DisconnectedGraphError):
            graph_stats(disconnected_graph)


def _bfs_per_node_components(graph):
    """``connected_components`` as it was before degree-0 nodes skipped
    their BFS: one search per unlabelled node.  The reference the fast
    path must match, list order included."""
    from repro.graph.paths import distances_from

    label = np.full(graph.num_nodes, -1, dtype=np.int64)
    components = []
    for start in range(graph.num_nodes):
        if label[start] >= 0:
            continue
        members = np.flatnonzero(distances_from(graph, start) >= 0)
        label[members] = len(components)
        components.append(members)
    components.sort(key=len, reverse=True)
    return components


class TestComponentsWithIsolatedNodes:
    @staticmethod
    def _assert_same(graph):
        got = connected_components(graph)
        want = _bfs_per_node_components(graph)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    def test_many_isolated_nodes(self):
        rng = np.random.default_rng(3)
        n = 600
        wired = rng.permutation(n)[:300]
        edges = set()
        while len(edges) < 260:
            u, v = rng.choice(wired, size=2, replace=False)
            edges.add((min(u, v), max(u, v)))
        self._assert_same(Graph.from_edges(n, sorted(edges)))

    def test_equal_size_components_keep_node_order(self):
        # Pairs and singletons interleaved by node id.
        graph = Graph.from_edges(9, [(7, 8), (1, 4), (2, 3)])
        self._assert_same(graph)
        assert [c.tolist() for c in connected_components(graph)] == [
            [1, 4], [2, 3], [7, 8], [0], [5], [6],
        ]

    def test_all_isolated_and_empty(self):
        self._assert_same(Graph.from_edges(5, []))
        self._assert_same(Graph.from_edges(0, []))


class TestConnectivityMemo:
    """``is_connected`` runs its BFS once per graph content."""

    @pytest.fixture
    def searches(self, monkeypatch):
        """Counts the connectivity BFS runs against an empty memo."""
        from collections import OrderedDict

        from repro.graph import ops

        calls = []
        real = ops.distances_from

        def counting(graph, source):
            calls.append(source)
            return real(graph, source)

        monkeypatch.setattr(ops, "_CONNECTED_MEMO", OrderedDict())
        monkeypatch.setattr(ops, "distances_from", counting)
        return calls

    def test_second_sweep_runs_no_connectivity_bfs(self, searches, small_mesh):
        from repro.experiments.config import MonteCarloConfig
        from repro.experiments.runner import measure_sweep

        config = MonteCarloConfig(num_sources=3, num_receiver_sets=4, seed=1)
        first = measure_sweep(small_mesh, [1, 3], config=config)
        assert len(searches) == 1
        second = measure_sweep(small_mesh, [1, 3], config=config)
        assert len(searches) == 1
        assert first.mean_tree_size == second.mean_tree_size

    def test_disconnected_graph_raises_on_every_call(
        self, searches, disconnected_graph
    ):
        for _ in range(2):
            with pytest.raises(DisconnectedGraphError):
                require_connected(disconnected_graph, "memo")
        assert len(searches) == 1

    def test_equal_content_copy_hits_the_memo(self, searches, cycle_graph):
        assert is_connected(cycle_graph)
        copy = Graph(
            cycle_graph.num_nodes,
            cycle_graph.indptr.copy(),
            cycle_graph.indices.copy(),
        )
        assert copy is not cycle_graph
        assert is_connected(copy)
        assert len(searches) == 1

    def test_concurrent_callers_agree(self, searches, small_mesh, disconnected_graph):
        import sys
        import threading

        barrier = threading.Barrier(8)
        answers = []

        def worker(index):
            barrier.wait(timeout=10)
            graph = small_mesh if index % 2 else disconnected_graph
            for _ in range(50):
                answers.append((index % 2, is_connected(graph)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(answers) == 8 * 50
        assert all(bool(odd) == answer for odd, answer in answers)
        # Racing first callers may each search; after that, none do.
        before = len(searches)
        assert 2 <= before <= 8
        assert is_connected(small_mesh) and not is_connected(disconnected_graph)
        assert len(searches) == before

    def test_memo_stays_at_its_cap(self, searches):
        from repro.graph import ops
        from repro.graph.forest_cache import _FINGERPRINT_MEMO_MAX

        graphs = [
            Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
            for n in range(2, _FINGERPRINT_MEMO_MAX + 12)
        ]
        for graph in graphs:
            assert is_connected(graph)
        assert len(ops._CONNECTED_MEMO) == _FINGERPRINT_MEMO_MAX
        # The oldest entries were evicted, the newest kept.
        assert is_connected(graphs[-1])
        searched = len(searches)
        assert is_connected(graphs[0])
        assert len(searches) == searched + 1
