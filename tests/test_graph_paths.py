"""Tests for :mod:`repro.graph.paths`."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.exceptions import GraphError, NodeError
from repro.graph.builders import to_networkx
from repro.graph.core import Graph
from repro.graph.paths import (
    bfs,
    dijkstra,
    distance_matrix,
    distances_from,
    uniform_arc_weights,
)


class TestBfs:
    def test_distances_on_path(self, path_graph):
        forest = bfs(path_graph, 0)
        assert forest.dist.tolist() == [0, 1, 2, 3, 4]

    def test_parents_form_tree_to_source(self, cycle_graph):
        forest = bfs(cycle_graph, 0)
        for node in range(1, 6):
            path = forest.path_to(node)
            assert path[0] == 0
            assert path[-1] == node
            assert len(path) == forest.dist[node] + 1

    def test_source_has_no_parent(self, path_graph):
        forest = bfs(path_graph, 2)
        assert forest.parent[2] == -1
        assert forest.dist[2] == 0

    def test_unreachable_marked(self, disconnected_graph):
        forest = bfs(disconnected_graph, 0)
        assert forest.dist[3] == -1
        assert forest.dist[4] == -1
        assert forest.parent[3] == -1

    def test_path_to_unreachable_raises(self, disconnected_graph):
        forest = bfs(disconnected_graph, 0)
        with pytest.raises(GraphError, match="not reachable"):
            forest.path_to(4)

    def test_path_to_bad_node_raises(self, path_graph):
        forest = bfs(path_graph, 0)
        with pytest.raises(NodeError):
            forest.path_to(17)

    def test_num_reachable(self, disconnected_graph):
        assert bfs(disconnected_graph, 0).num_reachable == 3
        assert bfs(disconnected_graph, 3).num_reachable == 2
        assert bfs(disconnected_graph, 5).num_reachable == 1

    def test_eccentricity(self, path_graph):
        assert bfs(path_graph, 0).eccentricity == 4
        assert bfs(path_graph, 2).eccentricity == 2

    def test_first_tie_break_deterministic(self, diamond_graph):
        forests = [bfs(diamond_graph, 0) for _ in range(5)]
        parents = {tuple(f.parent.tolist()) for f in forests}
        assert len(parents) == 1
        # Node 3's parent must be the lower-id candidate, node 1.
        assert forests[0].parent[3] == 1

    def test_random_tie_break_varies(self, diamond_graph):
        rng = np.random.default_rng(0)
        parents = {
            int(bfs(diamond_graph, 0, tie_break="random", rng=rng).parent[3])
            for _ in range(50)
        }
        assert parents == {1, 2}

    def test_random_tie_break_still_shortest(self, small_mesh, rng):
        reference = bfs(small_mesh, 0).dist
        for _ in range(10):
            forest = bfs(small_mesh, 0, tie_break="random", rng=rng)
            assert np.array_equal(forest.dist, reference)

    def test_invalid_tie_break(self, path_graph):
        with pytest.raises(ValueError, match="tie_break"):
            bfs(path_graph, 0, tie_break="nope")

    def test_invalid_source(self, path_graph):
        with pytest.raises(NodeError):
            bfs(path_graph, 9)

    def test_matches_networkx_on_random_graph(self):
        nx_random = nx.gnp_random_graph(60, 0.08, seed=7)
        edges = list(nx_random.edges())
        g = Graph.from_edges(60, edges)
        expected = nx.single_source_shortest_path_length(nx_random, 0)
        forest = bfs(g, 0)
        for node in range(60):
            assert forest.dist[node] == expected.get(node, -1)

    def test_result_arrays_read_only(self, path_graph):
        forest = bfs(path_graph, 0)
        with pytest.raises(ValueError):
            forest.dist[0] = 3


class TestDistancesFrom:
    def test_agrees_with_bfs(self, small_mesh):
        for source in range(0, 16, 5):
            assert np.array_equal(
                distances_from(small_mesh, source),
                bfs(small_mesh, source).dist,
            )

    def test_isolated_source(self, disconnected_graph):
        dist = distances_from(disconnected_graph, 5)
        assert dist[5] == 0
        assert np.count_nonzero(dist >= 0) == 1


class TestDistanceMatrix:
    def test_full_matrix_symmetric(self, small_mesh):
        matrix = distance_matrix(small_mesh)
        assert matrix.shape == (16, 16)
        assert np.array_equal(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0)

    def test_grid_manhattan_distance(self, small_mesh):
        matrix = distance_matrix(small_mesh)
        # Grid distance is Manhattan distance.
        for a in range(16):
            for b in range(16):
                expected = abs(a // 4 - b // 4) + abs(a % 4 - b % 4)
                assert matrix[a, b] == expected

    def test_row_subset(self, path_graph):
        matrix = distance_matrix(path_graph, nodes=[4, 0])
        assert matrix.shape == (2, 5)
        assert matrix[0].tolist() == [4, 3, 2, 1, 0]
        assert matrix[1].tolist() == [0, 1, 2, 3, 4]


class TestDijkstra:
    def test_unit_weights_match_bfs(self, small_mesh):
        forest = dijkstra(small_mesh, 0)
        assert np.array_equal(
            forest.cost.astype(int), bfs(small_mesh, 0).dist
        )

    def test_weighted_route_choice(self):
        # 0-1-2 cheap (0.5 each), 0-2 direct expensive (2.0).
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        weights = np.empty(g.indices.shape[0])
        for u in range(3):
            lo, hi = g.indptr[u], g.indptr[u + 1]
            for pos in range(lo, hi):
                v = int(g.indices[pos])
                weights[pos] = 2.0 if {u, v} == {0, 2} else 0.5
        forest = dijkstra(g, 0, weights)
        assert forest.cost[2] == pytest.approx(1.0)
        assert forest.path_to(2) == [0, 1, 2]

    def test_unreachable_is_inf(self, disconnected_graph):
        forest = dijkstra(disconnected_graph, 0)
        assert not np.isfinite(forest.cost[3])
        with pytest.raises(GraphError):
            forest.path_to(3)

    def test_rejects_nonpositive_weights(self, path_graph):
        weights = uniform_arc_weights(path_graph)
        weights[0] = 0.0
        with pytest.raises(GraphError, match="positive"):
            dijkstra(path_graph, 0, weights)

    def test_rejects_misshaped_weights(self, path_graph):
        with pytest.raises(GraphError, match="shape"):
            dijkstra(path_graph, 0, np.ones(3))

    def test_matches_networkx_weighted(self, small_mesh, rng):
        weights = uniform_arc_weights(small_mesh)
        # Symmetric random weights: assign per undirected edge.
        nx_graph = to_networkx(small_mesh)
        for u, v in nx_graph.edges():
            w = float(rng.uniform(0.1, 2.0))
            nx_graph[u][v]["weight"] = w
            for a, b in ((u, v), (v, u)):
                row = small_mesh.neighbors(a)
                pos = small_mesh.indptr[a] + int(np.searchsorted(row, b))
                weights[pos] = w
        expected = nx.single_source_dijkstra_path_length(nx_graph, 0)
        forest = dijkstra(small_mesh, 0, weights)
        for node, cost in expected.items():
            assert forest.cost[node] == pytest.approx(cost)


class TestUniformArcWeights:
    def test_shape_and_value(self, cycle_graph):
        weights = uniform_arc_weights(cycle_graph, 2.5)
        assert weights.shape == cycle_graph.indices.shape
        assert np.all(weights == 2.5)

    def test_rejects_nonpositive(self, cycle_graph):
        with pytest.raises(GraphError):
            uniform_arc_weights(cycle_graph, 0.0)


def _unique_levels(graph, seeds, generator=None):
    """The level loop as it was before the claim election: each level's
    first arcs come from ``np.unique(..., return_index=True)``'s stable
    sort.  Kept verbatim as the reference the kernel must match bit for
    bit."""
    n = graph.num_nodes
    dist = np.full(n, -1, dtype=np.int32)
    parent = np.full(n, -1, dtype=np.int32)
    frontier = np.asarray(seeds, dtype=np.int32)
    dist[frontier] = 0
    indptr, indices = graph.indptr, graph.indices
    level = 0
    while frontier.size:
        level += 1
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        cum = np.cumsum(counts)
        flat = np.arange(total, dtype=np.int64) - np.repeat(cum - counts, counts)
        flat += np.repeat(starts, counts)
        neighbours = indices[flat]
        parents = np.repeat(frontier, counts)
        fresh = dist[neighbours] < 0
        neighbours = neighbours[fresh]
        parents = parents[fresh]
        if neighbours.size == 0:
            break
        if generator is not None:
            order = generator.permutation(neighbours.size)
            neighbours = neighbours[order]
            parents = parents[order]
        uniq, first_index = np.unique(neighbours, return_index=True)
        dist[uniq] = level
        parent[uniq] = parents[first_index]
        frontier = uniq.astype(np.int32)
    return dist, parent


def _grid(rows, cols):
    index = lambda r, c: r * cols + c  # noqa: E731
    edges = [(index(r, c), index(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    edges += [(index(r, c), index(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return Graph.from_edges(rows * cols, edges)


def _complete_bipartite(a, b):
    return Graph.from_edges(a + b, [(u, a + v) for u in range(a) for v in range(b)])


class TestClaimKernel:
    """The claim election picks the same first arc as the sort it replaced."""

    @staticmethod
    def _assert_same(got, want):
        dist, parent = got
        ref_dist, ref_parent = want
        assert dist.dtype == ref_dist.dtype and parent.dtype == ref_parent.dtype
        assert np.array_equal(dist, ref_dist)
        assert np.array_equal(parent, ref_parent)

    @pytest.mark.parametrize(
        "graph",
        [_grid(12, 17), _complete_bipartite(2, 200), _complete_bipartite(200, 2)],
        ids=["grid", "k2_200", "k200_2"],
    )
    def test_first_rule_under_heavy_ties(self, graph):
        for source in (0, 1, graph.num_nodes // 2, graph.num_nodes - 1):
            forest = bfs(graph, source)
            self._assert_same(
                (forest.dist, forest.parent), _unique_levels(graph, [source])
            )

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 2024])
    @pytest.mark.parametrize(
        "graph",
        [_grid(9, 11), _complete_bipartite(2, 200)],
        ids=["grid", "k2_200"],
    )
    def test_random_tie_break_matches_for_every_seed(self, graph, seed):
        forest = bfs(graph, 0, tie_break="random", rng=seed)
        want = _unique_levels(graph, [0], np.random.default_rng(seed))
        self._assert_same((forest.dist, forest.parent), want)

    def test_random_tie_break_on_a_registry_map(self):
        from repro.topology.registry import build_topology

        graph = build_topology("ts1000", scale=0.5, rng=3)
        for seed in range(4):
            forest = bfs(graph, seed, tie_break="random", rng=seed)
            want = _unique_levels(graph, [seed], np.random.default_rng(seed))
            self._assert_same((forest.dist, forest.parent), want)

    def test_isolated_nodes_and_early_break(self, disconnected_graph):
        # Source 5 has no arcs (the gather break); source 3's second
        # level has only visited arcs (the fresh-filter break).
        for source in range(disconnected_graph.num_nodes):
            forest = bfs(disconnected_graph, source)
            self._assert_same(
                (forest.dist, forest.parent),
                _unique_levels(disconnected_graph, [source]),
            )
        sparse = Graph.from_edges(50, [(3, 7), (7, 40), (3, 40), (10, 11)])
        for source in (0, 3, 10, 49):
            self._assert_same(
                (distances_from(sparse, source), bfs(sparse, source).parent),
                _unique_levels(sparse, [source]),
            )

    @pytest.mark.parametrize(
        "seeds", [[0], [5, 0], [3, 99, 41, 40], list(range(0, 180, 9))]
    )
    def test_multi_source_seeds(self, seeds):
        from repro.graph.paths import multi_source_bfs

        graph = _grid(10, 18)
        want = _unique_levels(graph, np.unique(seeds))
        self._assert_same(multi_source_bfs(graph, seeds), want)

    def test_rows_past_65536_nodes(self):
        from repro.graph.paths import bfs_from_many
        from repro.topology.powerlaw import internet_like_graph

        graph = internet_like_graph(70_000, rng=5, stream="vectorized")
        sources = [0, 12_345, 69_999]
        dist, parent = bfs_from_many(graph, sources)
        for row, source in enumerate(sources):
            self._assert_same(
                (dist[row], parent[row]), _unique_levels(graph, [source])
            )
        forest = bfs(graph, 777, tie_break="random", rng=9)
        want = _unique_levels(graph, [777], np.random.default_rng(9))
        self._assert_same((forest.dist, forest.parent), want)
