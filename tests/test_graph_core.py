"""Tests for :mod:`repro.graph.core`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GraphError, NodeError
from repro.graph.core import Graph


class TestFromEdges:
    def test_basic_construction(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.num_nodes == 4
        assert g.num_edges == 3

    def test_empty_graph(self):
        g = Graph.from_edges(0, [])
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert g.average_degree == 0.0

    def test_nodes_without_edges(self):
        g = Graph.from_edges(5, [(0, 1)])
        assert g.num_nodes == 5
        assert g.degree(4) == 0

    def test_edge_orientation_is_irrelevant(self):
        g1 = Graph.from_edges(3, [(0, 1), (1, 2)])
        g2 = Graph.from_edges(3, [(1, 0), (2, 1)])
        assert g1 == g2

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph.from_edges(3, [(0, 1), (1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphError, match="duplicate"):
            Graph.from_edges(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range_node(self):
        with pytest.raises(NodeError):
            Graph.from_edges(3, [(0, 3)])

    def test_rejects_negative_node(self):
        with pytest.raises(NodeError):
            Graph.from_edges(3, [(-1, 0)])

    def test_rejects_negative_num_nodes(self):
        with pytest.raises(GraphError):
            Graph.from_edges(-1, [])

    def test_rejects_malformed_edges(self):
        with pytest.raises(GraphError, match="pairs"):
            Graph.from_edges(3, [(0, 1, 2)])


class TestAccessors:
    def test_neighbors_sorted(self, diamond_graph):
        assert diamond_graph.neighbors(0).tolist() == [1, 2]
        assert diamond_graph.neighbors(3).tolist() == [1, 2]

    def test_degree(self, path_graph):
        assert path_graph.degree(0) == 1
        assert path_graph.degree(2) == 2

    def test_degrees_array(self, path_graph):
        assert path_graph.degrees.tolist() == [1, 2, 2, 2, 1]

    def test_average_degree(self, cycle_graph):
        assert cycle_graph.average_degree == pytest.approx(2.0)

    def test_has_edge(self, diamond_graph):
        assert diamond_graph.has_edge(0, 1)
        assert diamond_graph.has_edge(1, 0)
        assert not diamond_graph.has_edge(0, 3)

    def test_check_node_bounds(self, path_graph):
        with pytest.raises(NodeError):
            path_graph.check_node(5)
        with pytest.raises(NodeError):
            path_graph.check_node(-1)

    def test_len(self, path_graph):
        assert len(path_graph) == 5

    def test_repr_mentions_counts(self, path_graph):
        text = repr(path_graph)
        assert "num_nodes=5" in text
        assert "num_edges=4" in text


class TestEdgeIteration:
    def test_edges_each_once_with_u_less_than_v(self, cycle_graph):
        edges = list(cycle_graph.edges())
        assert len(edges) == 6
        assert all(u < v for u, v in edges)
        assert len(set(edges)) == 6

    def test_edge_array_matches_edges(self, diamond_graph):
        arr = diamond_graph.edge_array()
        assert sorted(map(tuple, arr.tolist())) == sorted(diamond_graph.edges())

    def test_roundtrip_through_edges(self, small_mesh):
        rebuilt = Graph.from_edges(small_mesh.num_nodes, small_mesh.edges())
        assert rebuilt == small_mesh


class TestEqualityAndHash:
    def test_equal_graphs_hash_equal(self):
        g1 = Graph.from_edges(3, [(0, 1), (1, 2)])
        g2 = Graph.from_edges(3, [(2, 1), (0, 1)])
        assert g1 == g2
        assert hash(g1) == hash(g2)

    def test_different_graphs_not_equal(self):
        g1 = Graph.from_edges(3, [(0, 1)])
        g2 = Graph.from_edges(3, [(0, 2)])
        assert g1 != g2

    def test_not_equal_to_other_types(self, path_graph):
        assert path_graph != "graph"


class TestSubgraph:
    def test_induced_subgraph(self, cycle_graph):
        sub, mapping = cycle_graph.subgraph([0, 1, 2])
        assert sub.num_nodes == 3
        assert sub.num_edges == 2  # 0-1 and 1-2 survive; 2-3 and 5-0 cut
        assert mapping.tolist() == [0, 1, 2]

    def test_subgraph_relabels_in_given_order(self, cycle_graph):
        sub, mapping = cycle_graph.subgraph([3, 2])
        assert mapping.tolist() == [3, 2]
        assert sub.has_edge(0, 1)

    def test_subgraph_rejects_duplicates(self, cycle_graph):
        with pytest.raises(GraphError, match="duplicates"):
            cycle_graph.subgraph([0, 0, 1])

    def test_subgraph_rejects_bad_node(self, cycle_graph):
        with pytest.raises(NodeError):
            cycle_graph.subgraph([0, 99])


class TestWithExtraEdges:
    def test_adds_new_edge(self, path_graph):
        g = path_graph.with_extra_edges([(0, 4)])
        assert g.num_edges == path_graph.num_edges + 1
        assert g.has_edge(0, 4)

    def test_rejects_existing_edge(self, path_graph):
        with pytest.raises(GraphError, match="duplicate"):
            path_graph.with_extra_edges([(0, 1)])

    def test_original_untouched(self, path_graph):
        path_graph.with_extra_edges([(0, 2)])
        assert not path_graph.has_edge(0, 2)


class TestValidation:
    def test_validate_catches_asymmetry(self):
        indptr = np.array([0, 1, 1], dtype=np.int64)
        indices = np.array([1], dtype=np.int32)
        with pytest.raises(GraphError, match="symmetric"):
            Graph(2, indptr, indices, check=True)

    def test_validate_catches_bad_indptr_length(self):
        with pytest.raises(GraphError, match="indptr"):
            Graph(3, np.array([0, 0], dtype=np.int64), np.empty(0, np.int32))

    def test_arrays_are_read_only(self, path_graph):
        with pytest.raises(ValueError):
            path_graph.indptr[0] = 7
        with pytest.raises(ValueError):
            path_graph.indices[0] = 7


def _loop_subgraph(graph, nodes):
    """``Graph.subgraph`` as it was before the CSR gather: a Python loop
    over every kept node's arcs.  The reference the gather must match."""
    keep = np.asarray(list(nodes), dtype=np.int64)
    old_to_new = -np.ones(graph.num_nodes, dtype=np.int64)
    old_to_new[keep] = np.arange(keep.size, dtype=np.int64)
    edges = []
    for new_u, old_u in enumerate(keep):
        for old_v in graph.neighbors(int(old_u)):
            new_v = old_to_new[old_v]
            if new_v >= 0 and new_u < new_v:
                edges.append((new_u, int(new_v)))
    return Graph.from_edges(keep.size, edges), keep


class TestVectorizedSubgraph:
    @staticmethod
    def _assert_same(graph, nodes):
        sub, mapping = graph.subgraph(nodes)
        ref, ref_mapping = _loop_subgraph(graph, nodes)
        assert sub.num_nodes == ref.num_nodes
        assert np.array_equal(sub.indptr, ref.indptr)
        assert np.array_equal(sub.indices, ref.indices)
        assert sub.indptr.dtype == ref.indptr.dtype
        assert sub.indices.dtype == ref.indices.dtype
        assert np.array_equal(mapping, ref_mapping)

    @pytest.mark.parametrize("name", ["arpa", "r100", "ts1000"])
    def test_matches_the_loop_on_random_keep_orders(self, name):
        from repro.topology.registry import build_topology

        graph = build_topology(name, scale=0.5, rng=2)
        rng = np.random.default_rng(17)
        for size in (graph.num_nodes, graph.num_nodes // 2, 7):
            keep = rng.permutation(graph.num_nodes)[:size]
            self._assert_same(graph, keep.tolist())

    def test_empty_and_single_node(self, cycle_graph):
        self._assert_same(cycle_graph, [])
        self._assert_same(cycle_graph, [4])
        sub, mapping = cycle_graph.subgraph([])
        assert sub.num_nodes == 0 and mapping.size == 0

    def test_errors_survive(self, cycle_graph):
        with pytest.raises(GraphError, match="duplicates"):
            cycle_graph.subgraph([2, 1, 2])
        with pytest.raises(NodeError):
            cycle_graph.subgraph([1, -1])
        with pytest.raises(NodeError):
            cycle_graph.subgraph([6])
