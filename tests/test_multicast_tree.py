"""Tests for :mod:`repro.multicast.tree` and :mod:`repro.multicast.unicast`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GraphError, NodeError, SamplingError
from repro.graph.paths import bfs
from repro.multicast.tree import (
    DeliveryTree,
    MulticastTreeCounter,
    build_delivery_tree,
)
from repro.multicast.unicast import unicast_cost


class TestTreeSize:
    def test_single_receiver_is_path_length(self, path_graph):
        counter = MulticastTreeCounter(bfs(path_graph, 0))
        assert counter.tree_size([4]) == 4
        assert counter.tree_size([1]) == 1

    def test_receiver_at_source_costs_nothing(self, path_graph):
        counter = MulticastTreeCounter(bfs(path_graph, 2))
        assert counter.tree_size([2]) == 0
        assert counter.tree_size([2, 2, 2]) == 0

    def test_shared_path_counted_once(self, path_graph):
        counter = MulticastTreeCounter(bfs(path_graph, 0))
        # Receivers 2 and 4 share links 0-1-2.
        assert counter.tree_size([2, 4]) == 4

    def test_duplicates_free(self, path_graph):
        counter = MulticastTreeCounter(bfs(path_graph, 0))
        assert counter.tree_size([4, 4, 4]) == counter.tree_size([4])

    def test_all_nodes_spanning(self, binary_tree_d4):
        g = binary_tree_d4.graph
        counter = MulticastTreeCounter(bfs(g, 0))
        everyone = np.arange(1, g.num_nodes)
        assert counter.tree_size(everyone) == g.num_nodes - 1

    def test_branch_counting_on_tree(self, binary_tree_d4):
        counter = MulticastTreeCounter(bfs(binary_tree_d4.graph, 0))
        left_leaf = binary_tree_d4.leaves()[0]
        right_leaf = binary_tree_d4.leaves()[-1]
        # Opposite subtrees: no shared links below the root.
        assert counter.tree_size([left_leaf, right_leaf]) == 8

    def test_epochs_do_not_leak_between_queries(self, binary_tree_d4):
        counter = MulticastTreeCounter(bfs(binary_tree_d4.graph, 0))
        first = counter.tree_size(binary_tree_d4.leaves())
        assert counter.tree_size([binary_tree_d4.leaves()[0]]) == 4
        assert counter.tree_size(binary_tree_d4.leaves()) == first

    def test_unreachable_receiver_raises(self, disconnected_graph):
        counter = MulticastTreeCounter(bfs(disconnected_graph, 0))
        with pytest.raises(GraphError, match="unreachable"):
            counter.tree_size([3])

    def test_monotone_in_receiver_set(self, small_mesh, rng):
        counter = MulticastTreeCounter(bfs(small_mesh, 0))
        receivers = list(rng.choice(16, size=8, replace=False))
        sizes = [counter.tree_size(receivers[: i + 1]) for i in range(8)]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_tree_never_larger_than_unicast_sum(self, small_mesh, rng):
        forest = bfs(small_mesh, 5)
        counter = MulticastTreeCounter(forest)
        for _ in range(20):
            receivers = rng.choice(16, size=6, replace=True)
            links = counter.tree_size(receivers)
            assert links <= int(forest.dist[receivers].sum())
            assert links >= int(forest.dist[receivers].max())


class TestTreeNodes:
    def test_nodes_include_source_and_receivers(self, path_graph):
        counter = MulticastTreeCounter(bfs(path_graph, 0))
        nodes = counter.tree_nodes([3])
        assert nodes.tolist() == [0, 1, 2, 3]

    def test_node_count_is_links_plus_one(self, small_mesh, rng):
        counter = MulticastTreeCounter(bfs(small_mesh, 0))
        for _ in range(10):
            receivers = rng.choice(16, size=5, replace=True)
            links = counter.tree_size(receivers)
            nodes = counter.tree_nodes(receivers)
            assert nodes.shape[0] == links + 1


class TestUnicastTotals:
    def test_counter_unicast_total(self, path_graph):
        counter = MulticastTreeCounter(bfs(path_graph, 0))
        assert counter.unicast_total([1, 4, 4]) == 1 + 4 + 4

    def test_unicast_cost_object(self, path_graph):
        cost = unicast_cost(bfs(path_graph, 0), [2, 4])
        assert cost.total_hops == 6
        assert cost.num_receivers == 2
        assert cost.mean_path_length == pytest.approx(3.0)

    def test_unicast_cost_empty_raises(self, path_graph):
        with pytest.raises(SamplingError):
            unicast_cost(bfs(path_graph, 0), [])

    def test_unicast_cost_unreachable_raises(self, disconnected_graph):
        with pytest.raises(GraphError, match="unreachable"):
            unicast_cost(bfs(disconnected_graph, 0), [4])

    def test_counter_unicast_unreachable_raises(self, disconnected_graph):
        counter = MulticastTreeCounter(bfs(disconnected_graph, 0))
        with pytest.raises(GraphError, match="unreachable"):
            counter.unicast_total([0, 4])


class TestReceiverIds:
    """Ids outside ``0..num_nodes-1`` are caller errors on every entry
    point: a negative id must not wrap to a real node, and one past the
    end must not surface as a bare ``IndexError`` from a gather."""

    @pytest.mark.parametrize("bad", [-1, 5])
    @pytest.mark.parametrize(
        "count",
        [
            lambda c, ids: c.tree_size(ids),
            lambda c, ids: c.tree_nodes(ids),
            lambda c, ids: c.unicast_total(ids),
            lambda c, ids: c.tree_sizes_batch([ids]),
            lambda c, ids: c.unicast_totals_batch([ids]),
            lambda c, ids: c.count_trees_and_unicast([[ids]]),
        ],
        ids=[
            "tree_size", "tree_nodes", "unicast_total", "tree_sizes_batch",
            "unicast_totals_batch", "count_trees_and_unicast",
        ],
    )
    def test_out_of_range_receiver_raises_node_error(
        self, path_graph, count, bad
    ):
        counter = MulticastTreeCounter(bfs(path_graph, 0))
        with pytest.raises(NodeError) as excinfo:
            count(counter, [2, bad, 3])
        assert excinfo.value.node == bad
        assert excinfo.value.num_nodes == 5

    def test_first_bad_id_in_row_major_order_is_reported(self, path_graph):
        counter = MulticastTreeCounter(bfs(path_graph, 0))
        with pytest.raises(NodeError) as excinfo:
            counter.tree_sizes_batch([[1, 2], [7, -3]])
        assert excinfo.value.node == 7


class TestDeliveryTree:
    def test_explicit_tree(self, binary_tree_d4):
        leaves = binary_tree_d4.leaves()[:2].tolist()
        tree = build_delivery_tree(binary_tree_d4.graph, 0, leaves)
        assert isinstance(tree, DeliveryTree)
        assert tree.source == 0
        assert tree.num_links == 5  # shared down to level 3, split at leaves
        assert tree.covers(0)
        assert all(tree.covers(v) for v in leaves)

    def test_edges_are_parent_child(self, small_mesh):
        tree = build_delivery_tree(small_mesh, 0, [15])
        forest = bfs(small_mesh, 0)
        for parent, child in tree.edges:
            assert forest.parent[child] == parent

    def test_tie_break_random_changes_trees(self, small_mesh):
        sizes = set()
        for seed in range(20):
            tree = build_delivery_tree(
                small_mesh, 0, [15, 12, 3], tie_break="random", rng=seed
            )
            sizes.add(tuple(sorted(map(tuple, tree.edges.tolist()))))
        assert len(sizes) > 1  # different equal-cost trees realized

    def test_covers_false_for_outside_node(self, path_graph):
        tree = build_delivery_tree(path_graph, 0, [2])
        assert not tree.covers(4)
