"""Tests for :mod:`repro.multicast.steiner`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GraphError, SamplingError
from repro.graph.core import Graph
from repro.graph.paths import bfs
from repro.multicast.steiner import (
    multi_source_distances,
    takahashi_matsuyama_tree,
)
from repro.multicast.tree import MulticastTreeCounter


class TestMultiSourceDistances:
    def test_single_source_matches_bfs(self, small_mesh):
        dist, parent = multi_source_distances(small_mesh, [0])
        assert np.array_equal(dist, bfs(small_mesh, 0).dist)

    def test_two_sources_take_minimum(self, path_graph):
        dist, _ = multi_source_distances(path_graph, [0, 4])
        assert dist.tolist() == [0, 1, 2, 1, 0]

    def test_parent_chain_ends_at_a_source(self, small_mesh):
        sources = [0, 15]
        dist, parent = multi_source_distances(small_mesh, sources)
        for node in range(16):
            walk = node
            for _ in range(20):
                if parent[walk] == -1:
                    break
                walk = int(parent[walk])
            assert walk in sources

    def test_unreachable_stays_minus_one(self, disconnected_graph):
        dist, _ = multi_source_distances(disconnected_graph, [0])
        assert dist[4] == -1

    def test_empty_sources_rejected(self, path_graph):
        with pytest.raises(SamplingError):
            multi_source_distances(path_graph, [])


class TestTakahashiMatsuyama:
    def test_single_receiver_is_shortest_path(self, path_graph):
        tree = takahashi_matsuyama_tree(path_graph, 0, [4])
        assert tree.num_links == 4

    def test_tree_spans_all_receivers(self, small_mesh, rng):
        for _ in range(10):
            receivers = rng.choice(16, size=6, replace=False)
            tree = takahashi_matsuyama_tree(small_mesh, 0, receivers)
            assert tree.covers(0)
            for r in receivers:
                assert tree.covers(int(r))
            assert tree.num_links == tree.nodes.shape[0] - 1

    def test_edges_exist_in_graph(self, small_mesh, rng):
        receivers = rng.choice(16, size=5, replace=False)
        tree = takahashi_matsuyama_tree(small_mesh, 3, receivers)
        for u, v in tree.edges:
            assert small_mesh.has_edge(int(u), int(v))

    def test_tree_is_connected_and_acyclic(self, small_mesh, rng):
        receivers = rng.choice(16, size=7, replace=False)
        tree = takahashi_matsuyama_tree(small_mesh, 0, receivers)
        sub = Graph.from_edges(
            small_mesh.num_nodes, [tuple(int(x) for x in e) for e in tree.edges]
        )
        forest = bfs(sub, 0)
        for node in tree.nodes:
            assert forest.dist[int(node)] >= 0  # connected to the source
        # Acyclic: links == nodes − 1 (already asserted structurally).

    def test_steiner_beats_known_spt_waste(self):
        """A case where SPT tie-breaking provably wastes a link.

        Receiver 4 has two equal-cost paths (via 1 or via 2); the
        ``first`` tie-break routes it via node 1.  Receiver 3 hangs off
        node 2 only.  The SPT therefore pays both branches (4 links),
        while the greedy Steiner growth attaches 3 first (through 2)
        and then reaches 4 in one hop from the tree (3 links)."""
        g = Graph.from_edges(
            5, [(0, 1), (1, 4), (0, 2), (2, 4), (2, 3)]
        )
        counter = MulticastTreeCounter(bfs(g, 0))
        assert int(bfs(g, 0).parent[4]) == 1  # the wasteful tie-break
        spt = counter.tree_size([3, 4])
        steiner = takahashi_matsuyama_tree(g, 0, [3, 4]).num_links
        assert spt == 4
        assert steiner == 3

    def test_never_much_worse_than_spt(self, rng):
        from repro.topology.gtitm import pure_random_graph

        g = pure_random_graph(120, average_degree=3.5, rng=2)
        counter = MulticastTreeCounter(bfs(g, 0))
        for _ in range(15):
            receivers = rng.choice(
                range(1, 120), size=int(rng.integers(2, 20)), replace=False
            )
            spt = counter.tree_size(receivers)
            steiner = takahashi_matsuyama_tree(g, 0, receivers).num_links
            # The heuristic is near-optimal; SPT is feasible for it to
            # beat, and it never does meaningfully worse.
            assert steiner <= spt * 1.1

    def test_duplicates_and_source_in_receivers(self, small_mesh):
        tree = takahashi_matsuyama_tree(small_mesh, 0, [0, 5, 5, 10])
        assert tree.covers(5) and tree.covers(10)

    def test_full_group_spans_graph(self, binary_tree_d4):
        g = binary_tree_d4.graph
        tree = takahashi_matsuyama_tree(g, 0, list(range(1, g.num_nodes)))
        assert tree.num_links == g.num_nodes - 1

    def test_unreachable_receiver(self, disconnected_graph):
        with pytest.raises(GraphError, match="unreachable"):
            takahashi_matsuyama_tree(disconnected_graph, 0, [4])

    def test_on_trees_equals_spt(self, binary_tree_d4, rng):
        """On a tree there is exactly one tree — both must find it."""
        g = binary_tree_d4.graph
        counter = MulticastTreeCounter(bfs(g, 0))
        for _ in range(10):
            receivers = rng.choice(
                range(1, g.num_nodes), size=6, replace=False
            )
            assert (
                takahashi_matsuyama_tree(g, 0, receivers).num_links
                == counter.tree_size(receivers)
            )


class TestRetargetedMultiSourceBfs:
    """``multi_source_distances`` now rides ``graph.paths``' batched BFS.

    The bespoke frontier loop this module used to carry was a
    duplicate of the level-synchronous walk in
    :func:`repro.graph.paths.bfs_from_many`; the retarget must be
    *bit-identical*, so the old loop lives on here as the reference
    implementation it is checked against.
    """

    @staticmethod
    def _reference(graph, sources):
        seed = np.unique(np.asarray(list(sources), dtype=np.int64))
        n = graph.num_nodes
        dist = np.full(n, -1, dtype=np.int32)
        parent = np.full(n, -1, dtype=np.int32)
        dist[seed] = 0
        frontier = seed.astype(np.int32)
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
            flat = np.arange(total, dtype=np.int64) - np.repeat(
                cum - counts, counts
            )
            flat += np.repeat(starts, counts)
            neighbours = indices[flat]
            hops = np.repeat(frontier, counts)
            fresh = dist[neighbours] < 0
            neighbours = neighbours[fresh]
            hops = hops[fresh]
            if neighbours.size == 0:
                break
            uniq, first = np.unique(neighbours, return_index=True)
            dist[uniq] = level
            parent[uniq] = hops[first]
            frontier = uniq.astype(np.int32)
        return dist, parent

    @pytest.mark.parametrize(
        "name", ["arpa", "r100", "mbone", "as", "internet-70k"]
    )
    def test_bit_identical_to_the_old_loop(self, name):
        from repro.topology.powerlaw import internet_like_graph
        from repro.topology.registry import build_topology

        if name == "internet-70k":
            # Past 2**16 nodes, where the store build once switched modes.
            graph = internet_like_graph(70_000, rng=5, stream="vectorized")
        else:
            graph = build_topology(name, scale=0.25, rng=5)
        rng = np.random.default_rng(41)
        for trial in range(5):
            k = int(rng.integers(1, 6))
            sources = rng.choice(graph.num_nodes, size=k, replace=False)
            dist, parent = multi_source_distances(graph, sources)
            ref_dist, ref_parent = self._reference(graph, sources)
            assert np.array_equal(dist, ref_dist), (name, trial)
            assert np.array_equal(parent, ref_parent), (name, trial)

    def test_bit_identical_on_disconnected_graph(self, disconnected_graph):
        dist, parent = multi_source_distances(disconnected_graph, [0, 1])
        ref_dist, ref_parent = self._reference(disconnected_graph, [0, 1])
        assert np.array_equal(dist, ref_dist)
        assert np.array_equal(parent, ref_parent)
