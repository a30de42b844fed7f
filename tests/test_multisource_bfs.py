"""Multi-source BFS equivalence: per-source rows vs the single-source code.

``bfs_from_many`` must be *bit-identical* per row to ``distances_from``
/ ``bfs`` — distances and ``tie_break="first"`` parents both — across
every topology builder in the registry, plus the degenerate shapes the
row matrices could plausibly get wrong: disconnected graphs (``-1``
rows), isolated sources, the single-node graph, duplicate sources, and
the empty source list.  ``multi_source_bfs`` (one BFS seeded with a
whole node set, the Steiner builders' per-graft search) is pinned
against the frontier loop it replaced.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import NodeError
from repro.graph.core import Graph
from repro.graph.paths import (
    bfs,
    bfs_from_many,
    distances_from,
    multi_source_bfs,
)
from repro.topology.registry import (
    EXTRA_TOPOLOGIES,
    TOPOLOGY_NAMES,
    build_topology,
)

ALL_BUILDERS = tuple(TOPOLOGY_NAMES) + tuple(EXTRA_TOPOLOGIES)


def _assert_rows_match(graph: Graph, sources) -> None:
    plain = bfs_from_many(graph, sources)[0]
    dist_m, parent_m = bfs_from_many(graph, sources)
    assert plain.dtype == np.int32 and plain.shape == (
        len(sources),
        graph.num_nodes,
    )
    for i, source in enumerate(sources):
        expected_dist = distances_from(graph, source)
        forest = bfs(graph, source, tie_break="first")
        assert np.array_equal(plain[i], expected_dist)
        assert np.array_equal(dist_m[i], forest.dist)
        assert np.array_equal(parent_m[i], forest.parent)


@pytest.mark.parametrize("name", ALL_BUILDERS)
def test_equivalence_across_topology_builders(name):
    graph = build_topology(name, scale=0.25, rng=11)
    sources = [0, graph.num_nodes // 2, graph.num_nodes - 1]
    _assert_rows_match(graph, sources)


def test_disconnected_graph_has_minus_one_rows(disconnected_graph):
    sources = list(range(disconnected_graph.num_nodes))
    _assert_rows_match(disconnected_graph, sources)
    dist = bfs_from_many(disconnected_graph, sources)[0]
    # Component structure: {0,1,2} triangle, {3,4} edge, {5} isolated.
    assert (dist[0, 3:] == -1).all()
    assert (dist[3, :3] == -1).all() and (dist[3, 5] == -1)
    assert (dist[5, :5] == -1).all() and dist[5, 5] == 0


def test_single_node_graph():
    graph = Graph.from_edges(1, [])
    _assert_rows_match(graph, [0])
    assert bfs_from_many(graph, [0])[0][0, 0] == 0


def test_duplicate_sources_give_identical_rows():
    graph = build_topology("as", scale=0.2, rng=3)
    dist = bfs_from_many(graph, [7, 7, 7])[0]
    assert np.array_equal(dist[0], dist[1])
    assert np.array_equal(dist[1], dist[2])


def test_empty_source_list():
    graph = Graph.from_edges(3, [(0, 1), (1, 2)])
    dist = bfs_from_many(graph, [])[0]
    assert dist.shape == (0, 3)
    dist_m, parent_m = bfs_from_many(graph, [])
    assert dist_m.shape == (0, 3) and parent_m.shape == (0, 3)


def test_bad_source_rejected():
    graph = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(NodeError):
        bfs_from_many(graph, [0, 3])[0]


@pytest.mark.parametrize(
    "seeds, bad", [([1, 5, -2, 3, -7, 0], -7), ([4, 1, 3, 9], 3)]
)
def test_multi_source_bad_seed_names_the_smallest(seeds, bad):
    graph = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(NodeError) as caught:
        multi_source_bfs(graph, seeds)
    assert str(caught.value) == (
        f"node {bad} is not a valid node id for a graph with 3 nodes "
        f"(valid ids are 0..2)"
    )
    assert caught.value.node == bad


def test_many_sources_batched_vs_serial_on_powerlaw():
    from repro.topology.powerlaw import internet_like_graph

    graph = internet_like_graph(5_000, rng=2, stream="vectorized")
    rng = np.random.default_rng(0)
    sources = rng.integers(0, graph.num_nodes, size=24).tolist()
    _assert_rows_match(graph, sources)


class TestRetargetedMultiSourceBfs:
    """``multi_source_bfs`` rides ``graph.paths``' one BFS kernel.

    The Steiner builders once carried their own multi-source frontier
    loop; the retarget onto the shared kernel must be *bit-identical*,
    so the old loop lives on here as the reference implementation it is
    checked against.
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
            dist, parent = multi_source_bfs(graph, sources)
            ref_dist, ref_parent = self._reference(graph, sources)
            assert np.array_equal(dist, ref_dist), (name, trial)
            assert np.array_equal(parent, ref_parent), (name, trial)

    def test_bit_identical_on_disconnected_graph(self, disconnected_graph):
        dist, parent = multi_source_bfs(disconnected_graph, [0, 1])
        ref_dist, ref_parent = self._reference(disconnected_graph, [0, 1])
        assert np.array_equal(dist, ref_dist)
        assert np.array_equal(parent, ref_parent)
