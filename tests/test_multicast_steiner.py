"""Tests for the Steiner grafting loop in :mod:`repro.multicast.builders`.

``steiner-tm`` and ``dst-approx`` share one private loop,
:func:`repro.multicast.builders._graft_tree`: one distance-to-tree
array for the whole build, lowered from each graft's new nodes.  The
Takahashi–Matsuyama cases below drive that loop directly, because the
registered ``steiner-tm`` builder adds a best-of-SPT guard that would
make every "never much worse than SPT" check vacuous.  A test-local
copy of the two loops the registry used to carry, each running one
full multi-source BFS per graft, is the oracle for both disciplines.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graph.core import Graph
from repro.graph.paths import bfs, multi_source_bfs
from repro.multicast.builders import _graft_tree, build_tree
from repro.multicast.tree import MulticastTreeCounter
from repro.topology.kary import kary_tree
from repro.topology.registry import (
    EXTRA_TOPOLOGIES,
    TOPOLOGY_NAMES,
    build_topology,
)


def takahashi_matsuyama(graph, source, receivers):
    """The unguarded Takahashi–Matsuyama heuristic."""
    return _graft_tree(graph, source, receivers, nearest=True)


class TestMultiSourceDistances:
    """The BFS the oracle loops run per graft: nearest-seed distances,
    parent chains that end at a seed."""

    def test_single_source_matches_bfs(self, small_mesh):
        dist, parent = multi_source_bfs(small_mesh, [0])
        assert np.array_equal(dist, bfs(small_mesh, 0).dist)

    def test_two_sources_take_minimum(self, path_graph):
        dist, _ = multi_source_bfs(path_graph, [0, 4])
        assert dist.tolist() == [0, 1, 2, 1, 0]

    def test_parent_chain_ends_at_a_source(self, small_mesh):
        sources = [0, 15]
        dist, parent = multi_source_bfs(small_mesh, sources)
        for node in range(16):
            walk = node
            for _ in range(20):
                if parent[walk] == -1:
                    break
                walk = int(parent[walk])
            assert walk in sources

    def test_unreachable_stays_minus_one(self, disconnected_graph):
        dist, _ = multi_source_bfs(disconnected_graph, [0])
        assert dist[4] == -1

    def test_empty_sources_rejected(self, path_graph):
        with pytest.raises(GraphError, match="at least one seed"):
            multi_source_bfs(path_graph, [])


class TestTakahashiMatsuyama:
    def test_single_receiver_is_shortest_path(self, path_graph):
        tree = takahashi_matsuyama(path_graph, 0, [4])
        assert tree.num_links == 4

    def test_tree_spans_all_receivers(self, small_mesh, rng):
        for _ in range(10):
            receivers = rng.choice(16, size=6, replace=False)
            tree = takahashi_matsuyama(small_mesh, 0, receivers)
            assert tree.covers(0)
            for r in receivers:
                assert tree.covers(int(r))
            assert tree.num_links == tree.nodes.shape[0] - 1

    def test_edges_exist_in_graph(self, small_mesh, rng):
        receivers = rng.choice(16, size=5, replace=False)
        tree = takahashi_matsuyama(small_mesh, 3, receivers)
        for u, v in tree.edges:
            assert small_mesh.has_edge(int(u), int(v))

    def test_tree_is_connected_and_acyclic(self, small_mesh, rng):
        receivers = rng.choice(16, size=7, replace=False)
        tree = takahashi_matsuyama(small_mesh, 0, receivers)
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
        steiner = takahashi_matsuyama(g, 0, [3, 4]).num_links
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
            steiner = takahashi_matsuyama(g, 0, receivers).num_links
            # The heuristic is near-optimal; SPT is feasible for it to
            # beat, and it never does meaningfully worse.
            assert steiner <= spt * 1.1

    def test_duplicates_and_source_in_receivers(self, small_mesh):
        tree = takahashi_matsuyama(small_mesh, 0, [0, 5, 5, 10])
        assert tree.covers(5) and tree.covers(10)

    def test_full_group_spans_graph(self, binary_tree_d4):
        g = binary_tree_d4.graph
        tree = takahashi_matsuyama(g, 0, list(range(1, g.num_nodes)))
        assert tree.num_links == g.num_nodes - 1

    def test_unreachable_receiver(self, disconnected_graph):
        with pytest.raises(GraphError, match="unreachable"):
            takahashi_matsuyama(disconnected_graph, 0, [4])

    def test_on_trees_equals_spt(self, binary_tree_d4, rng):
        """On a tree there is exactly one tree — both must find it."""
        g = binary_tree_d4.graph
        counter = MulticastTreeCounter(bfs(g, 0))
        for _ in range(10):
            receivers = rng.choice(
                range(1, g.num_nodes), size=6, replace=False
            )
            assert (
                takahashi_matsuyama(g, 0, receivers).num_links
                == counter.tree_size(receivers)
            )


# ---------------------------------------------------------------------------
# Oracle: the two graft loops the registry carried before they were merged
# ---------------------------------------------------------------------------


def _oracle_graft(in_tree, edges, parent, target):
    node = target
    while node not in in_tree:
        up = int(parent[node])
        edges.append((up, node))
        in_tree.add(node)
        node = up


def _oracle_arrays(in_tree, edges):
    return (
        np.asarray(sorted(in_tree), dtype=np.int64),
        np.asarray(edges, dtype=np.int64).reshape(-1, 2),
    )


def _oracle_tm(graph, source, receivers):
    """Nearest-receiver grafting as a standalone loop over a set."""
    wanted = {graph.check_node(int(r)) for r in receivers}
    wanted.discard(source)
    in_tree, edges = {source}, []
    remaining = set(wanted)
    while remaining:
        dist, parent = multi_source_bfs(graph, sorted(in_tree))
        reachable = [(int(dist[r]), r) for r in remaining if dist[r] >= 0]
        if not reachable:
            missing = sorted(remaining)[0]
            raise GraphError(f"receiver {missing} is unreachable from the tree")
        _, target = min(reachable)
        _oracle_graft(in_tree, edges, parent, target)
        remaining -= in_tree
    return _oracle_arrays(in_tree, edges)


def _oracle_dst(graph, source, receivers):
    """Arrival-order joins, one BFS per receiver not yet in the tree."""
    in_tree, edges = {source}, []
    for raw in receivers:
        target = graph.check_node(int(raw))
        if target in in_tree:
            continue
        dist, parent = multi_source_bfs(graph, sorted(in_tree))
        if dist[target] < 0:
            raise GraphError(f"receiver {target} is unreachable from the tree")
        _oracle_graft(in_tree, edges, parent, target)
    return _oracle_arrays(in_tree, edges)


def _assert_same_tree(tree, oracle):
    nodes, edges = oracle
    assert tree.nodes.dtype == nodes.dtype and tree.edges.dtype == edges.dtype
    assert np.array_equal(tree.nodes, nodes)
    assert np.array_equal(tree.edges, edges)


@pytest.mark.parametrize(
    "name", tuple(TOPOLOGY_NAMES) + tuple(EXTRA_TOPOLOGIES)
)
def test_graft_loop_matches_the_old_loops(name):
    graph = build_topology(name, scale=0.15, rng=4)
    rng = np.random.default_rng(23)
    for size in (1, 3, 8, 20, 64):
        source = int(rng.integers(graph.num_nodes))
        # Duplicates (as in with-replacement draws) and the source
        # itself ride along.
        receivers = rng.integers(0, graph.num_nodes, size=size).tolist()
        receivers.append(source)
        oracle_tm = _oracle_tm(graph, source, receivers)
        _assert_same_tree(takahashi_matsuyama(graph, source, receivers), oracle_tm)
        spt = build_tree("spt", graph, source, receivers)
        guarded = build_tree("steiner-tm", graph, source, receivers)
        if oracle_tm[1].shape[0] < spt.num_links:
            _assert_same_tree(guarded, oracle_tm)
        else:
            _assert_same_tree(guarded, (spt.nodes, spt.edges))
        _assert_same_tree(
            build_tree("dst-approx", graph, source, receivers),
            _oracle_dst(graph, source, receivers),
        )


def test_unreachable_messages_match_the_old_loops(disconnected_graph):
    for nearest, oracle in ((True, _oracle_tm), (False, _oracle_dst)):
        with pytest.raises(GraphError) as expected:
            oracle(disconnected_graph, 0, [4, 1, 3])
        with pytest.raises(GraphError) as got:
            _graft_tree(disconnected_graph, 0, [4, 1, 3], nearest=nearest)
        assert str(got.value) == str(expected.value)


@st.composite
def graft_cases(draw):
    """Small tie-heavy graphs (grids, k-ary trees with extra links) and
    disconnected ones, relabelled at random so the lowest-id rule meets
    every ordering; receivers repeat and may include the source."""
    kind = draw(st.sampled_from(["grid", "kary", "disconnected"]))
    if kind == "grid":
        rows, cols = draw(st.integers(1, 5)), draw(st.integers(2, 6))
        n = rows * cols
        edges = [
            (r * cols + c, r * cols + c + 1)
            for r in range(rows) for c in range(cols - 1)
        ] + [
            (r * cols + c, (r + 1) * cols + c)
            for r in range(rows - 1) for c in range(cols)
        ]
    elif kind == "kary":
        tree = kary_tree(draw(st.integers(2, 3)), draw(st.integers(1, 3)))
        n = tree.num_nodes
        edges = [tuple(int(v) for v in e) for e in tree.graph.edges()]
        # Extra links close cycles, so some receivers get equal-cost paths.
        for _ in range(draw(st.integers(0, 4))):
            u, v = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
            if u != v:
                edges.append((u, v))
    else:
        n = draw(st.integers(2, 14))
        edges = [
            edge
            for edge in draw(st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=2 * n,
            ))
            if edge[0] != edge[1]
        ]
    label = draw(st.permutations(range(n)))
    graph = Graph.from_edges(
        n, sorted({tuple(sorted((label[u], label[v]))) for u, v in edges})
    )
    source = draw(st.integers(0, n - 1))
    receivers = draw(st.lists(st.integers(0, n - 1), max_size=12))
    if draw(st.booleans()):
        receivers.insert(draw(st.integers(0, len(receivers))), source)
    return graph, source, receivers


@given(case=graft_cases())
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_incremental_graft_matches_one_bfs_per_graft(case):
    graph, source, receivers = case
    forest = bfs(graph, source)
    dist, parent = forest.dist.copy(), forest.parent.copy()
    for nearest, oracle in ((True, _oracle_tm), (False, _oracle_dst)):
        try:
            expected = oracle(graph, source, receivers)
        except GraphError as exc:
            expected = exc
        for kwargs in ({}, {"forest": forest}):
            if isinstance(expected, GraphError):
                with pytest.raises(GraphError) as got:
                    _graft_tree(graph, source, receivers, nearest, **kwargs)
                assert str(got.value) == str(expected)
            else:
                _assert_same_tree(
                    _graft_tree(graph, source, receivers, nearest, **kwargs),
                    expected,
                )
    # The build lowers a private copy: the (frozen) forest is untouched.
    assert np.array_equal(forest.dist, dist)
    assert np.array_equal(forest.parent, parent)
