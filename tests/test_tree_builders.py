"""Property suite for the pluggable tree-builder registry.

Every registered builder must produce a genuine delivery tree —
acyclic, connected, rooted at the source, spanning every receiver,
using only real graph links — on arbitrary connected graphs *and* on
every topology the registry can build.  On top of the structural
invariants sit the cross-algorithm ordering facts the figure families
rely on: ``spt`` is bit-identical to the Monte-Carlo counter,
``steiner-tm`` never exceeds the SPT tree (the best-of guard), no tree
exceeds the unicast star, and ``kdisjoint`` backups are pairwise
edge-disjoint from the primary wherever the graph permits.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ExperimentError, GraphError
from repro.graph.core import Graph
from repro.graph.paths import bfs
from repro.multicast.builders import (
    BUILDER_NAMES,
    build_redundant_set,
    build_tree,
    builder_spec,
    count_tree_links,
)
from repro.multicast.tree import DeliveryTree, MulticastTreeCounter
from repro.topology.registry import (
    EXTRA_TOPOLOGIES,
    TOPOLOGY_NAMES,
    build_topology,
)

ALL_TOPOLOGIES = tuple(TOPOLOGY_NAMES) + tuple(EXTRA_TOPOLOGIES)


# ---------------------------------------------------------------------------
# Strategies and helpers
# ---------------------------------------------------------------------------


@st.composite
def connected_graphs(draw, max_nodes: int = 20):
    """A connected graph: random tree skeleton + random extra edges."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    edges = set()
    for child in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=child - 1))
        edges.add((parent, child))
    extra = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, sorted(edges))


@st.composite
def tree_problems(draw):
    graph = draw(connected_graphs())
    source = draw(st.integers(min_value=0, max_value=graph.num_nodes - 1))
    receivers = draw(
        st.lists(
            st.integers(min_value=0, max_value=graph.num_nodes - 1),
            min_size=1,
            max_size=10,
            unique=True,
        )
    )
    return graph, source, tuple(receivers)


def _is_graph_link(graph: Graph, u: int, v: int) -> bool:
    return v in graph.neighbors(u)


def assert_valid_tree(graph: Graph, tree: DeliveryTree, source, receivers):
    """The structural contract every builder must satisfy."""
    nodes = set(int(n) for n in tree.nodes)
    assert int(tree.source) == int(source)
    assert int(source) in nodes
    for receiver in receivers:
        assert tree.covers(int(receiver)), f"receiver {receiver} not covered"
    # One edge per non-source node == acyclic once all chains reach the
    # source; _node_depths raises on any orphaned chain.
    assert tree.edges.shape == (len(nodes) - 1, 2)
    children = [int(c) for _p, c in tree.edges]
    assert len(children) == len(set(children)), "node with two parents"
    assert int(source) not in children
    for parent, child in tree.edges:
        assert int(parent) in nodes and int(child) in nodes
        assert _is_graph_link(graph, int(parent), int(child)), (
            f"tree edge ({parent}, {child}) is not a graph link"
        )
    profile = tree.depth_profile()
    assert int(profile.sum()) == len(nodes)
    assert int(profile[0]) == 1  # the source alone at depth 0
    costs = tree.receiver_path_costs()
    assert costs.shape == (len(tree.receivers),)
    assert np.all(costs >= 0)


# ---------------------------------------------------------------------------
# Registry mechanics
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_builtin_names(self):
        assert BUILDER_NAMES == ("spt", "steiner-tm", "dst-approx", "kdisjoint")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ExperimentError, match="unknown tree algorithm"):
            builder_spec("opt")


# ---------------------------------------------------------------------------
# Structural invariants on random graphs (every builder)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("algorithm", BUILDER_NAMES)
@given(problem=tree_problems())
@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
def test_builder_produces_valid_tree(algorithm, problem):
    graph, source, receivers = problem
    tree = build_tree(algorithm, graph, source, receivers)
    assert tree.algorithm == algorithm
    assert_valid_tree(graph, tree, source, receivers)


@pytest.mark.parametrize("algorithm", BUILDER_NAMES)
@given(problem=tree_problems())
@settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
def test_count_matches_per_row_builds(algorithm, problem):
    graph, source, receivers = problem
    matrix = np.asarray([receivers, receivers], dtype=np.int64)
    counts = count_tree_links(algorithm, graph, source, matrix)
    assert counts.shape == (2,)
    assert counts[0] == counts[1]
    if algorithm == "kdisjoint":
        expected = build_redundant_set(graph, source, receivers).num_links
    else:
        expected = build_tree(algorithm, graph, source, receivers).num_links
    assert int(counts[0]) == int(expected)


@given(problem=tree_problems())
@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
def test_spt_bit_identical_to_counter(problem):
    graph, source, receivers = problem
    forest = bfs(graph, source, tie_break="first")
    counter = MulticastTreeCounter(forest)
    tree = build_tree("spt", graph, source, receivers, forest=forest)
    assert tree.num_links == counter.tree_size(receivers)
    assert np.array_equal(tree.nodes, counter.tree_nodes(receivers))
    # SPT path costs are exactly the BFS distances.
    costs = tree.receiver_path_costs()
    assert np.array_equal(
        costs, forest.dist[np.asarray(receivers, dtype=np.int64)]
    )


@given(problem=tree_problems())
@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
def test_steiner_never_exceeds_spt_never_exceeds_unicast(problem):
    graph, source, receivers = problem
    forest = bfs(graph, source, tie_break="first")
    counter = MulticastTreeCounter(forest)
    spt = build_tree("spt", graph, source, receivers, forest=forest)
    steiner = build_tree("steiner-tm", graph, source, receivers, forest=forest)
    unicast = counter.unicast_total(receivers)
    assert steiner.num_links <= spt.num_links <= unicast


@given(problem=tree_problems())
@settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
def test_dst_approx_is_arrival_order_sensitive_but_valid(problem):
    graph, source, receivers = problem
    forward = build_tree("dst-approx", graph, source, receivers)
    reversed_ = build_tree("dst-approx", graph, source, tuple(reversed(receivers)))
    # Both orders must yield valid trees; their sizes may differ (the
    # builder is order-sensitive by design) but both stay within the
    # unicast bound.
    counter = MulticastTreeCounter(bfs(graph, source, tie_break="first"))
    unicast = counter.unicast_total(receivers)
    assert forward.num_links <= unicast
    assert reversed_.num_links <= unicast
    assert_valid_tree(graph, reversed_, source, receivers)


# ---------------------------------------------------------------------------
# kdisjoint: redundancy accounting and disjointness where possible
# ---------------------------------------------------------------------------


def _undirected(edges) -> set:
    return {
        (int(min(u, v)), int(max(u, v)))
        for u, v in np.asarray(edges).reshape(-1, 2)
    }


@given(problem=tree_problems(), k=st.integers(min_value=2, max_value=3))
@settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
def test_kdisjoint_set_invariants(problem, k):
    graph, source, receivers = problem
    tree_set = build_redundant_set(graph, source, receivers, k=k)
    assert tree_set.k == k
    for tree in tree_set.trees:
        assert_valid_tree(graph, tree, source, receivers)
    primary = _undirected(tree_set.trees[0].edges)
    union = set()
    for tree in tree_set.trees:
        union |= _undirected(tree.edges)
    assert tree_set.num_links == len(union)
    assert tree_set.num_links <= tree_set.total_links
    assert 0.0 <= tree_set.protected_fraction <= 1.0
    assert tree_set.fully_disjoint == (tree_set.shared_links == 0)
    # The installed set always contains (hence never undercounts) the
    # primary SPT tree.
    assert primary <= union


def test_kdisjoint_fully_disjoint_on_a_cycle():
    """On a 2-edge-connected ring, k=2 trees share no link at all."""
    n = 8
    ring = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    tree_set = build_redundant_set(ring, 0, [4], k=2)
    assert tree_set.fully_disjoint
    assert tree_set.shared_links == 0
    assert tree_set.protected_fraction == 1.0
    # Ring geometry: 4 hops one way, 4 the other — all 8 links used.
    assert tree_set.num_links == n


def test_kdisjoint_k3_on_complete_graph():
    n = 6
    complete = Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n)]
    )
    tree_set = build_redundant_set(complete, 0, [1, 2, 3], k=3)
    assert tree_set.k == 3
    # K6 has enough edge-disjoint paths for every backup to dodge the
    # earlier trees entirely.
    assert tree_set.fully_disjoint
    assert tree_set.protected_fraction == 1.0


def test_kdisjoint_falls_back_on_a_tree_graph():
    """On a tree there are no alternate paths: backups reuse the primary."""
    chain = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    tree_set = build_redundant_set(chain, 0, [3], k=2)
    assert not tree_set.fully_disjoint
    assert tree_set.protected_fraction == 0.0
    assert tree_set.num_links == 3  # union is still just the chain
    assert tree_set.total_links == 6


def test_kdisjoint_rejects_bad_k():
    graph = Graph.from_edges(3, [(0, 1), (1, 2)])
    for bad in (1, 4):
        with pytest.raises(ExperimentError, match="kdisjoint supports k"):
            build_redundant_set(graph, 0, [2], k=bad)


def test_kdisjoint_resolves_the_primary_forest_once(monkeypatch):
    """Without ``forest=``, k=3 runs one BFS on the original graph plus
    one per backup on its pruned copy, and builds the same trees."""
    from repro.multicast import builders

    graph = build_topology("arpa", scale=0.5, rng=3)
    source, receivers = 0, [5, 9, 17, 23, 30]
    explicit = build_redundant_set(
        graph, source, receivers, k=3, forest=bfs(graph, source)
    )
    searched = []

    def counting_bfs(g, *args, **kwargs):
        searched.append(g is graph)
        return bfs(g, *args, **kwargs)

    monkeypatch.setattr(builders, "bfs", counting_bfs)
    resolved = build_redundant_set(graph, source, receivers, k=3)
    assert searched == [True, False, False]
    for got, want in zip(resolved.trees, explicit.trees, strict=True):
        assert np.array_equal(got.nodes, want.nodes)
        assert np.array_equal(got.edges, want.edges)


# ---------------------------------------------------------------------------
# Forest validation and error paths
# ---------------------------------------------------------------------------


def test_mismatched_forest_rejected():
    graph = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    wrong_root = bfs(graph, 1, tie_break="first")
    with pytest.raises(GraphError, match="rooted at"):
        build_tree("spt", graph, 0, [3], forest=wrong_root)


def test_non_matrix_count_input_rejected():
    graph = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(GraphError, match="2-D"):
        count_tree_links("spt", graph, 0, [1, 2])


# ---------------------------------------------------------------------------
# Every builder x every registry topology
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_TOPOLOGIES)
def test_every_builder_on_every_registry_topology(name):
    graph = build_topology(name, scale=0.25, rng=7)
    rng = np.random.default_rng(13)
    source = int(rng.integers(0, graph.num_nodes))
    forest = bfs(graph, source, tie_break="first")
    size = min(8, graph.num_nodes - 1)
    candidates = [n for n in range(graph.num_nodes) if n != source]
    receivers = tuple(
        int(r) for r in rng.choice(candidates, size=size, replace=False)
    )
    counter = MulticastTreeCounter(forest)
    unicast = counter.unicast_total(receivers)
    sizes = {}
    for algorithm in BUILDER_NAMES:
        tree = build_tree(algorithm, graph, source, receivers, forest=forest)
        assert tree.algorithm == algorithm
        assert_valid_tree(graph, tree, source, receivers)
        sizes[algorithm] = tree.num_links
    assert sizes["spt"] == counter.tree_size(receivers)
    assert sizes["steiner-tm"] <= sizes["spt"] <= unicast
    assert sizes["dst-approx"] <= unicast
    # kdisjoint's build_tree returns the primary == the SPT tree.
    assert sizes["kdisjoint"] == sizes["spt"]
