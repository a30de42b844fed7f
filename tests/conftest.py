"""Shared fixtures for the test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.experiments.pool import shutdown_pool
from repro.graph.builders import GraphBuilder
from repro.graph.core import Graph
from repro.topology.kary import kary_tree

SHM_DIR = Path("/dev/shm")


def _shm_segments() -> set:
    if not SHM_DIR.is_dir():  # pragma: no cover - non-Linux
        return set()
    return {p.name for p in SHM_DIR.glob("psm_*")}


@pytest.fixture(scope="module")
def _no_leaked_segments():
    """Every segment this module publishes must be unlinked by the end."""
    before = _shm_segments()
    yield
    shutdown_pool()
    assert _shm_segments() - before == set()


@pytest.fixture
def rng():
    """A seeded generator; tests needing more streams spawn children."""
    return np.random.default_rng(12345)


@pytest.fixture
def path_graph():
    """0 - 1 - 2 - 3 - 4: the simplest nontrivial tree."""
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


@pytest.fixture
def cycle_graph():
    """A 6-cycle: every pair of antipodal nodes has two equal paths."""
    return Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])


@pytest.fixture
def diamond_graph():
    """0 connects to 3 via 1 and 2: equal-cost multipath for tie-breaks."""
    return Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


@pytest.fixture
def disconnected_graph():
    """Two components: a triangle (0,1,2) and an edge (3,4), plus isolated 5."""
    return Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)])


@pytest.fixture
def binary_tree_d4():
    """Complete binary tree, depth 4: 31 nodes, 16 leaves."""
    return kary_tree(2, 4)


@pytest.fixture
def ternary_tree_d3():
    """Complete ternary tree, depth 3: 40 nodes, 27 leaves."""
    return kary_tree(3, 3)


@pytest.fixture
def small_mesh():
    """A 4x4 grid graph: sub-exponential growth, many equal-cost paths."""
    builder = GraphBuilder(16)
    for row in range(4):
        for col in range(4):
            node = 4 * row + col
            if col < 3:
                builder.add_edge(node, node + 1)
            if row < 3:
                builder.add_edge(node, node + 4)
    return builder.to_graph()
