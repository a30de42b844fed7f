"""Batched ≡ scalar equivalence: the fast engine must be a pure speedup.

The vectorized Monte-Carlo machinery promises bit-identical results to
the per-sample reference path at three independent layers — tree
counting, receiver sampling, and the full sweep engine.  Each layer is
pinned separately (property tests over random graphs and seeds for the
first two; for the third, every source's integer counts against the
test-local per-sample loop :func:`_scalar_source_counts`) so a
regression is localized by the failing layer rather than showing up as
an unexplained figure-level drift.
"""

from __future__ import annotations

import hashlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments import runner
from repro.experiments.config import MonteCarloConfig
from repro.experiments.runner import measure_single_source_sweep, measure_sweep
from repro.graph.core import Graph
from repro.graph.distance_store import build_distance_store
from repro.graph.forest_cache import ForestCache, default_forest_cache
from repro.graph.paths import _preorder_tables, bfs
from repro.multicast import sampling
from repro.multicast.sampling import (
    sample_distinct_receivers,
    sample_distinct_receivers_sweep,
    sample_receivers_with_replacement,
    sample_receivers_with_replacement_sweep,
)
from repro import obs
from repro.exceptions import GraphError, SamplingError
from repro.multicast.tree import MulticastTreeCounter
from repro.topology.registry import build_topology

# ---------------------------------------------------------------------------
# Strategies
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
def counting_cases(draw):
    """A counter plus a receiver matrix (duplicates deliberately allowed,
    and zero rows or zero columns too)."""
    graph = draw(connected_graphs())
    source = draw(st.integers(min_value=0, max_value=graph.num_nodes - 1))
    tie_break = draw(st.sampled_from(["first", "random"]))
    forest = bfs(
        graph,
        source,
        tie_break=tie_break,
        rng=draw(st.integers(0, 3)) if tie_break == "random" else None,
    )
    num_sets = draw(st.integers(min_value=0, max_value=5))
    size = draw(st.integers(min_value=0, max_value=graph.num_nodes))
    matrix = np.asarray(
        draw(
            st.lists(
                st.lists(
                    st.integers(0, graph.num_nodes - 1),
                    min_size=size,
                    max_size=size,
                ),
                min_size=num_sets,
                max_size=num_sets,
            )
        ),
        dtype=np.int64,
    ).reshape(num_sets, size)
    return MulticastTreeCounter(forest), matrix


# ---------------------------------------------------------------------------
# Layer 1: vectorized tree counting
# ---------------------------------------------------------------------------

#: Both batched counting paths.  A counter on a forest without kept
#: preorder tables is forced onto one by its receivers-per-node
#: threshold: 0 always ranks in preorder, infinity always walks.
COUNTING_PATHS = {"walk": float("inf"), "preorder": 0}


def _forced(forest, path: str) -> MulticastTreeCounter:
    # Kept tables are read at any density, so only a forest without
    # them can be forced onto the walk.
    assert forest.kept_preorder is None
    counter = MulticastTreeCounter(forest)
    counter._PREORDER_MIN_DENSITY = COUNTING_PATHS[path]
    return counter


def _assert_paths_match_scalar(forest, matrix) -> None:
    """Both forced paths, batched and fused, equal the scalar loop."""
    matrix = np.asarray(matrix)
    scalar = [MulticastTreeCounter(forest).tree_size(row) for row in matrix]
    for path in COUNTING_PATHS:
        counter = _forced(forest, path)
        assert counter.tree_sizes_batch(matrix).tolist() == scalar, path
        links, _ = counter.count_trees_and_unicast([matrix])
        assert links[0].tolist() == scalar, path


class TestBatchedCounting:
    @given(case=counting_cases())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_tree_sizes_batch_matches_scalar_loop(self, case):
        counter, matrix = case
        scalar = [counter.tree_size(row) for row in matrix]
        for path in COUNTING_PATHS:
            batched = _forced(counter.forest, path).tree_sizes_batch(matrix)
            assert batched.tolist() == scalar, path

    @given(case=counting_cases())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_unicast_totals_batch_matches_scalar_loop(self, case):
        counter, matrix = case
        batched = counter.unicast_totals_batch(matrix)
        scalar = [counter.unicast_total(row) for row in matrix]
        assert batched.tolist() == scalar

    @given(case=counting_cases())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_fused_count_matches_separate_batches(self, case):
        counter, matrix = case
        # Split into two blocks to exercise the multi-block count.
        cut = matrix.shape[0] // 2
        blocks = [b for b in (matrix[:cut], matrix[cut:]) if b.shape[0]]
        for path in COUNTING_PATHS:
            fused = _forced(counter.forest, path)
            links, totals = fused.count_trees_and_unicast(blocks)
            assert len(links) == len(blocks) == len(totals)
            for block, block_links, block_totals in zip(blocks, links, totals):
                assert block_links.tolist() == [
                    counter.tree_size(row) for row in block
                ], path
                assert block_totals.tolist() == counter.unicast_totals_batch(
                    block
                ).tolist()

    def test_walk_keys_past_int32(self):
        """40,000 rows over 70,001 nodes: the packed ``row << shift | node``
        keys of the later rows exceed 2**31, so they must stay int64."""
        n, rows = 70_001, 40_000
        graph = Graph.from_edges(
            n, np.column_stack([np.zeros(n - 1, dtype=np.int64),
                                np.arange(1, n, dtype=np.int64)])
        )
        forest = bfs(graph, 0)  # a star: every leaf is one link deep
        matrix = np.random.default_rng(11).integers(0, n, size=(rows, 2))
        matrix[::7, 1] = matrix[::7, 0]  # duplicates
        matrix[::11, 0] = 0  # the source as a receiver
        matrix[-1] = [n - 1, n - 2]
        links = _forced(forest, "walk").tree_sizes_batch(matrix)
        leaves = (matrix != 0).sum(axis=1)
        closed_form = np.where(matrix[:, 0] == matrix[:, 1], leaves > 0, leaves)
        assert links.tolist() == closed_form.tolist()
        scalar = MulticastTreeCounter(forest)
        assert links.tolist() == [scalar.tree_size(row) for row in matrix]

    def test_disconnected_graph_counts_source_component(self):
        # Components {0..4} (a path with a branch) and {5, 6}, plus 7.
        graph = Graph.from_edges(
            8, [(0, 1), (1, 2), (2, 3), (1, 4), (5, 6)]
        )
        forest = bfs(graph, 1)
        matrix = np.random.default_rng(0).choice(
            [0, 1, 2, 3, 4], size=(12, 6)
        )
        _assert_paths_match_scalar(forest, matrix)
        for path in COUNTING_PATHS:
            with pytest.raises(GraphError, match="unreachable"):
                _forced(forest, path).tree_sizes_batch([[0, 6]])

    def test_deep_path_uses_wide_depth_dtype(self):
        """Eccentricity >= 127 overflows int8 depths (plus the depth + 1
        row): the preorder tables widen to int32, and counts at every
        depth must stay exact."""
        n = 300
        graph = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
        forest = bfs(graph, 20)  # eccentricity 279 toward node 299
        _, table, _, _ = _preorder_tables(
            forest.dist.astype(np.int32), forest.parent.astype(np.int32)
        )
        assert table.dtype == np.int32
        rng = np.random.default_rng(5)
        matrix = rng.integers(0, n, size=(20, 7))
        matrix[0] = [299, 0, 150, 20, 21, 298, 128]
        _assert_paths_match_scalar(forest, matrix)

    def test_shallow_forest_uses_int8_depths(self):
        forest = bfs(build_topology("internet", scale=0.05, rng=0), 0)
        _, table, _, _ = _preorder_tables(
            forest.dist.astype(np.int32), forest.parent.astype(np.int32)
        )
        assert table.dtype == np.int8

    def test_with_replacement_duplicates(self):
        graph = build_topology("internet", scale=0.05, rng=0)
        forest = bfs(graph, 3)
        # Far more draws than nodes: every row is mostly duplicates.
        for matrix in sample_receivers_with_replacement_sweep(
            graph.num_nodes, [1, 40, 3 * graph.num_nodes], 6,
            source=3, rng=np.random.default_rng(8),
        ):
            _assert_paths_match_scalar(forest, matrix)

    def test_source_may_be_a_receiver(self):
        """``exclude_source_site=False``: the source (rank 0, depth 0)
        can sit anywhere in a row, alone or with duplicates."""
        graph = build_topology("internet", scale=0.05, rng=0)
        source = 11
        forest = bfs(graph, source)
        matrices = sample_distinct_receivers_sweep(
            graph.num_nodes, [1, 5, 60], 40, source=None,
            rng=np.random.default_rng(9),
        )
        assert any((m == source).any() for m in matrices)
        for matrix in matrices:
            _assert_paths_match_scalar(forest, matrix)
        for row in ([source], [source, source], [source, 0, source]):
            _assert_paths_match_scalar(forest, [row])

    def test_extreme_group_sizes(self):
        """m = 0 and m = 1 (no adjacent pairs) and m = n - 1 (every
        non-source node, so L = n - 1)."""
        graph = build_topology("internet", scale=0.05, rng=0)
        n = graph.num_nodes
        forest = bfs(graph, 0)
        _assert_paths_match_scalar(forest, np.zeros((3, 0), dtype=np.int64))
        one, everyone = sample_distinct_receivers_sweep(
            n, [1, n - 1], 5, source=0, rng=np.random.default_rng(4)
        )
        _assert_paths_match_scalar(forest, one)
        _assert_paths_match_scalar(forest, everyone)
        for path in COUNTING_PATHS:
            links = _forced(forest, path).tree_sizes_batch(everyone)
            assert links.tolist() == [n - 1] * 5


class TestClimbEdgeCases:
    """The climb's per-level dedupe (a sort and a neighbour test) at the
    shapes where an off-by-one in its keep mask would show: one key, no
    key, empty blocks, and rows that are mostly one key."""

    @staticmethod
    def _assert_walk_matches_scalar(forest, blocks) -> None:
        scalar = MulticastTreeCounter(forest)
        links, _ = _forced(forest, "walk").count_trees_and_unicast(blocks)
        assert len(links) == len(blocks)
        for block, block_links in zip(blocks, links):
            assert block_links.tolist() == [
                scalar.tree_size(row) for row in block
            ]

    def test_single_key_levels(self):
        # One receiver at the end of a path: every level holds one key.
        n = 40
        graph = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
        forest = bfs(graph, 0)
        self._assert_walk_matches_scalar(forest, [np.array([[n - 1]])])
        # Two rows, each a single deep key, one row a duplicate pair.
        self._assert_walk_matches_scalar(
            forest, [np.array([[n - 1, n - 1], [7, 7]])]
        )

    def test_every_receiver_at_the_source(self):
        graph = build_topology("internet", scale=0.05, rng=0)
        forest = bfs(graph, 5)
        matrix = np.full((4, 6), 5)
        self._assert_walk_matches_scalar(forest, [matrix])
        links = _forced(forest, "walk").tree_sizes_batch(matrix)
        assert links.tolist() == [0, 0, 0, 0]

    def test_zero_row_blocks_among_non_empty_ones(self):
        graph = build_topology("internet", scale=0.05, rng=0)
        forest = bfs(graph, 2)
        rng = np.random.default_rng(12)
        blocks = [
            np.zeros((0, 3), dtype=np.int64),
            rng.integers(0, graph.num_nodes, size=(3, 3)),
            np.zeros((0, 8), dtype=np.int64),
            rng.integers(0, graph.num_nodes, size=(2, 8)),
            np.zeros((0, 1), dtype=np.int64),
        ]
        self._assert_walk_matches_scalar(forest, blocks)

    def test_duplicate_heavy_replacement_rows(self):
        graph = build_topology("internet", scale=0.05, rng=0)
        forest = bfs(graph, 0)
        rng = np.random.default_rng(13)
        # 200 draws per row from 3 sites: almost every key is a repeat.
        few = rng.choice([1, 17, graph.num_nodes - 1], size=(6, 200))
        # Every row one site repeated, the source among them.
        same = np.repeat(np.array([[0], [3], [3], [40]]), 50, axis=1)
        self._assert_walk_matches_scalar(forest, [few, same])


class TestCountingPathChoice:
    """The receivers-per-reachable-node rule, pinned on workload shapes:
    paper-sweep-like calls rank in preorder, sparse store-backed and
    single-size simulation calls keep the walk."""

    @pytest.fixture
    def path_calls(self, monkeypatch):
        calls = {"walk": 0, "preorder": 0}
        for path, attr in (("walk", "_walk_blocks"),
                           ("preorder", "_preorder_blocks")):
            original = getattr(MulticastTreeCounter, attr)

            def counted(self, *args, _path=path, _original=original):
                calls[_path] += 1
                return _original(self, *args)

            monkeypatch.setattr(MulticastTreeCounter, attr, counted)
        return calls

    @staticmethod
    def _strategy_counts():
        series = obs.default_registry().get("repro_tree_counts_total")
        return {s: series.value(strategy=s) for s in COUNTING_PATHS}

    def test_paper_sweep_shape_takes_preorder(self, path_calls):
        # The paper sweep: 10 log-spaced sizes up to n/4, 100 sets each
        # (~43 receivers per node at 10k nodes; ~60 at these 500).
        graph = build_topology("internet", scale=0.05, rng=0)
        sizes = sorted({int(v) for v in np.rint(
            np.logspace(0, np.log10(graph.num_nodes // 4), 10))})
        before = self._strategy_counts()
        measure_sweep(
            graph, sizes, mode="distinct",
            config=MonteCarloConfig(num_sources=3, num_receiver_sets=100),
            rng=0,
        )
        assert path_calls == {"walk": 0, "preorder": 3}
        after = self._strategy_counts()
        assert after["preorder"] - before["preorder"] == 3
        assert after["walk"] == before["walk"]

    def test_sparse_calls_keep_the_walk(self, path_calls):
        # Earlier tests may have handed these sources' forests out of
        # the default cache already; a reused forest would keep tables.
        default_forest_cache().clear()
        graph = build_topology("internet", scale=0.05, rng=0)
        n = graph.num_nodes
        # million-store: 8 sets over sizes up to n/1000 (~0.01 per node);
        # serve-exact: 20 sets of one size (at most ~0.2 per node).
        measure_sweep(
            graph, [1, 2], mode="distinct",
            config=MonteCarloConfig(num_sources=2, num_receiver_sets=8),
            rng=1,
        )
        measure_sweep(
            graph, [n // 100], mode="replacement",
            config=MonteCarloConfig(num_sources=2, num_receiver_sets=20),
            rng=2,
        )
        assert path_calls == {"walk": 4, "preorder": 0}

    def test_threshold_is_per_reachable_node(self, path_calls):
        """A source in a small component counts against that component,
        not the whole graph."""
        graph = Graph.from_edges(
            40, [(0, 1), (1, 2)] + [(v, v + 1) for v in range(3, 39)]
        )
        counter = MulticastTreeCounter(bfs(graph, 0))
        k = counter._PREORDER_MIN_DENSITY
        # 3 reachable nodes: 3k receivers is dense there, though sparse
        # against all 40.
        counter.tree_sizes_batch(np.zeros((3, k), dtype=np.int64))
        counter.tree_sizes_batch(np.zeros((3, k - 1), dtype=np.int64))
        assert path_calls == {"walk": 1, "preorder": 1}

    @staticmethod
    def _table_builds():
        series = obs.default_registry().get("repro_preorder_tables_total")
        return {kept: series.value(kept=kept) for kept in ("true", "false")}

    @staticmethod
    def _sparse_matrix(graph, seed=0):
        # 20 sets of 10: serve-exact's shape, ~0.4 receivers per node.
        return np.random.default_rng(seed).integers(
            0, graph.num_nodes, size=(20, 10)
        )

    def test_sparse_call_on_reused_forest_keeps_tables(self, path_calls):
        graph = build_topology("internet", scale=0.05, rng=0)
        cache = ForestCache()
        forest = cache.forest(graph, 7)
        assert cache.forest(graph, 7) is forest and forest.reused
        matrices = [self._sparse_matrix(graph, seed) for seed in range(3)]
        climbed = [
            _forced(bfs(graph, 7), "walk").tree_sizes_batch(m).tolist()
            for m in matrices
        ]
        before = self._table_builds()
        links, _ = MulticastTreeCounter(forest).count_trees_and_unicast(
            matrices[:1]
        )
        counted = [links[0].tolist()] + [
            MulticastTreeCounter(forest).tree_sizes_batch(m).tolist()
            for m in matrices[1:]
        ]
        assert counted == climbed
        assert path_calls == {"walk": 3, "preorder": 3}  # 3 references
        # One build, kept, serves every later counter on the forest.
        assert forest.kept_preorder is forest.preorder
        after = self._table_builds()
        assert after["true"] - before["true"] == 1
        assert after["false"] == before["false"]
        for array in forest.preorder:
            assert not array.flags.writeable

    def test_dense_call_on_forest_handed_out_once_keeps_nothing(
        self, path_calls
    ):
        graph = build_topology("internet", scale=0.05, rng=0)
        forest = ForestCache().forest(graph, 3)
        assert not forest.reused
        k = MulticastTreeCounter._PREORDER_MIN_DENSITY
        matrix = np.random.default_rng(1).integers(
            0, graph.num_nodes, size=(k * graph.num_nodes // 50, 50)
        )
        before = self._table_builds()
        links = MulticastTreeCounter(forest).tree_sizes_batch(matrix)
        assert path_calls == {"walk": 0, "preorder": 1}
        assert forest.kept_preorder is None
        after = self._table_builds()
        assert after["false"] - before["false"] == 1
        assert after["true"] == before["true"]
        walked = _forced(forest, "walk").tree_sizes_batch(matrix)
        assert links.tolist() == walked.tolist()

    def test_store_rows_and_bfs_forests_never_keep(self, path_calls, tmp_path):
        graph = build_topology("internet", scale=0.05, rng=0)
        store = build_distance_store(
            graph, str(tmp_path / "rows.dist"), sources=[0, 4]
        )
        try:
            forests = [store.forest(4), store.forest(4), bfs(graph, 4)]
            assert forests[0] is forests[1]
            matrix = self._sparse_matrix(graph)
            for forest in forests:
                MulticastTreeCounter(forest).tree_sizes_batch(matrix)
                assert not forest.reused
                assert forest.kept_preorder is None
            assert path_calls == {"walk": 3, "preorder": 0}
        finally:
            store.unlink()

    def test_borrow_mutable_copies_carry_no_tables(self, path_calls):
        graph = build_topology("internet", scale=0.05, rng=0)
        cache = ForestCache()
        cache.forest(graph, 2)
        shared = cache.forest(graph, 2)
        matrix = self._sparse_matrix(graph)
        kept = MulticastTreeCounter(shared).tree_sizes_batch(matrix)
        assert shared.kept_preorder is not None
        copy = cache.borrow_mutable(graph, 2)
        assert not copy.reused and copy.kept_preorder is None
        walked = MulticastTreeCounter(copy).tree_sizes_batch(matrix)
        assert copy.kept_preorder is None
        assert path_calls == {"walk": 1, "preorder": 1}
        assert walked.tolist() == kept.tolist()

    def test_threads_on_one_reused_forest_agree(self):
        """Executor threads (more than cores, switching often) race the
        first, table-building count on one reused forest; every thread
        must get the climb's integers."""
        graph = build_topology("internet", scale=0.05, rng=0)
        cache = ForestCache()
        cache.forest(graph, 9)
        forest = cache.forest(graph, 9)
        matrices = [self._sparse_matrix(graph, seed) for seed in (5, 6)]
        expected = [
            _forced(bfs(graph, 9), "walk").tree_sizes_batch(m).tolist()
            for m in matrices
        ]
        workers = 6
        start = threading.Barrier(workers, timeout=30)
        results = [None] * workers

        def count(i):
            start.wait()
            results[i] = [
                MulticastTreeCounter(forest).tree_sizes_batch(m).tolist()
                for m in matrices
            ]

        threads = [
            threading.Thread(target=count, args=(i,)) for i in range(workers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * workers
        assert forest.kept_preorder is not None


# ---------------------------------------------------------------------------
# Layer 2: batched / sweep sampling streams
# ---------------------------------------------------------------------------

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _assert_sweep_equals_sequential_scalar(
    sweep, scalar, num_nodes, sizes, num_sets, source, seed
):
    """Every row of every size's matrix is the next sequential scalar
    draw on a generator with the same seed."""
    swept = sweep(
        num_nodes, sizes, num_sets, source=source,
        rng=np.random.default_rng(seed),
    )
    assert len(swept) == len(sizes)
    scalar_rng = np.random.default_rng(seed)
    for size, matrix in zip(sizes, swept):
        assert matrix.dtype == np.int32
        assert matrix.shape == (num_sets, size)
        for row in matrix:
            expected = scalar(num_nodes, size, source=source, rng=scalar_rng)
            assert row.tolist() == expected.tolist()


def _reference_distinct(num_nodes, m, source, rng):
    """Textbook partial Fisher-Yates on a full pool copy: the stream
    contract both distinct paths (single-set and vectorized) must keep."""
    pool = np.asarray(
        [v for v in range(num_nodes) if v != source], dtype=np.int64
    )
    u = rng.random(m)
    for i in range(m):
        j = i + min(int(u[i] * (pool.size - i)), pool.size - i - 1)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:m]


class TestBatchedSampling:
    """Both sweep samplers against sequential scalar draws.

    The ``batch`` cases draw one size, the ``sweep`` cases several;
    ``num_sets`` covers single-set (``1``) and multi-set (``> 1``)
    draws in each.  These small shapes all fall on the swap chains'
    side of the strategy rule; :class:`TestDrawStrategies` forces each
    strategy in turn.
    """

    @given(
        seed=seeds,
        num_nodes=st.integers(3, 40),
        m=st.integers(1, 10),
        num_sets=st.sampled_from([1, 2, 6]),
        exclude=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_distinct_batch_equals_sequential_scalar(
        self, seed, num_nodes, m, num_sets, exclude
    ):
        m = min(m, num_nodes - 1)
        source = 0 if exclude else None
        _assert_sweep_equals_sequential_scalar(
            sample_distinct_receivers_sweep, sample_distinct_receivers,
            num_nodes, [m], num_sets, source, seed,
        )
        matrix = sample_distinct_receivers_sweep(
            num_nodes, [m], num_sets, source=source,
            rng=np.random.default_rng(seed),
        )[0]
        reference_rng = np.random.default_rng(seed)
        for row in matrix:
            expected = _reference_distinct(num_nodes, m, source, reference_rng)
            assert row.tolist() == expected.tolist()
            assert len(set(row.tolist())) == m
            if exclude:
                assert 0 not in row

    @given(
        seed=seeds,
        num_nodes=st.integers(3, 40),
        n=st.integers(1, 12),
        num_sets=st.sampled_from([1, 2, 6]),
    )
    @settings(max_examples=60, deadline=None)
    def test_replacement_batch_equals_sequential_scalar(
        self, seed, num_nodes, n, num_sets
    ):
        _assert_sweep_equals_sequential_scalar(
            sample_receivers_with_replacement_sweep,
            sample_receivers_with_replacement,
            num_nodes, [n], num_sets, 0, seed,
        )

    @given(
        seed=seeds,
        num_nodes=st.integers(4, 40),
        num_sets=st.sampled_from([1, 2, 6]),
        sizes=st.lists(st.integers(1, 12), min_size=2, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_distinct_sweep_equals_per_size_batches(
        self, seed, num_nodes, num_sets, sizes
    ):
        sizes = [min(m, num_nodes - 1) for m in sizes]
        _assert_sweep_equals_sequential_scalar(
            sample_distinct_receivers_sweep, sample_distinct_receivers,
            num_nodes, sizes, num_sets, 0, seed,
        )

    @given(
        seed=seeds,
        num_nodes=st.integers(3, 40),
        num_sets=st.sampled_from([1, 2, 6]),
        sizes=st.lists(st.integers(1, 12), min_size=2, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_replacement_sweep_equals_per_size_batches(
        self, seed, num_nodes, num_sets, sizes
    ):
        _assert_sweep_equals_sequential_scalar(
            sample_receivers_with_replacement_sweep,
            sample_receivers_with_replacement,
            num_nodes, sizes, num_sets, 0, seed,
        )


#: Both distinct-draw strategies.  A sweep is forced onto one by the
#: rule's receivers-per-site bound: infinity always takes the swap
#: chains, 0 always the shuffle.
DRAW_STRATEGIES = {"chains": float("inf"), "shuffle": 0}


def _draw_counts():
    series = obs.default_registry().get("repro_sampling_draws_total")
    return {s: series.value(strategy=s) for s in DRAW_STRATEGIES}


#: Every distinct-sweep validation error and its exact text, as raised
#: before the pool stopped being built:
#: ``(num_nodes, sizes, num_sets, source)`` -> message.
DISTINCT_ERRORS = [
    ((10, [3], 0, None), "num_sets must be >= 1, got 0"),
    ((10, [3, 0], 2, None), "m must be >= 1, got 0"),
    ((10, [11], 2, None),
     "cannot draw 11 distinct receivers from 10 eligible sites"),
    ((10, [3, 11], 1, None),
     "cannot draw 11 distinct receivers from 10 eligible sites"),
    ((10, [10], 2, 3), "cannot draw 10 distinct receivers from 9 eligible sites"),
    ((0, [1], 1, None), "cannot draw 1 distinct receivers from 0 eligible sites"),
    ((10, [3], 2, 10), "excluded nodes [10] out of range for 10 nodes"),
    ((10, [3], 2, -1), "excluded nodes [-1] out of range for 10 nodes"),
    ((-1, [3], 2, None), "num_nodes must be non-negative, got -1"),
    ((-1, [3], 2, 0), "num_nodes must be non-negative, got -1"),
]

#: The same for the with-replacement sweep, which has one strategy.
REPLACEMENT_ERRORS = [
    ((10, [3], 0, None), "num_sets must be >= 1, got 0"),
    ((10, [3, 0], 2, None), "n must be >= 1, got 0"),
    ((10, [0], 2, 12), "n must be >= 1, got 0"),
    ((1, [3], 2, 0), "no eligible receiver sites"),
    ((0, [3], 2, None), "no eligible receiver sites"),
    ((10, [3], 2, 10), "excluded nodes [10] out of range for 10 nodes"),
    ((-2, [3], 2, None), "num_nodes must be non-negative, got -2"),
]


@st.composite
def distinct_sweeps(draw):
    """``(num_nodes, sizes, num_sets, source)`` up to whole-pool draws."""
    num_nodes = draw(st.integers(2, 200))
    source = draw(st.sampled_from([None, 0, num_nodes - 1]))
    pool = num_nodes - (source is not None)
    sizes = draw(st.lists(st.integers(1, pool), min_size=1, max_size=3))
    num_sets = draw(st.sampled_from([1, 2, 6, 20]))
    return num_nodes, sizes, num_sets, source


class TestDrawStrategies:
    """The swap chains and the shuffle draw the same distinct sets."""

    @given(seed=seeds, case=distinct_sweeps())
    @settings(max_examples=60, deadline=None)
    def test_both_strategies_equal_the_textbook_shuffle(self, seed, case):
        num_nodes, sizes, num_sets, source = case
        for strategy, density in DRAW_STRATEGIES.items():
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(sampling, "_CHAIN_MAX_DENSITY", density)
                before = _draw_counts()
                swept = sample_distinct_receivers_sweep(
                    num_nodes, sizes, num_sets, source=source,
                    rng=np.random.default_rng(seed),
                )
                after = _draw_counts()
                assert after[strategy] - before[strategy] == 1, strategy
                scalar_rng = np.random.default_rng(seed)
                reference_rng = np.random.default_rng(seed)
                for m, matrix in zip(sizes, swept):
                    assert matrix.dtype == np.int32
                    assert matrix.shape == (num_sets, m)
                    for row in matrix:
                        expected = _reference_distinct(
                            num_nodes, m, source, reference_rng
                        )
                        assert row.tolist() == expected.tolist(), strategy
                        scalar = sample_distinct_receivers(
                            num_nodes, m, source=source, rng=scalar_rng
                        )
                        assert row.tolist() == scalar.tolist(), strategy

    def test_million_node_sweep_is_pinned(self):
        """The million-store draw shape, hashed at the commit before the
        swap chains existed: the rewrite moved no receiver."""
        swept = sample_distinct_receivers_sweep(
            1_000_000, [1, 10, 100, 1000], 8, source=0,
            rng=np.random.default_rng(1),
        )
        assert [m.shape for m in swept] == [(8, 1), (8, 10), (8, 100), (8, 1000)]
        digest = hashlib.sha256(
            b"".join(m.astype("<i4").tobytes() for m in swept)
        ).hexdigest()
        assert digest == (
            "57e1779204710a14a4c2e13753f5b1e2458786b2aa738a50ae40a5b02bd8beb8"
        )

    def test_sparse_draws_build_no_pool(self):
        """At 10^7 nodes, 8 x 1000 distinct and with-replacement draws
        stay within a few MB: nothing O(num_nodes) is allocated (a pool
        copy per set alone would be 320 MB)."""
        num_nodes = 10**7
        before = _draw_counts()
        tracemalloc.start()
        try:
            distinct = sample_distinct_receivers_sweep(
                num_nodes, [1000], 8, source=0, rng=np.random.default_rng(3)
            )
            replacement = sample_receivers_with_replacement_sweep(
                num_nodes, [1000], 8, source=0, rng=np.random.default_rng(3)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert _draw_counts()["chains"] - before["chains"] == 1
        for matrix in distinct + replacement:
            assert matrix.shape == (8, 1000)
            assert matrix.min() >= 1 and matrix.max() < num_nodes
        assert all(len(set(row.tolist())) == 1000 for row in distinct[0])

    @pytest.mark.parametrize("strategy", sorted(DRAW_STRATEGIES))
    @pytest.mark.parametrize(
        "args,message", DISTINCT_ERRORS, ids=[m for _, m in DISTINCT_ERRORS]
    )
    def test_distinct_errors_draw_nothing(
        self, monkeypatch, strategy, args, message
    ):
        monkeypatch.setattr(
            sampling, "_CHAIN_MAX_DENSITY", DRAW_STRATEGIES[strategy]
        )
        num_nodes, sizes, num_sets, source = args
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(SamplingError) as raised:
            sample_distinct_receivers_sweep(
                num_nodes, sizes, num_sets, source=source, rng=rng
            )
        assert str(raised.value) == message
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize(
        "args,message", REPLACEMENT_ERRORS,
        ids=[m for _, m in REPLACEMENT_ERRORS],
    )
    def test_replacement_errors_draw_nothing(self, args, message):
        num_nodes, sizes, num_sets, source = args
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(SamplingError) as raised:
            sample_receivers_with_replacement_sweep(
                num_nodes, sizes, num_sets, source=source, rng=rng
            )
        assert str(raised.value) == message
        assert rng.bit_generator.state == state


# ---------------------------------------------------------------------------
# Layer 3: the full engine (ARPANET guard, worker bit-identity)
# ---------------------------------------------------------------------------


def _scalar_source_counts(
    graph, child_seed, sizes, mode, num_receiver_sets, tie_break,
    exclude_source_site,
):
    """One source's per-size (links, totals), one sample at a time.

    The methodology as written — draw the source, run its BFS, then for
    each size and receiver set draw the receivers and count ``L`` and
    the unicast total — on the public per-sample API.  It consumes the
    source's stream in the same order as the batched runner, so the
    integer arrays must match :func:`runner._source_counts` exactly.
    """
    rng = np.random.default_rng(child_seed)
    source = int(rng.integers(0, graph.num_nodes))
    forest = bfs(
        graph, source, tie_break=tie_break,
        rng=rng if tie_break == "random" else None,
    )
    counter = MulticastTreeCounter(forest)
    exclude = source if exclude_source_site else None
    sample = (
        sample_distinct_receivers
        if mode == "distinct"
        else sample_receivers_with_replacement
    )
    links_list, totals_list = [], []
    for size in sizes:
        links = np.empty(num_receiver_sets, dtype=np.int64)
        totals = np.empty(num_receiver_sets, dtype=np.int64)
        for i in range(num_receiver_sets):
            receivers = sample(graph.num_nodes, size, source=exclude, rng=rng)
            links[i] = counter.tree_size(receivers)
            totals[i] = counter.unicast_total(receivers)
        links_list.append(links)
        totals_list.append(totals)
    return links_list, totals_list


def _per_size_partials(size_list, links_list, totals_list):
    """One source's share of :func:`runner._reduce_counts`, which must
    equal it bit for bit: each size reduced alone over its defined
    ratios."""
    out = [np.zeros(len(size_list)) for _ in range(4)]
    count = np.zeros(len(size_list), dtype=np.int64)
    for i, size in enumerate(size_list):
        mean_path = totals_list[i] / size
        valid = mean_path > 0
        kept = links_list[i][valid].astype(float)
        count[i] = int(np.count_nonzero(valid))
        out[0][i] = float(np.sum(kept / mean_path[valid]))
        out[1][i] = float(kept.sum())
        out[2][i] = float(np.sum(kept * kept))
        out[3][i] = float(mean_path[valid].sum())
    return (*out, count)


class TestPartialsFromCounts:
    @staticmethod
    def _counts(rng, size_list, rows, with_zero_paths):
        links_list = [
            rng.integers(1, 5000, size=rows) for _ in size_list
        ]
        totals_list = [
            rng.integers(1, 40 * size, size=rows) for size in size_list
        ]
        if with_zero_paths:
            # Receivers all at the source: ū = 0, the ratio undefined.
            totals_list[1][::3] = 0
            totals_list[3][:] = 0
        return links_list, totals_list

    @staticmethod
    def _assert_same(got, expected):
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("rows", [1, 7, 100, 8193, 20000])
    @pytest.mark.parametrize("with_zero_paths", [False, True])
    def test_matches_per_size_loop(self, rows, with_zero_paths):
        rng = np.random.default_rng(rows)
        size_list = [1, 3, 17, 250]
        counts = self._counts(rng, size_list, rows, with_zero_paths)
        self._assert_same(
            runner._reduce_counts(size_list, [counts]),
            _per_size_partials(size_list, *counts),
        )

    @pytest.mark.parametrize("rows", [1, 100, 8193])
    @pytest.mark.parametrize("mixed", [False, True])
    def test_sources_accumulate_in_source_order(self, rows, mixed):
        """Each source's per-size sums, added one source at a time in
        order, whether no source or only some have undefined ratios."""
        rng = np.random.default_rng(rows)
        size_list = [1, 3, 17, 250]
        source_counts = [
            self._counts(rng, size_list, rows, mixed and i % 3 == 1)
            for i in range(7)
        ]
        expected = [np.zeros(len(size_list)) for _ in range(4)]
        expected.append(np.zeros(len(size_list), dtype=np.int64))
        for counts in source_counts:
            for total, part in zip(
                expected, _per_size_partials(size_list, *counts)
            ):
                total += part
        self._assert_same(
            runner._reduce_counts(size_list, source_counts), expected
        )


class TestEngineEquivalence:
    @pytest.fixture(scope="class")
    def arpa(self):
        return build_topology("arpa", scale=1.0, rng=0)

    @staticmethod
    def _assert_sources_match_scalar(
        graph, sizes, mode, tie_break, exclude_source_site, num_sources,
        num_receiver_sets, seed,
    ):
        children = runner._spawn_seed_sequences(
            np.random.default_rng(seed), num_sources
        )
        for child in children:
            batched = runner._source_counts(
                graph, child, sizes, mode, num_receiver_sets, tie_break,
                exclude_source_site, use_cache=True,
            )
            scalar = _scalar_source_counts(
                graph, child, sizes, mode, num_receiver_sets, tie_break,
                exclude_source_site,
            )
            for got, expected in zip(batched, scalar):
                assert [a.tolist() for a in got] == [
                    a.tolist() for a in expected
                ]

    @pytest.mark.parametrize("mode", ["distinct", "replacement"])
    @pytest.mark.parametrize("tie_break", ["first", "random"])
    def test_arpanet_batched_equals_scalar(self, arpa, mode, tie_break):
        self._assert_sources_match_scalar(
            arpa, [1, 3, 7, 12], mode, tie_break,
            exclude_source_site=True, num_sources=4, num_receiver_sets=6,
            seed=3,
        )

    def test_engine_keyword_removed(self, arpa):
        # The runner has one execution path and no engine switch.
        with pytest.raises(TypeError):
            measure_sweep(arpa, [1], engine="scalar")
        with pytest.raises(TypeError):
            measure_single_source_sweep(arpa, 0, [1], engine="batched")

    def test_workers_bit_identical(self, arpa):
        sizes = [1, 4, 9]
        measurements = [
            measure_sweep(
                arpa,
                sizes,
                config=MonteCarloConfig(
                    num_sources=6, num_receiver_sets=5, seed=1,
                    num_workers=k,
                ),
                topology="arpa",
            )
            for k in (1, 4)
        ]
        assert measurements[0] == measurements[1]

    def test_source_site_inclusion_both_engines(self, arpa):
        # exclude_source_site=False lets receivers land on the source
        # (empty paths) — the corner the averaging fix covers; the
        # batched counts must match the per-sample loop there too.
        for mode in ("distinct", "replacement"):
            for tie_break in ("first", "random"):
                self._assert_sources_match_scalar(
                    arpa, [1, 5], mode, tie_break,
                    exclude_source_site=False, num_sources=3,
                    num_receiver_sets=8, seed=2,
                )

    def test_path_graph_exact_averages(self):
        # Hand-computable case: on the path 0-1-2 with source 0, the only
        # distinct 2-set is {1, 2}: tree links L = 2, mean unicast path
        # u = (1 + 2) / 2 = 1.5, so L/u = 4/3 exactly.  Every sample is
        # identical, so the averages are exact whatever the sample count.
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        m = measure_single_source_sweep(
            path, 0, [2], mode="distinct", num_receiver_sets=7, rng=0
        )
        assert m.mean_tree_size[0] == pytest.approx(2.0)
        assert m.mean_unicast_path[0] == pytest.approx(1.5)
        assert m.mean_ratio[0] == pytest.approx(2.0 / 1.5)
