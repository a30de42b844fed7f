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

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments import runner
from repro.experiments.config import MonteCarloConfig
from repro.experiments.runner import measure_single_source_sweep, measure_sweep
from repro.graph.core import Graph
from repro.graph.paths import bfs
from repro.multicast.sampling import (
    sample_distinct_receivers,
    sample_distinct_receivers_sweep,
    sample_receivers_with_replacement,
    sample_receivers_with_replacement_sweep,
)
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
    """A counter plus a receiver matrix (duplicates deliberately allowed)."""
    graph = draw(connected_graphs())
    source = draw(st.integers(min_value=0, max_value=graph.num_nodes - 1))
    tie_break = draw(st.sampled_from(["first", "random"]))
    forest = bfs(
        graph,
        source,
        tie_break=tie_break,
        rng=draw(st.integers(0, 3)) if tie_break == "random" else None,
    )
    num_sets = draw(st.integers(min_value=1, max_value=5))
    size = draw(st.integers(min_value=1, max_value=graph.num_nodes))
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
    )
    return MulticastTreeCounter(forest), matrix


# ---------------------------------------------------------------------------
# Layer 1: vectorized tree counting
# ---------------------------------------------------------------------------


class TestBatchedCounting:
    @given(case=counting_cases())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_tree_sizes_batch_matches_scalar_loop(self, case):
        counter, matrix = case
        batched = counter.tree_sizes_batch(matrix)
        scalar = [counter.tree_size(row) for row in matrix]
        assert batched.tolist() == scalar

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
        # Split into two blocks to exercise the multi-block walk.
        cut = matrix.shape[0] // 2
        blocks = [b for b in (matrix[:cut], matrix[cut:]) if b.shape[0]]
        links, totals = counter.count_trees_and_unicast(blocks)
        assert len(links) == len(blocks) == len(totals)
        for block, block_links, block_totals in zip(blocks, links, totals):
            assert block_links.tolist() == counter.tree_sizes_batch(
                block
            ).tolist()
            assert block_totals.tolist() == counter.unicast_totals_batch(
                block
            ).tolist()

    def test_chunked_walk_matches_unchunked(self):
        """Forcing tiny walk chunks must not change any count."""
        graph = build_topology("internet", scale=0.05, rng=0)
        forest = bfs(graph, 0)
        counter = MulticastTreeCounter(forest)
        rng = np.random.default_rng(7)
        matrix = rng.integers(0, graph.num_nodes, size=(64, 17))
        expected = counter.tree_sizes_batch(matrix)
        tiny = MulticastTreeCounter(forest)
        tiny._WALK_SCRATCH_BYTES = 4 * tiny._key_span  # one row per chunk
        assert tiny.tree_sizes_batch(matrix).tolist() == expected.tolist()


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
    ``num_sets`` covers the single-set path (``1``) and the vectorized
    one (``> 1``) in each.
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
