"""Scale-tier topology tests: stream equivalence, CSR invariants, and
the million-node build/sample gate.

Three layers:

* **Equivalence** — the chunk-streaming generator's ``stream="loop"``
  replay must reproduce the retired per-node attach loop
  (:func:`_legacy_loop_reference`, kept here as the oracle) bit-for-bit
  (every historical seeded graph is a compatibility promise), checked
  over an explicit seeds × (n, m, fringe) grid and a Hypothesis sweep.
* **Invariants** — ``stream="vectorized"`` emits CSR directly with
  ``check=False``, so the canonical-form invariants (sorted rows,
  symmetry, no self-loops/duplicates) plus closed-form degree
  accounting are pinned here on randomly parameterized builds.
* **Scale** (``-m scale``, run by ``make scale-smoke``) — the ROADMAP
  item 2 gate: ``internet_like_graph(num_nodes=1_000_000)`` builds and
  a seeded sweep samples from it inside explicit peak-memory ceilings
  (``resource.getrusage`` RSS + ``tracemalloc`` python-allocation
  peak), with a hardware-aware relative speed floor like fleet-smoke's:
  the vectorized stream must beat the legacy loop by a fixed factor
  *on the same box*, whatever the box, and ``stream="loop"`` must still
  replay the legacy loop at the paper's 56k scale.
"""

from __future__ import annotations

import resource
import tracemalloc
from typing import List

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import TopologyError
from repro.graph.builders import GraphBuilder
from repro.graph.core import Graph
from repro.topology.powerlaw import (
    _plan,
    as_like_graph,
    internet_like_graph,
    preferential_attachment_graph,
)
from repro.utils.rng import RandomState, ensure_rng

# ---------------------------------------------------------------------------
# Memory ceilings for the scale tier (documented in docs/architecture.md).
# RSS covers the whole pytest process at the 1M high-water mark; the
# tracemalloc ceiling bounds python-level allocations of one vectorized
# 1M build (numpy block allocations only — the working-set contract).
# ---------------------------------------------------------------------------
SCALE_RSS_CEILING_MB = 3072
SCALE_TRACEMALLOC_CEILING_MB = 512
#: Hardware-aware floor: vectorized speedup over the legacy loop at 56k,
#: both timed on the machine running the test (~25-30x on a 2-vCPU VM).
SCALE_SPEEDUP_FLOOR = 10.0


def _legacy_loop_reference(
    num_nodes: int,
    edges_per_node: int = 2,
    fringe_fraction: float = 0.0,
    rng: RandomState = None,
) -> Graph:
    """The pre-streaming per-node attach loop, kept verbatim as the
    reference implementation for the equivalence suite and speed floor.

    Unbounded Python endpoint list, per-node Python sets, builder pass —
    everything the streaming generator replaced.  ``stream="loop"``
    must reproduce its output bit-for-bit for any seed.
    """
    num_core, seed_size, _, _ = _plan(num_nodes, edges_per_node, fringe_fraction)
    generator = ensure_rng(rng)

    builder = GraphBuilder(num_nodes, strict=False)
    endpoint_pool: List[int] = []
    for u in range(seed_size):
        for v in range(u + 1, seed_size):
            builder.add_edge(u, v)
            endpoint_pool.extend((u, v))

    def attach(node: int, num_edges: int) -> None:
        targets: set = set()
        while len(targets) < num_edges:
            candidate = endpoint_pool[int(generator.integers(0, len(endpoint_pool)))]
            if candidate != node:
                targets.add(candidate)
        for target in targets:
            builder.add_edge(node, target)
            endpoint_pool.extend((node, target))

    for node in range(seed_size, num_core):
        attach(node, edges_per_node)
    for node in range(num_core, num_nodes):
        attach(node, 1)
    return builder.to_graph()


def _graphs_equal(a: Graph, b: Graph) -> bool:
    return (
        a.num_nodes == b.num_nodes
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
    )


def _expected_edges(n: int, m: int, fringe: float) -> int:
    num_fringe = int(round(n * fringe))
    num_core = n - num_fringe
    seed_size = m + 1
    return seed_size * (seed_size - 1) // 2 + m * (num_core - seed_size) + num_fringe


@st.composite
def pa_params(draw, max_nodes: int = 160):
    """(n, m, fringe) satisfying the generator's validity constraints."""
    m = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=m + 2, max_value=max_nodes))
    fringe = draw(
        st.sampled_from([0.0, 0.1, 0.2, 0.35, 0.5])
    )
    num_core = n - int(round(n * fringe))
    if num_core < m + 1:
        fringe = 0.0
    return n, m, fringe


class TestLoopStreamEquivalence:
    """``stream="loop"`` is a bit-identical replay of the legacy loop."""

    GRID_SEEDS = (0, 1, 2)
    GRID_PARAMS = (
        (2, 1, 0.0),
        (50, 2, 0.35),
        (64, 4, 0.2),
        (100, 1, 0.0),
        (313, 3, 0.4),
        (2000, 2, 0.35),
    )

    @pytest.mark.parametrize("params", GRID_PARAMS)
    @pytest.mark.parametrize("seed", GRID_SEEDS)
    def test_grid(self, seed, params):
        n, m, fringe = params
        legacy = _legacy_loop_reference(n, m, fringe, rng=seed)
        streamed = preferential_attachment_graph(
            n, m, fringe, rng=seed, stream="loop"
        )
        assert _graphs_equal(legacy, streamed)

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(params=pa_params(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_hypothesis_sweep(self, params, seed):
        n, m, fringe = params
        legacy = _legacy_loop_reference(n, m, fringe, rng=seed)
        streamed = preferential_attachment_graph(
            n, m, fringe, rng=seed, stream="loop"
        )
        assert _graphs_equal(legacy, streamed)

    def test_default_stream_is_loop(self):
        default = preferential_attachment_graph(80, 2, 0.25, rng=9)
        explicit = preferential_attachment_graph(
            80, 2, 0.25, rng=9, stream="loop"
        )
        assert _graphs_equal(default, explicit)

    def test_wrappers_preserve_historical_graphs(self):
        assert _graphs_equal(
            internet_like_graph(400, rng=5),
            _legacy_loop_reference(400, 2, 0.35, rng=5),
        )
        assert _graphs_equal(
            as_like_graph(300, rng=5),
            _legacy_loop_reference(300, 2, 0.0, rng=5),
        )


class TestVectorizedStream:
    """The vectorized stream: valid CSR, right shape, its own contract."""

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(params=pa_params(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_csr_invariants(self, params, seed):
        n, m, fringe = params
        graph = preferential_attachment_graph(
            n, m, fringe, rng=seed, stream="vectorized"
        )
        # Re-validating re-runs the full canonical-form check: sorted
        # rows, symmetry, no self-loops, no duplicate arcs.
        Graph(graph.num_nodes, graph.indptr, graph.indices, check=True)
        # Degree accounting: the edge count is closed-form deterministic
        # (each node adds exactly its quota of distinct targets).
        assert graph.indices.size == 2 * _expected_edges(n, m, fringe)
        degrees = np.diff(graph.indptr)
        assert degrees.min() >= 1

    def test_deterministic(self):
        a = preferential_attachment_graph(
            500, 2, 0.35, rng=42, stream="vectorized"
        )
        b = preferential_attachment_graph(
            500, 2, 0.35, rng=42, stream="vectorized"
        )
        assert _graphs_equal(a, b)

    def test_is_a_distinct_documented_stream(self):
        # The two streams consume randomness differently; the contract
        # is explicit selection, not accidental agreement.
        loop = preferential_attachment_graph(500, 2, 0.35, rng=42, stream="loop")
        fast = preferential_attachment_graph(
            500, 2, 0.35, rng=42, stream="vectorized"
        )
        assert not _graphs_equal(loop, fast)

    def test_chunk_boundaries_are_exercised(self):
        # A build larger than one chunk must still satisfy every
        # invariant (in-chunk chain-chasing and duplicate repair both
        # cross this path).
        from repro.topology import powerlaw

        assert powerlaw._VECTOR_CHUNK_NODES < 50_000  # the 56k map spans chunks
        graph = preferential_attachment_graph(
            powerlaw._VECTOR_CHUNK_NODES + 1_000,
            2,
            0.35,
            rng=3,
            stream="vectorized",
        )
        Graph(graph.num_nodes, graph.indptr, graph.indices, check=True)

    def test_unknown_stream_rejected(self):
        with pytest.raises(TopologyError, match="stream"):
            preferential_attachment_graph(10, 2, rng=0, stream="turbo")


@pytest.mark.scale
@pytest.mark.wallclock
class TestMillionNodeScale:
    """ROADMAP item 2: million-node build + sample under memory ceilings.

    Run via ``make scale-smoke`` (its own process, so the RSS high-water
    mark is this suite's); excluded from ``make test-fast``.
    """

    def test_million_node_build_and_seeded_sweep(self, tmp_path):
        import time

        from repro.experiments.config import MonteCarloConfig
        from repro.experiments.runner import measure_sweep
        from repro.graph.distance_store import build_distance_store

        # The acceptance criterion, literally: the default (loop-stream)
        # internet map builds at n = 1M with a bounded working set.
        graph = internet_like_graph(num_nodes=1_000_000, rng=0)
        assert graph.num_nodes == 1_000_000
        assert graph.indices.size == 2 * _expected_edges(1_000_000, 2, 0.35)

        # The vectorized stream under tracemalloc: the python-level
        # allocation peak bounds the generator's working set.
        tracemalloc.start()
        fast = internet_like_graph(
            num_nodes=1_000_000, rng=0, stream="vectorized"
        )
        _, tm_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert fast.num_nodes == 1_000_000
        assert tm_peak <= SCALE_TRACEMALLOC_CEILING_MB * (1 << 20), (
            f"vectorized 1M build allocated {tm_peak / (1 << 20):.0f} MB "
            f"(ceiling {SCALE_TRACEMALLOC_CEILING_MB} MB)"
        )

        # Precompute a distance store and run a seeded sweep against it.
        store = build_distance_store(
            fast,
            str(tmp_path / "million.dist"),
            sources=list(range(0, 64, 8)),
            generation=1,
        )
        config = MonteCarloConfig(num_sources=4, num_receiver_sets=4, seed=20260808)
        sweep = measure_sweep(
            fast,
            [1, 10, 100, 1000],
            mode="distinct",
            config=config,
            topology="internet-1M",
            distance_store=store,
        )
        assert sweep.num_nodes == 1_000_000
        assert all(v > 0 for v in sweep.mean_tree_size)
        store.close()
        store.unlink()

        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        assert rss_mb <= SCALE_RSS_CEILING_MB, (
            f"scale tier peaked at {rss_mb:.0f} MB RSS "
            f"(ceiling {SCALE_RSS_CEILING_MB} MB)"
        )

        # Hardware-aware speed floor (same-box relative measurement,
        # like fleet-smoke's): vectorized vs the retired legacy loop.
        t0 = time.perf_counter()
        legacy = _legacy_loop_reference(56_000, 2, 0.35, rng=1)
        legacy_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        internet_like_graph(56_000, rng=1, stream="vectorized")
        fast_s = time.perf_counter() - t0
        speedup = legacy_s / fast_s
        assert speedup >= SCALE_SPEEDUP_FLOOR, (
            f"vectorized 56k build is only {speedup:.1f}x the legacy loop "
            f"(floor {SCALE_SPEEDUP_FLOOR}x)"
        )
        # The replay contract at the paper's scale, not just the grid's.
        assert _graphs_equal(
            legacy, internet_like_graph(56_000, rng=1, stream="loop")
        )
