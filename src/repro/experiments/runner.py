"""The Monte-Carlo measurement engine (the paper's Section-2 methodology).

For each of ``Nsource`` random sources (drawn with replacement): run one
BFS; then for each swept group size and each of ``Nrcvr`` receiver sets,
draw the receivers, count the delivery-tree links ``L`` and the average
unicast path ``ū`` of the sample, and record the ratio ``L/ū``.  The
reported value per group size is the average over the samples that
produced a well-defined ratio (a sample whose receivers all sit on the
source has ``ū = 0`` and is excluded from the divisor as well as the
numerator — possible only when the source site is eligible).

Both receiver conventions are supported: ``mode="distinct"`` (the
Chuang-Sirbu ``L(m)``) and ``mode="replacement"`` (the analytical
``L̂(n)``).  Each source uses its own spawned RNG stream, so results do
not depend on iteration order and sub-sweeps are reproducible.

Execution
---------
Per (source, size) the runner draws the whole ``Nrcvr × size`` receiver
matrix in O(1) RNG calls (:mod:`repro.multicast.sampling`), then counts
the source's entire sweep — every size, every receiver set — in one call
(:meth:`repro.multicast.tree.MulticastTreeCounter.count_trees_and_unicast`).
That call picks one of two exact paths.  On a forest that keeps
preorder tables, or with at least
``MulticastTreeCounter._PREORDER_MIN_DENSITY`` (2, measured) receivers
per reachable node — the paper's sweep brings ~43 — it sorts each row's
preorder ranks and reads ``L = Σ depth(rᵢ) + (m − 1) − Σ min depth over
(rᵢ₋₁, rᵢ]`` from a range-min table.  A sparser call on a cached forest
handed out before builds those tables and the forest keeps them; other
sparse calls, such as store-backed million-node sweeps, take one flat
vectorized ancestor walk.
The batched samplers consume the same random stream as repeated
one-sample draws, so the counts are **bit-identical** to the
one-sample-at-a-time loop of the methodology (the tier-1 suite keeps
that loop as an oracle).

Setting ``MonteCarloConfig.num_workers > 1`` fans the
(source × receiver-set) grid out over the process-wide persistent pool
(:mod:`repro.experiments.pool`): workers attach once to the topology
via shared memory, tasks return raw integer counts, and the parent
stitches them into the per-source arrays the serial path computes
before running the identical float reduction in source order — so the
result is bit-identical for any worker count (``num_workers=0`` means
one worker per CPU).

BFS forests for ``tie_break="first"`` are served from the process-wide
:class:`repro.graph.forest_cache.ForestCache`, keyed by graph content —
figure drivers that rebuild the same topology reuse each other's
forests.  ``tie_break="random"`` consumes the per-source stream and is
never cached.
"""

from __future__ import annotations

import logging
from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.exceptions import ExperimentError
from repro.graph.core import Graph
from repro.graph.distance_store import (
    DistanceStore,
    DistanceStoreDescriptor,
    attach_distance_store,
)
from repro.graph.forest_cache import default_forest_cache
from repro.graph.ops import require_connected
from repro.graph.paths import bfs
from repro.multicast.sampling import (
    sample_distinct_receivers_sweep,
    sample_receivers_with_replacement_sweep,
)
from repro.multicast import builders
from repro.multicast.tree import MulticastTreeCounter
from repro.experiments.config import MonteCarloConfig
from repro.experiments.pool import (
    _MAX_SEGMENTS,
    resolve_workers,
    run_sweep_chunks,
)
from repro.experiments.results import SweepMeasurement
from repro.utils.rng import RandomState, ensure_rng

__all__ = ["measure_sweep", "measure_single_source_sweep"]

logger = logging.getLogger("repro.experiments")

_MODES = ("distinct", "replacement")

_OBS_SWEEPS = obs.counter(
    "repro_runner_sweeps_total",
    "Monte-Carlo sweeps completed.",
    labelnames=("mode",),
)
_OBS_SAMPLES = obs.counter(
    "repro_runner_samples_total",
    "Receiver-set samples measured (sources x receiver sets x sizes).",
)
_OBS_CHUNKS = obs.counter(
    "repro_runner_chunks_total",
    "Source chunks by execution path: worker processes, the serial "
    "fallback, or an inline recompute after a worker died.",
    labelnames=("path",),
)
_OBS_RATE = obs.gauge(
    "repro_runner_samples_per_second",
    "Throughput of the most recently traced sweep; only updated while "
    "a trace collector is armed (spans own the clock — see RR009).",
)


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ExperimentError(f"mode must be one of {_MODES}, got {mode!r}")


def _spawn_seed_sequences(
    master: np.random.Generator, count: int
) -> List[np.random.SeedSequence]:
    """Children of the master's seed sequence (one per source).

    SeedSequences — unlike live generators — are cheap to ship to worker
    processes and reconstruct the exact per-source streams there.
    """
    seed_seq = master.bit_generator.seed_seq  # type: ignore[attr-defined]
    if seed_seq is None:  # pragma: no cover - legacy bit generators
        seed_seq = np.random.SeedSequence(int(master.integers(2**63)))
    return list(seed_seq.spawn(count))


def _count_samples(
    counter: MulticastTreeCounter,
    source_rng: np.random.Generator,
    num_nodes: int,
    size_list: Sequence[int],
    num_receiver_sets: int,
    mode: str,
    exclude: Optional[int],
    row_slice: Optional[Tuple[int, int]] = None,
    algorithm: str = "spt",
    graph: Optional[Graph] = None,
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Per-size links and unicast totals for one source's whole sweep.

    Every size of the sweep is counted in one batched call, by the
    climb or the preorder path, whichever the call's density picks.  The
    batched samplers are stream-compatible with repeated one-sample
    draws and counting draws nothing, so the integer arrays equal those
    of a sample-at-a-time loop over the same stream.

    ``row_slice=(lo, hi)`` restricts the *counted* receiver-set rows
    while the full grid is still drawn — the stream a source consumes
    never depends on the slice, so any row partition of a source
    re-assembles into exactly the full-row arrays (how the worker pool
    splits one source across workers).

    A non-``"spt"`` ``algorithm`` (a :mod:`repro.multicast.builders`
    registry key; requires ``graph``) draws the *identical* receiver
    stream and swaps only the counting step: links come from the named
    builder, while the unicast baseline ``ū`` stays the SPT distances —
    the paper's denominator is the unicast path, whatever tree carries
    the multicast copies.  Builders consume no randomness, so
    worker-count determinism is preserved as-is.
    """
    lo, hi = (0, num_receiver_sets) if row_slice is None else row_slice
    if mode == "distinct":
        matrices = sample_distinct_receivers_sweep(
            num_nodes, size_list, num_receiver_sets,
            source=exclude, rng=source_rng,
        )
    else:
        matrices = sample_receivers_with_replacement_sweep(
            num_nodes, size_list, num_receiver_sets,
            source=exclude, rng=source_rng,
        )
    sliced = [matrix[lo:hi] for matrix in matrices]
    if algorithm == "spt":
        return counter.count_trees_and_unicast(sliced)
    links_list = [
        builders.count_tree_links(
            algorithm, graph, counter.source, matrix, forest=counter.forest,
        )
        for matrix in sliced
    ]
    totals_list = [counter.unicast_totals_batch(matrix) for matrix in sliced]
    return links_list, totals_list


#: Process-local distance-store attachments, keyed by (path, generation).
#: Workers receive a :class:`DistanceStoreDescriptor` per task (the mmap
#: itself never crosses the process boundary) and re-attach once here.
#: LRU-bounded like the pool's graph attachments: an evicted store's
#: mapping dies with its last row view.
_STORE_CACHE: "OrderedDict[Tuple[str, int], DistanceStore]" = OrderedDict()


def _resolve_store(
    store: Optional[Union[DistanceStore, DistanceStoreDescriptor]],
) -> Optional[DistanceStore]:
    if store is None or isinstance(store, DistanceStore):
        return store
    key = (store.path, store.generation)
    attached = _STORE_CACHE.get(key)
    if attached is None:
        attached = attach_distance_store(store)
        _STORE_CACHE[key] = attached
        while len(_STORE_CACHE) > _MAX_SEGMENTS:
            _STORE_CACHE.popitem(last=False)
    else:
        _STORE_CACHE.move_to_end(key)
    return attached


def _source_forest(
    graph: Graph,
    source: int,
    tie_break: str,
    source_rng: np.random.Generator,
    use_cache: bool,
):
    if tie_break == "random":
        # The random tie-break draws from the per-source stream; caching
        # would either skip those draws or key on transient state.
        return bfs(graph, source, tie_break="random", rng=source_rng)
    if use_cache:
        return default_forest_cache().forest(graph, source, tie_break="first")
    return bfs(graph, source, tie_break="first")


def _source_draw(
    graph: Graph,
    child_seed: np.random.SeedSequence,
    distance_store: Optional[
        Union[DistanceStore, DistanceStoreDescriptor]
    ] = None,
) -> Tuple[np.random.Generator, int]:
    """One source's generator and its source pick, the stream's first draw.

    On a *complete* store the pick consumes the stream identically to
    the storeless path, so the whole sweep stays bit-identical (see
    :meth:`DistanceStore.pick_source`).
    """
    source_rng = ensure_rng(child_seed)
    store = _resolve_store(distance_store)
    if store is not None:
        return source_rng, store.pick_source(source_rng)
    return source_rng, int(source_rng.integers(0, graph.num_nodes))


def _draw_counts(
    graph: Graph,
    source_rng: np.random.Generator,
    source: int,
    size_list: Sequence[int],
    mode: str,
    num_receiver_sets: int,
    tie_break: str,
    exclude_source_site: bool,
    use_cache: bool,
    algorithm: str = "spt",
    distance_store: Optional[
        Union[DistanceStore, DistanceStoreDescriptor]
    ] = None,
    row_slice: Optional[Tuple[int, int]] = None,
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Raw counts for one source already picked by :func:`_source_draw`.

    With a ``distance_store`` the source's forest comes from the mmap'd
    rows instead of a fresh BFS.
    """
    store = _resolve_store(distance_store)
    if store is not None:
        forest = store.forest(source)
    else:
        forest = _source_forest(graph, source, tie_break, source_rng, use_cache)
    counter = MulticastTreeCounter(forest)
    exclude = source if exclude_source_site else None
    return _count_samples(
        counter, source_rng, graph.num_nodes, size_list,
        num_receiver_sets, mode, exclude, row_slice, algorithm, graph,
    )


def _source_counts(
    graph: Graph,
    child_seed: np.random.SeedSequence,
    size_list: Sequence[int],
    mode: str,
    num_receiver_sets: int,
    tie_break: str,
    exclude_source_site: bool,
    use_cache: bool,
    algorithm: str = "spt",
    distance_store: Optional[
        Union[DistanceStore, DistanceStoreDescriptor]
    ] = None,
    row_slice: Optional[Tuple[int, int]] = None,
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Raw per-size (links, unicast-total) counts for one source.

    This is the integer half of a source's contribution — what worker
    processes ship back.  Keeping the hand-off integral is what makes
    grid chunking bit-identical: float summation is non-associative, so
    the parent must see the same arrays the serial path feeds to
    :func:`_reduce_counts`, however the rows were split.  The serial
    path runs the two steps apart instead, every :func:`_source_draw`
    before its first count; that changes no stream, because the pick is
    each stream's first draw.
    """
    source_rng, source = _source_draw(graph, child_seed, distance_store)
    return _draw_counts(
        graph, source_rng, source, size_list, mode, num_receiver_sets,
        tie_break, exclude_source_site, use_cache, algorithm,
        distance_store, row_slice,
    )


def _reduce_counts(
    size_list: Sequence[int],
    source_counts: Sequence[Tuple[Sequence[np.ndarray], Sequence[np.ndarray]]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The float half: per-size sums over every source's counts.

    ``source_counts`` holds one ``(links_list, totals_list)`` per
    source, in source order.  Returns ``(ratio_sum, tree_sum,
    tree_sq_sum, path_sum, count)`` arrays over the swept sizes;
    ``count`` holds the number of samples whose ratio was well-defined
    (``ū > 0``).  Each source's rows are summed alone and the row sums
    accumulate in source order, so the floats do not depend on how the
    work was laid out.
    """
    # Every source and size has the same rows, so the counts stack into
    # (num_sources, num_sizes, rows) arrays.
    links = np.array([pair[0] for pair in source_counts], dtype=float)
    totals = np.array([pair[1] for pair in source_counts])
    mean_path = totals / np.array(size_list)[:, None]
    if (mean_path > 0).all():
        # Every ratio is defined (always, when the source site is
        # excluded).  Sums along the contiguous last axis are the same
        # pairwise sums as np.sum over each row alone.
        row_sums = np.stack((
            np.sum(links / mean_path, axis=2),
            links.sum(axis=2),
            np.sum(links * links, axis=2),
            mean_path.sum(axis=2),
        ), axis=1)
        count = np.full(
            len(size_list), links.shape[0] * links.shape[2], dtype=np.int64
        )
    else:
        # Some sample's receivers all sit on the source (ū = 0): reduce
        # each (source, size) row over its defined ratios alone.
        row_sums = np.zeros((links.shape[0], 4, len(size_list)))
        count = np.zeros(len(size_list), dtype=np.int64)
        for src, size_idx in np.ndindex(*links.shape[:2]):
            valid = mean_path[src, size_idx] > 0
            kept = links[src, size_idx][valid]
            paths = mean_path[src, size_idx][valid]
            count[size_idx] += kept.size
            row_sums[src, :, size_idx] = (
                np.sum(kept / paths),
                kept.sum(),
                np.sum(kept * kept),
                paths.sum(),
            )
    sums = np.zeros((4, len(size_list)))
    for part in row_sums:
        sums += part
    ratio_sum, tree_sum, tree_sq_sum, path_sum = sums
    return ratio_sum, tree_sum, tree_sq_sum, path_sum, count


def measure_sweep(
    graph: Graph,
    sizes: Sequence[int],
    mode: str = "distinct",
    config: Optional[MonteCarloConfig] = None,
    topology: str = "graph",
    exclude_source_site: bool = True,
    rng: RandomState = None,
    use_cache: bool = True,
    distance_store: Optional[
        Union[DistanceStore, DistanceStoreDescriptor]
    ] = None,
    algorithm: str = "spt",
) -> SweepMeasurement:
    """Measure averaged tree sizes over a sweep of group sizes.

    Parameters
    ----------
    graph:
        A connected topology.
    sizes:
        Group sizes (m for ``"distinct"``, n for ``"replacement"``),
        strictly positive.  For ``"distinct"`` no size may exceed the
        eligible-site count.
    mode:
        Receiver convention (see module docs).
    config:
        Monte-Carlo settings; defaults to :class:`MonteCarloConfig`'s
        paper values.  ``config.num_workers`` selects process
        parallelism over the persistent pool (0 = one worker per CPU;
        bit-identical for every worker count).
    topology:
        Name recorded in the result.
    exclude_source_site:
        Keep receivers off the source node (the default convention; the
        source-site ablation flips this).
    rng:
        Overrides ``config.seed`` when given.
    use_cache:
        Serve ``tie_break="first"`` forests from the process-wide
        :class:`~repro.graph.forest_cache.ForestCache`.
    distance_store:
        A :class:`~repro.graph.distance_store.DistanceStore` (or its
        descriptor) holding precomputed BFS rows for this graph.
        Sources are drawn from the store's rows instead of running BFS
        per source — on a *complete* store (one row per node) the draws
        and results are bit-identical to the storeless path; a partial
        store samples uniformly over its rows (a different, documented
        stream).  Requires ``tie_break="first"`` (the stored parents
        are first-parent forests).
    algorithm:
        Tree-construction discipline, a
        :mod:`repro.multicast.builders` registry key (default
        ``"spt"``, the paper's shortest-path trees — bit-identical to
        every pre-existing result).  Other algorithms draw the same
        receiver stream and count links through the registered builder
        instead, and the unicast baseline stays the SPT distances (see :func:`_count_samples`).
    """
    _check_mode(mode)
    builders.builder_spec(algorithm)  # unknown names fail fast
    config = config or MonteCarloConfig()
    config.validate()
    require_connected(graph, "measure_sweep")
    store = _resolve_store(distance_store)
    if store is not None:
        if config.tie_break != "first":
            raise ExperimentError(
                "distance_store rows are first-parent forests; "
                f"tie_break={config.tie_break!r} cannot be served from them"
            )
        if not store.has_parents:
            raise ExperimentError(
                "distance_store was built without parent rows; tree "
                "counting needs include_parents=True"
            )
        store.check_graph(graph)

    size_list = [int(s) for s in sizes]
    if not size_list or min(size_list) < 1:
        raise ExperimentError("sizes must be positive and non-empty")
    eligible = graph.num_nodes - (1 if exclude_source_site else 0)
    if mode == "distinct" and max(size_list) > eligible:
        raise ExperimentError(
            f"distinct sweep asks for {max(size_list)} receivers but only "
            f"{eligible} sites are eligible"
        )

    # 0 = auto (one worker per CPU); the grid bounds useful parallelism.
    num_workers = min(
        resolve_workers(config.num_workers),
        config.num_sources * config.num_receiver_sets,
    )
    # Workers get the picklable descriptor (they re-attach the mmap
    # once, in _resolve_store); the serial path keeps the live store.
    store_token = (
        store.descriptor if store is not None and num_workers > 1 else store
    )
    task_args = (
        size_list, mode, config.num_receiver_sets, config.tie_break,
        exclude_source_site, use_cache, algorithm, store_token,
    )
    span_attrs = dict(
        topology=topology,
        mode=mode,
        workers=num_workers,
        workers_requested=config.num_workers,
        sources=config.num_sources,
        sizes=len(size_list),
    )
    # Only tagged when non-default, keeping pre-existing traces
    # byte-identical for every "spt" sweep.
    if algorithm != "spt":
        span_attrs["algorithm"] = algorithm
    sweep_span = obs.span("runner.sweep", **span_attrs)
    with sweep_span:
        # The runner's own stages carry a layer, like the layers they
        # sit between; neither wraps a call into another layer.
        with obs.span("runner.seeds", layer=1):
            master = ensure_rng(rng if rng is not None else config.seed)
            children = _spawn_seed_sequences(master, config.num_sources)
            # The serial path makes every generator and source pick up
            # front, while their code is warm, instead of between counts
            # (workers make their own).
            draws = [] if num_workers > 1 else [
                _source_draw(graph, child, store) for child in children
            ]
        if num_workers > 1:
            source_counts = run_sweep_chunks(
                graph, children, config.num_receiver_sets, num_workers,
                _source_counts, task_args,
            )
        else:
            with obs.span("runner.chunk", chunk=0, sources=len(children)):
                source_counts = [
                    _draw_counts(graph, source_rng, source, *task_args)
                    for source_rng, source in draws
                ]
            _OBS_CHUNKS.inc(path="serial")
        with obs.span("runner.reduce", layer=1):
            sums = _reduce_counts(size_list, source_counts)
        total_samples = (
            config.num_sources * config.num_receiver_sets * len(size_list)
        )
        _OBS_SWEEPS.inc(mode=mode)
        _OBS_SAMPLES.inc(total_samples)
        sweep_span.set(samples=total_samples)
    # Only spans may read the clock (RR009), so throughput exists only
    # when a collector is armed: a disarmed span has no duration.
    elapsed = sweep_span.duration
    if elapsed:
        _OBS_RATE.set(total_samples / elapsed)

    ratio_sum, tree_sum, tree_sq_sum, path_sum, counts = sums

    divisor = np.maximum(counts, 1)  # all-skipped sizes report 0.0
    mean_tree = tree_sum / divisor
    variance = np.maximum(tree_sq_sum / divisor - mean_tree**2, 0.0)
    return SweepMeasurement(
        topology=topology,
        mode=mode,
        sizes=tuple(size_list),
        mean_ratio=tuple((ratio_sum / divisor).tolist()),
        mean_tree_size=tuple(mean_tree.tolist()),
        mean_unicast_path=tuple((path_sum / divisor).tolist()),
        std_tree_size=tuple(np.sqrt(variance).tolist()),
        num_samples=config.num_sources * config.num_receiver_sets,
        num_nodes=graph.num_nodes,
        algorithm=algorithm,
    )


def measure_single_source_sweep(
    graph: Graph,
    source: int,
    sizes: Sequence[int],
    mode: str = "replacement",
    num_receiver_sets: int = 100,
    tie_break: str = "first",
    exclude_source_site: bool = True,
    rng: RandomState = None,
    use_cache: bool = True,
) -> SweepMeasurement:
    """Like :func:`measure_sweep` but for one fixed source.

    Used by the k-ary-tree validations (the source is the root by
    construction) and by per-source diagnostics.  Tree-size statistics
    average over every sample; the ratio averages over the samples where
    it is defined (``ū > 0``).
    """
    _check_mode(mode)
    require_connected(graph, "measure_single_source_sweep")
    source = graph.check_node(source)
    config = MonteCarloConfig(
        num_sources=1,
        num_receiver_sets=num_receiver_sets,
        tie_break=tie_break,
        seed=None,
    )
    config.validate()
    generator = ensure_rng(rng)
    size_list = [int(s) for s in sizes]
    if not size_list or min(size_list) < 1:
        raise ExperimentError("sizes must be positive and non-empty")

    forest = _source_forest(graph, source, tie_break, generator, use_cache)
    counter = MulticastTreeCounter(forest)
    exclude = source if exclude_source_site else None

    ratios, trees, paths, stds = [], [], [], []
    with obs.span(
        "runner.single_source",
        source=source,
        mode=mode,
        sizes=len(size_list),
    ):
        links_list, totals_list = _count_samples(
            counter, generator, graph.num_nodes, size_list,
            num_receiver_sets, mode, exclude,
        )
    _OBS_SAMPLES.inc(num_receiver_sets * len(size_list))
    for size_idx, size in enumerate(size_list):
        links = links_list[size_idx]
        mean_path = totals_list[size_idx] / size
        valid = mean_path > 0
        num_valid = int(np.count_nonzero(valid))
        ratio_total = float(np.sum(links[valid] / mean_path[valid]))
        ratios.append(ratio_total / num_valid if num_valid else 0.0)
        trees.append(float(links.mean()))
        paths.append(float(mean_path.mean()))
        stds.append(float(links.std(ddof=0)))

    return SweepMeasurement(
        topology=f"source-{source}",
        mode=mode,
        sizes=tuple(size_list),
        mean_ratio=tuple(ratios),
        mean_tree_size=tuple(trees),
        mean_unicast_path=tuple(paths),
        std_tree_size=tuple(stds),
        num_samples=num_receiver_sets,
        num_nodes=graph.num_nodes,
    )
