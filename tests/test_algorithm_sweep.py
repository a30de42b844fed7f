"""The ``algorithm`` axis through the Monte-Carlo sweep engine.

Three contracts:

* ``algorithm="spt"`` is the identity: explicitly selecting the default
  produces float-for-float the same measurement as not passing the
  parameter at all — on the storeless path, on the distance-store path,
  and in the span attributes (no ``algorithm`` attr for SPT, so
  pre-existing traces stay byte-identical).
* Non-SPT sweeps ride the same batched samplers, so their results are
  bit-identical across ``num_workers`` ∈ {1, 2, 4} on a warm pool —
  the builders consume no randomness of their own.
* The axis is validated fail-fast and serialized end-to-end
  (measurement payloads, CSV, estimator tables).
"""

from __future__ import annotations

import csv

import numpy as np
import pytest

from repro.exceptions import ExperimentError
from repro.experiments.config import MonteCarloConfig
from repro.experiments.pool import shutdown_pool
from repro.experiments.results import (
    SweepMeasurement,
    save_measurements_csv,
)
from repro.experiments.runner import measure_sweep
from repro.multicast.builders import BUILDER_NAMES
from repro.serve.tables import EstimatorTable
from repro.topology.powerlaw import as_like_graph

SIZES = [1, 4, 16]


@pytest.fixture(scope="module")
def graph():
    return as_like_graph(400, rng=23)


def _config(**overrides):
    base = dict(num_sources=5, num_receiver_sets=4, seed=29)
    base.update(overrides)
    return MonteCarloConfig(**base)


class TestSptIsTheIdentity:
    def test_explicit_spt_equals_default_storeless(self, graph):
        base = measure_sweep(graph, SIZES, config=_config())
        explicit = measure_sweep(graph, SIZES, config=_config(), algorithm="spt")
        assert explicit == base
        assert explicit.algorithm == "spt"

    def test_explicit_spt_equals_default_with_distance_store(
        self, graph, tmp_path
    ):
        from repro.graph.distance_store import build_distance_store

        store = build_distance_store(graph, str(tmp_path / "alg.dist"))
        base = measure_sweep(graph, SIZES, config=_config(), distance_store=store)
        explicit = measure_sweep(
            graph,
            SIZES,
            config=_config(),
            distance_store=store,
            algorithm="spt",
        )
        assert explicit == base
        store.close()

    def test_spt_sweep_emits_no_algorithm_span_attr(self, graph):
        from repro.obs import start_tracing, stop_tracing

        collector = start_tracing()
        try:
            measure_sweep(graph, [4], config=_config(), algorithm="spt")
            measure_sweep(graph, [4], config=_config(), algorithm="steiner-tm")
        finally:
            stop_tracing()
        spans = [s for s in collector.export() if s["name"] == "runner.sweep"]
        assert len(spans) == 2
        assert "algorithm" not in spans[0]["attrs"]
        assert spans[1]["attrs"]["algorithm"] == "steiner-tm"


class TestNonSptSweeps:
    @pytest.mark.parametrize("algorithm", [n for n in BUILDER_NAMES if n != "spt"])
    def test_deterministic_across_worker_counts(self, graph, algorithm):
        results = []
        try:
            for workers in (1, 2, 4):
                results.append(
                    measure_sweep(
                        graph,
                        SIZES,
                        config=_config(num_workers=workers),
                        algorithm=algorithm,
                    )
                )
        finally:
            shutdown_pool()
        assert results[0] == results[1] == results[2]
        assert results[0].algorithm == algorithm

    @pytest.mark.parametrize("algorithm", ["steiner-tm", "dst-approx"])
    def test_same_draws_as_spt(self, graph, algorithm):
        """Non-SPT sweeps measure the *same* receiver draws as SPT.

        The batched samplers draw the full grid before the builders
        run, so the unicast-path series — a pure function of the draws
        — must match the SPT sweep's exactly, and the Steiner
        heuristics' best-of-SPT guard keeps every mean at or below SPT's.
        """
        spt = measure_sweep(graph, SIZES, config=_config())
        steiner = measure_sweep(graph, SIZES, config=_config(), algorithm=algorithm)
        assert steiner.mean_unicast_path == spt.mean_unicast_path
        assert np.all(
            np.asarray(steiner.mean_tree_size) <= np.asarray(spt.mean_tree_size)
        )

    def test_kdisjoint_counts_at_least_spt(self, graph):
        spt = measure_sweep(graph, SIZES, config=_config())
        kd = measure_sweep(graph, SIZES, config=_config(), algorithm="kdisjoint")
        assert np.all(
            np.asarray(kd.mean_tree_size) >= np.asarray(spt.mean_tree_size)
        )

    def test_unknown_algorithm_fails_fast(self, graph):
        with pytest.raises(ExperimentError, match="unknown tree algorithm"):
            measure_sweep(graph, [4], config=_config(), algorithm="kmb")


class TestSerialization:
    def test_payload_roundtrip_and_default(self, graph):
        tm = measure_sweep(graph, [4], config=_config(), algorithm="steiner-tm")
        assert SweepMeasurement.from_dict(tm.to_dict()) == tm
        legacy = tm.to_dict()
        del legacy["algorithm"]
        assert SweepMeasurement.from_dict(legacy).algorithm == "spt"

    def test_csv_has_algorithm_column_last(self, graph, tmp_path):
        tm = measure_sweep(graph, [4], config=_config(), algorithm="dst-approx")
        path = tmp_path / "sweep.csv"
        save_measurements_csv([tm], path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][-1] == "algorithm"
        assert rows[1][-1] == "dst-approx"

    def test_table_from_sweep_carries_algorithm(self, graph):
        table = EstimatorTable.from_sweep(
            graph,
            "as",
            config=_config(),
            rng=29,
            points_per_decade=2,
            algorithm="steiner-tm",
        )
        assert table.algorithm == "steiner-tm"
        assert table.to_dict()["algorithm"] == "steiner-tm"
        spt = EstimatorTable.from_sweep(
            graph, "as", config=_config(), rng=29, points_per_decade=2
        )
        assert spt.algorithm == "spt"
        assert np.all(table.tree_size <= spt.tree_size)
