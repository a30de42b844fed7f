"""Tests for the extension drivers: shared-tree study, popularity, churn,
weighted-links ablation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.config import MonteCarloConfig, SweepConfig
from repro.experiments.figures import (
    run_churn_study,
    run_popularity_study,
    run_shared_tree_study,
    run_weighted_links_ablation,
)

QUICK = MonteCarloConfig(num_sources=3, num_receiver_sets=4, seed=0)


class TestSharedTreeStudy:
    @pytest.fixture(scope="class")
    def result(self):
        return run_shared_tree_study(
            topology="ts1000", scale=0.2, config=QUICK,
            sweep=SweepConfig(points=5), rng=0,
        )

    def test_four_series(self, result):
        assert len(result.series) == 4
        assert "source tree" in result.series_names

    def test_shared_at_least_source_on_average(self, result):
        source = np.asarray(result.get_series("source tree").y)
        for strategy in ("random", "max-degree", "min-distance-sample"):
            shared = np.asarray(result.get_series(f"shared ({strategy})").y)
            assert shared.mean() >= source.mean() * 0.95

    def test_overhead_notes_present(self, result):
        for strategy in ("random", "max-degree", "min-distance-sample"):
            assert f"overhead[{strategy}]" in result.notes

    def test_overhead_shrinks_with_group_size(self, result):
        source = np.asarray(result.get_series("source tree").y)
        shared = np.asarray(
            result.get_series("shared (min-distance-sample)").y
        )
        ratio = shared / source
        assert ratio[-1] <= ratio[0] + 0.1


class TestPopularityStudy:
    def test_skew_zero_is_baseline_and_skew_flattens(self):
        result = run_popularity_study(
            topology="r100", scale=1.0, skews=(0.0, 2.0),
            num_sources=4, num_receiver_sets=8,
            sweep=SweepConfig(points=6), rng=0,
        )
        flat = np.asarray(result.get_series("skew=0").y)
        skewed = np.asarray(result.get_series("skew=2").y)
        # Heavy skew saturates: smaller normalized tree at the big end.
        assert skewed[-1] < flat[-1]

    def test_notes_record_effective_sites(self):
        result = run_popularity_study(
            topology="r100", scale=1.0, skews=(1.0,),
            num_sources=2, num_receiver_sets=4,
            sweep=SweepConfig(points=4), rng=0,
        )
        assert "effective sites" in result.notes["skew=1"]


class TestChurnStudy:
    def test_matches_static_form(self):
        result = run_churn_study(
            k=2, depth=7, targets=(8, 32), events_per_target=2500, rng=0
        )
        assert float(result.notes["max relative gap"]) < 0.12

    def test_two_series_same_length(self):
        result = run_churn_study(
            k=2, depth=6, targets=(4, 16), events_per_target=1500, rng=1
        )
        churn = result.get_series("churn (time average)")
        static = result.get_series("static Lhat(E[members])")
        assert len(churn.y) == len(static.y) == 2


class TestWeightedLinksAblation:
    def test_exponents_agree(self):
        result = run_weighted_links_ablation(
            topology="ts1000", scale=0.2,
            num_sources=3, num_receiver_sets=5,
            sweep=SweepConfig(points=5), rng=0,
        )
        link_exp = float(result.notes["exponent[links]"])
        weight_exp = float(result.notes["exponent[weight]"])
        assert abs(link_exp - weight_exp) < 0.15

    def test_weight_between_links_and_unicast(self):
        result = run_weighted_links_ablation(
            topology="r100", scale=1.0,
            num_sources=3, num_receiver_sets=5,
            sweep=SweepConfig(points=5), weight_spread=3.0, rng=1,
        )
        links = np.asarray(result.get_series("tree links").y)
        weight = np.asarray(result.get_series("tree weight").y)
        unicast = np.asarray(result.get_series("unicast weight").y)
        # Mean link cost is > 1, so weighted cost exceeds the count but
        # stays below the unicast total.
        assert np.all(weight >= links)
        assert np.all(weight <= unicast + 1e-9)


class TestSteinerStudy:
    def test_exponents_match_and_steiner_wins(self):
        from repro.experiments.figures import run_steiner_study

        result = run_steiner_study(
            topology="ts1008", scale=0.2,
            num_sources=3, num_receiver_sets=4,
            sweep=SweepConfig(points=5), rng=0,
        )
        spt_exp = float(result.notes["exponent[spt]"])
        steiner_exp = float(result.notes["exponent[steiner]"])
        assert abs(spt_exp - steiner_exp) < 0.08
        spt = np.asarray(result.get_series("shortest-path tree").y)
        steiner = np.asarray(result.get_series("steiner heuristic").y)
        assert np.all(steiner <= spt * 1.02)

    def test_identical_on_tree_topology(self):
        """On a tree there is no path diversity: zero waste."""
        from repro.graph.paths import bfs
        from repro.multicast.builders import _graft_tree
        from repro.multicast.tree import MulticastTreeCounter
        from repro.topology.kary import kary_tree

        t = kary_tree(3, 4)
        counter = MulticastTreeCounter(bfs(t.graph, 0))
        rng = np.random.default_rng(0)
        receivers = rng.choice(range(1, t.num_nodes), size=12, replace=False)
        assert (
            # The unguarded heuristic: steiner-tm's best-of-SPT guard
            # would hide a heuristic tree larger than the SPT.
            _graft_tree(t.graph, 0, receivers, nearest=True).num_links
            == counter.tree_size(receivers)
        )
