"""Tests for the unified observability layer (:mod:`repro.obs`).

Covers the three layers the package promises:

* registry semantics — instrument behaviour, Prometheus text format,
  spec conflicts, and the worker hand-back path
  (``to_dict``/``merge``/``from_dict``),
* span lifecycle — arming, nesting, attributes, error capture, export,
  cross-process ``absorb``, and profiling capture modes,
* the two production guarantees: disarmed spans stay within the
  ``obs_smoke`` budget, and traces recorded under a
  :class:`~repro.faults.clock.VirtualClock` are bit-deterministic
  (the chaos-layer contract).
"""

from __future__ import annotations

import json
import time

import pytest

from repro import obs
from repro.faults.clock import VirtualClock
from repro.obs.registry import MetricsRegistry


@pytest.fixture(autouse=True)
def _disarmed():
    """Every test starts and ends with no collector armed."""
    assert obs.active_collector() is None
    yield
    obs.stop_tracing()


# ---------------------------------------------------------------------------
# Registry semantics
# ---------------------------------------------------------------------------


class TestCounter:
    def test_labelless_counter_renders_zero_before_any_inc(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "jobs")
        assert "jobs_total 0" in registry.render().splitlines()

    def test_inc_and_value(self):
        registry = MetricsRegistry()
        c = registry.counter("jobs_total", "jobs")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_labeled_children_render_sorted(self):
        registry = MetricsRegistry()
        c = registry.counter("req_total", "requests", labelnames=("code",))
        c.inc(code="500")
        c.inc(3, code="200")
        lines = registry.render().splitlines()
        assert lines[2:] == ['req_total{code="200"} 3', 'req_total{code="500"} 1']

    def test_negative_inc_is_rejected(self):
        c = MetricsRegistry().counter("jobs_total", "jobs")
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1)

    def test_label_mismatch_is_rejected(self):
        c = MetricsRegistry().counter("req_total", "requests", labelnames=("code",))
        with pytest.raises(ValueError, match="expects labels"):
            c.inc(status="200")

    def test_set_total_overwrites(self):
        c = MetricsRegistry().counter("hits_total", "cache hits")
        c.set_total(41)
        c.set_total(42)
        assert c.value() == 42


class TestGauge:
    def test_set_and_render_as_float_repr(self):
        registry = MetricsRegistry()
        g = registry.gauge("ratio", "a ratio")
        g.set(0.25)
        assert "ratio 0.25" in registry.render().splitlines()
        g.set(0)
        # Gauges always render float-shaped, even for whole numbers.
        assert "ratio 0.0" in registry.render().splitlines()

    def test_inc_can_go_down(self):
        g = MetricsRegistry().gauge("inflight", "in-flight requests")
        g.inc()
        g.inc(-1)
        assert g.value() == 0.0


class TestHistogram:
    def test_cumulative_buckets_sum_and_count(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", "latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        lines = registry.render().splitlines()
        assert 'lat_bucket{le="0.1"} 1' in lines
        assert 'lat_bucket{le="1"} 2' in lines
        assert 'lat_bucket{le="+Inf"} 3' in lines
        assert "lat_count 3" in lines
        assert h.count() == 3
        assert h.sum() == pytest.approx(5.55)

    def test_boundary_value_lands_in_its_bucket(self):
        h = MetricsRegistry().histogram("lat", "latency", buckets=(0.1, 1.0))
        h.observe(0.1)  # le="0.1" is inclusive
        assert 'lat_bucket{le="0.1"} 1' in h.render()

    def test_unsorted_buckets_are_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="sorted"):
            registry.histogram("lat", "latency", buckets=(1.0, 0.1))


class TestRegistry:
    def test_get_or_create_returns_the_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("x_total", "x") is registry.counter("x_total", "x")

    def test_conflicting_respec_is_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "x")
        with pytest.raises(ValueError, match="different spec"):
            registry.counter("x_total", "x", labelnames=("a",))
        with pytest.raises(ValueError, match="different spec"):
            registry.gauge("x_total", "x")

    def test_render_order_is_registration_order(self):
        registry = MetricsRegistry()
        registry.counter("zz_total", "z")
        registry.gauge("aa", "a")
        doc = registry.render()
        assert doc.index("zz_total") < doc.index("aa")

    def test_empty_registry_renders_empty_string(self):
        assert MetricsRegistry().render() == ""

    def test_module_helpers_register_into_the_default_registry(self):
        c = obs.counter("repro_test_obs_helper_total", "test series")
        c.inc(7)
        assert "repro_test_obs_helper_total 7" in obs.render_default()
        assert (
            obs.default_registry().get("repro_test_obs_helper_total") is c
        )


class TestWorkerMerge:
    """The cross-process aggregation contract: snapshot in the worker,
    merge in the parent — counters and histograms add, gauges take the
    merged-in reading."""

    @staticmethod
    def _worker_registry(rate: float) -> MetricsRegistry:
        registry = MetricsRegistry()
        c = registry.counter("samples_total", "samples", labelnames=("mode",))
        c.inc(10, mode="distinct")
        registry.gauge("rate", "samples/sec").set(rate)
        h = registry.histogram("lat", "latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        return registry

    def test_two_worker_snapshots_fold_into_the_parent(self):
        parent = MetricsRegistry()
        for rate in (100.0, 250.0):
            parent.merge(self._worker_registry(rate).to_dict())
        assert parent.get("samples_total").value(mode="distinct") == 20
        assert parent.get("rate").value() == 250.0  # last write wins
        assert parent.get("lat").count() == 4
        assert parent.get("lat").sum() == pytest.approx(1.1)

    def test_from_dict_round_trips_the_rendered_document(self):
        worker = self._worker_registry(100.0)
        clone = MetricsRegistry.from_dict(worker.to_dict())
        assert clone.render() == worker.render()

    def test_unsupported_payload_version_is_rejected(self):
        with pytest.raises(ValueError, match="version"):
            MetricsRegistry().merge({"version": 2, "metrics": []})

    def test_mismatched_histogram_buckets_are_rejected(self):
        parent = MetricsRegistry()
        parent.histogram("lat", "latency", buckets=(0.1, 1.0))
        payload = {
            "version": 1,
            "metrics": [
                {
                    "name": "lat",
                    "kind": "histogram",
                    "help": "latency",
                    "labelnames": [],
                    "buckets": [0.1, 1.0, 5.0],
                    "children": [[[], {"counts": [1, 0, 0, 0], "sum": 0.05, "count": 1}]],
                }
            ],
        }
        with pytest.raises(ValueError, match="different spec"):
            parent.merge(payload)


class TestMetricsDelta:
    """Per-task hand-back from persistent workers: the delta between two
    snapshots must merge into the parent without double-counting."""

    @staticmethod
    def _registry() -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("work_total", "tasks", labelnames=("kind",))
        registry.gauge("depth", "queue depth")
        registry.histogram("lat", "latency", buckets=(0.1, 1.0))
        return registry

    def test_counters_report_only_the_increase(self):
        registry = self._registry()
        registry.get("work_total").inc(3, kind="bfs")
        before = registry.to_dict()
        registry.get("work_total").inc(2, kind="bfs")
        registry.get("work_total").inc(1, kind="count")
        delta = obs.metrics_delta(before, registry.to_dict())
        (entry,) = delta["metrics"]
        assert sorted(entry["children"]) == [[["bfs"], 2.0], [["count"], 1.0]]

    def test_unchanged_metrics_are_omitted(self):
        registry = self._registry()
        registry.get("work_total").inc(kind="bfs")
        registry.get("depth").set(4)
        snapshot = registry.to_dict()
        assert obs.metrics_delta(snapshot, snapshot) == {
            "version": 1,
            "metrics": [],
        }

    def test_gauges_report_the_new_reading(self):
        registry = self._registry()
        registry.get("depth").set(4)
        before = registry.to_dict()
        registry.get("depth").set(7)
        delta = obs.metrics_delta(before, registry.to_dict())
        (entry,) = delta["metrics"]
        assert entry["children"] == [[[], 7.0]]

    def test_histograms_subtract_counts_sum_and_count(self):
        registry = self._registry()
        registry.get("lat").observe(0.05)
        before = registry.to_dict()
        registry.get("lat").observe(0.5)
        registry.get("lat").observe(5.0)
        delta = obs.metrics_delta(before, registry.to_dict())
        (entry,) = delta["metrics"]
        ((_, bucket),) = entry["children"]
        assert bucket["count"] == 2
        assert bucket["counts"] == [0, 1, 1]
        assert bucket["sum"] == pytest.approx(5.5)

    def test_reset_counters_are_dropped_not_guessed(self):
        registry = self._registry()
        registry.get("work_total").inc(5, kind="bfs")
        before = registry.to_dict()
        after = self._registry()  # a reset: totals went backwards
        after.get("work_total").inc(2, kind="bfs")
        delta = obs.metrics_delta(before, after.to_dict())
        assert delta["metrics"] == []

    def test_successive_deltas_merge_to_the_worker_totals(self):
        worker = self._registry()
        parent = self._registry()
        snapshot = worker.to_dict()
        for task in range(3):
            worker.get("work_total").inc(kind="bfs")
            worker.get("lat").observe(0.2)
            worker.get("depth").set(task)
            current = worker.to_dict()
            parent.merge(obs.metrics_delta(snapshot, current))
            snapshot = current
        assert parent.get("work_total").value(kind="bfs") == 3
        assert parent.get("lat").count() == 3
        assert parent.get("depth").value() == 2.0

    def test_version_mismatch_is_rejected(self):
        snapshot = self._registry().to_dict()
        with pytest.raises(ValueError, match="version"):
            obs.metrics_delta({"version": 2, "metrics": []}, snapshot)
        with pytest.raises(ValueError, match="version"):
            obs.metrics_delta(snapshot, {"version": 2, "metrics": []})


# ---------------------------------------------------------------------------
# Span lifecycle
# ---------------------------------------------------------------------------


class TestSpans:
    def test_disarmed_span_is_the_shared_noop(self):
        sp = obs.span("anything", topology="arpa")
        assert sp is obs.span("something.else")
        with sp as inner:
            inner.set(ignored=True)
        assert sp.duration is None

    def test_armed_span_records_name_attrs_and_duration(self):
        with obs.tracing() as collector:
            with obs.span("unit.work", topology="arpa") as sp:
                sp.set(samples=64)
        (payload,) = collector.export()
        assert payload["name"] == "unit.work"
        assert payload["attrs"] == {"topology": "arpa", "samples": 64}
        assert payload["duration"] >= 0.0
        assert payload["parent_id"] is None

    def test_nesting_links_parent_ids_and_exports_in_completion_order(self):
        with obs.tracing() as collector:
            with obs.span("outer") as outer:
                with obs.span("inner"):
                    pass
        inner_payload, outer_payload = collector.export()
        assert inner_payload["name"] == "inner"
        assert inner_payload["parent_id"] == outer.span_id
        assert outer_payload["parent_id"] is None

    def test_exception_sets_error_attr_and_propagates(self):
        with obs.tracing() as collector:
            with pytest.raises(KeyError):
                with obs.span("unit.work"):
                    raise KeyError("boom")
        (payload,) = collector.export()
        assert payload["attrs"]["error"] == "KeyError"

    def test_double_arm_is_rejected(self):
        obs.start_tracing()
        with pytest.raises(RuntimeError, match="already active"):
            obs.start_tracing()

    def test_stop_tracing_disarms_and_returns_the_collector(self):
        collector = obs.start_tracing()
        assert obs.active_collector() is collector
        assert obs.stop_tracing() is collector
        assert obs.active_collector() is None
        assert obs.stop_tracing() is None

    def test_absorb_folds_foreign_spans(self):
        with obs.tracing() as collector:
            with obs.span("local"):
                pass
        foreign = [{"span_id": 99, "name": "worker.chunk", "pid": 12345}]
        collector.absorb(foreign)
        assert len(collector) == 2
        assert collector.export()[1]["name"] == "worker.chunk"

    def test_finished_absorbed_finished_export_in_completion_order(self):
        # Payloads are built at export, so absorb must first flush the
        # spans finished before it, or they would land after the foreign
        # ones.
        with obs.tracing() as collector:
            with obs.span("first"):
                pass
            collector.absorb([{"span_id": 99, "name": "foreign", "pid": 1}])
            with obs.span("second"):
                pass
            assert len(collector) == 3
            with obs.span("third"):
                pass
        names = [payload["name"] for payload in collector.export()]
        assert names == ["first", "foreign", "second", "third"]

    def test_threads_finishing_while_exporting_lose_no_span(self):
        # Spans finish without the lock and exports flush under it: every
        # span must come out once, with a unique id, in each thread's
        # own completion order.
        import sys
        import threading

        threads, per_thread = 6, 400
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with obs.tracing() as collector:
                stop = threading.Event()

                def work(index):
                    for n in range(per_thread):
                        with obs.span("stress", worker=index, n=n):
                            pass

                def export_loop():
                    while not stop.is_set():
                        collector.export()

                exporter = threading.Thread(target=export_loop)
                workers = [
                    threading.Thread(target=work, args=(i,))
                    for i in range(threads)
                ]
                exporter.start()
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60)
                stop.set()
                exporter.join(timeout=60)
                assert not exporter.is_alive()
                assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(interval)
        spans = collector.export()
        assert len(spans) == threads * per_thread
        assert len({s["span_id"] for s in spans}) == len(spans)
        for index in range(threads):
            order = [s["attrs"]["n"] for s in spans
                     if s["attrs"]["worker"] == index]
            assert order == list(range(per_thread))

    def test_dump_json_writes_the_export(self, tmp_path):
        with obs.tracing() as collector:
            with obs.span("unit.work"):
                pass
        path = tmp_path / "trace.json"
        collector.dump_json(str(path))
        assert json.loads(path.read_text())[0]["name"] == "unit.work"


class TestProfileCapture:
    def test_resolve_profile_mode(self):
        from repro.obs.profile import resolve_profile_mode

        assert resolve_profile_mode("") == ""
        assert resolve_profile_mode("0") == ""
        assert resolve_profile_mode("off") == ""
        assert resolve_profile_mode("1") == "ns"
        assert resolve_profile_mode("CPROFILE") == "cprofile"

    def test_ns_mode_attaches_elapsed_nanoseconds(self):
        with obs.tracing(profile="1") as collector:
            with obs.span("unit.work"):
                pass
        (payload,) = collector.export()
        assert payload["profile"]["mode"] == "ns"
        assert payload["profile"]["elapsed_ns"] >= 0

    def test_cprofile_mode_attaches_top_functions(self):
        with obs.tracing(profile="cprofile") as collector:
            with obs.span("unit.work"):
                sum(range(1000))
        (payload,) = collector.export()
        assert payload["profile"]["mode"] == "cprofile"
        assert payload["profile"]["top"]

    def test_nested_cprofile_span_is_marked_nested(self):
        # Only one cProfile may own a thread; the inner span records a
        # nested marker instead of fighting for it.
        with obs.tracing(profile="cprofile") as collector:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        inner_payload = collector.export()[0]
        assert inner_payload["profile"] == {"mode": "cprofile", "nested": True}

    def test_disarmed_profile_env_is_ignored(self, monkeypatch):
        monkeypatch.setenv(obs.PROFILE_ENV, "cprofile")
        assert obs.span("unit.work") is obs.span("unit.work")


# ---------------------------------------------------------------------------
# Production guarantees
# ---------------------------------------------------------------------------


@pytest.mark.wallclock
class TestDisarmedOverhead:
    """Mirror of the ``obs_smoke`` gate, kept in-suite so a plain
    ``pytest`` run also refuses an expensive disarmed span."""

    BUDGET_SECONDS = 1.5e-6  # keep in lockstep with benchmarks/obs_smoke.py

    def test_noop_span_stays_within_budget(self):
        span = obs.span
        iterations = 50_000
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(iterations):
                span("bench.overhead")
            best = min(best, (time.perf_counter() - start) / iterations)
        assert best < self.BUDGET_SECONDS


class TestVirtualClockDeterminism:
    """The chaos-layer contract: under a VirtualClock, traces are
    bit-deterministic — identical workload, identical export."""

    @staticmethod
    def _scripted_round(seed: int):
        clock = VirtualClock()
        with obs.tracing(clock=clock) as collector:
            with obs.span("round", seed=seed) as round_span:
                for chunk in range(3):
                    with obs.span("round.chunk", chunk=chunk):
                        clock.advance(0.125)
                round_span.set(chunks=3)
        return collector.export()

    def test_scripted_round_replays_identically(self):
        first = self._scripted_round(seed=7)
        second = self._scripted_round(seed=7)
        assert first == second
        # And the virtual timestamps are exact, not merely close.
        assert [s["duration"] for s in first] == [0.125, 0.125, 0.125, 0.375]

    def test_instrumented_sweep_replays_identically(self):
        # End to end through the real instrumentation: the runner's
        # sweep/chunk spans, recorded under virtual time, must come back
        # bit-identical across runs (chaos rounds replay on this).
        from repro.experiments.config import MonteCarloConfig
        from repro.experiments.runner import measure_sweep
        from repro.topology.registry import build_topology

        graph = build_topology("arpa")
        config = MonteCarloConfig(num_sources=2, num_receiver_sets=2, seed=11)

        def run():
            with obs.tracing(clock=VirtualClock()) as collector:
                measure_sweep(
                    graph, [2, 4], config=config, topology="arpa", use_cache=False
                )
            return collector.export()

        first, second = run(), run()
        assert first == second
        assert {s["name"] for s in first} == {
            "runner.sweep", "runner.seeds", "runner.chunk", "runner.reduce",
        }


class TestRunnerSpans:
    """The runner's own stages carry a ``layer``, so the benchmark ledger
    counts them as attributed: one ``runner.seeds`` and one
    ``runner.reduce`` per sweep, and neither encloses another layer's
    call.  A runner span that wrapped counting would hide that time under
    the runner's name instead of attributing it."""

    # The calls inside a sweep that the benchmark ledger times as layers,
    # as (owner, attribute, layer name).
    @staticmethod
    def _layer_targets():
        from repro.experiments import runner
        from repro.graph.distance_store import DistanceStore
        from repro.multicast.tree import MulticastTreeCounter

        return [
            (runner, "require_connected", "graph.connected"),
            (runner, "bfs", "graph.bfs"),
            (runner, "sample_distinct_receivers_sweep", "sampling.draw"),
            (runner, "sample_receivers_with_replacement_sweep",
             "sampling.draw"),
            (MulticastTreeCounter, "count_trees_and_unicast", "tree.walk"),
            (DistanceStore, "check_graph", "store.check"),
            (DistanceStore, "forest", "store.forest"),
        ]

    @classmethod
    def _wrap_layers(cls, monkeypatch):
        for owner, attr, name in cls._layer_targets():
            fn = getattr(owner, attr)

            def wrapper(*args, _fn=fn, _name=name, **kwargs):
                with obs.span(_name, layer=1):
                    return _fn(*args, **kwargs)

            monkeypatch.setattr(owner, attr, wrapper)

    @staticmethod
    def _assert_runner_layers(spans):
        runner_spans = [
            s for s in spans if s["name"] in ("runner.seeds", "runner.reduce")
        ]
        assert sorted(s["name"] for s in runner_spans) == [
            "runner.reduce", "runner.seeds",
        ]
        assert all(s["attrs"].get("layer") for s in runner_spans)
        layered = [s for s in spans if s["attrs"].get("layer")]
        assert {s["name"] for s in layered} >= {"sampling.draw", "tree.walk"}
        for outer in runner_spans:
            inside = [
                s["name"] for s in layered
                if s is not outer
                and outer["start"] <= s["start"] and s["end"] <= outer["end"]
            ]
            assert inside == [], (outer["name"], inside)

    @pytest.fixture(scope="class")
    def arpa(self):
        from repro.topology.registry import build_topology

        return build_topology("arpa")

    def test_serial_sweep(self, arpa, monkeypatch):
        from repro.experiments.config import MonteCarloConfig
        from repro.experiments.runner import measure_sweep

        self._wrap_layers(monkeypatch)
        config = MonteCarloConfig(num_sources=3, num_receiver_sets=4, seed=2)
        with obs.tracing() as collector:
            measure_sweep(arpa, [1, 5], config=config, use_cache=False)
        self._assert_runner_layers(collector.export())

    def test_store_backed_sweep(self, arpa, monkeypatch, tmp_path):
        from repro.experiments.config import MonteCarloConfig
        from repro.experiments.runner import measure_sweep
        from repro.graph.distance_store import build_distance_store

        store = build_distance_store(
            arpa, str(tmp_path / "rows.dist"), sources=[0, 3, 9]
        )
        try:
            self._wrap_layers(monkeypatch)
            config = MonteCarloConfig(
                num_sources=3, num_receiver_sets=4, seed=2
            )
            with obs.tracing() as collector:
                measure_sweep(
                    arpa, [1, 5, 9], config=config, distance_store=store,
                    use_cache=False,
                )
            spans = collector.export()
            self._assert_runner_layers(spans)
            assert sum(s["name"] == "store.forest" for s in spans) == 3
        finally:
            store.close()
