"""Service counters, latency histograms, and Prometheus text rendering.

One :class:`ServeMetrics` instance per service.  Since the
observability layer landed, this module owns no primitives: the
counter/gauge/histogram instruments and the text exposition live in
:mod:`repro.obs.registry` (they started here and were promoted), and
:class:`ServeMetrics` is a thin composition over a private
:class:`~repro.obs.registry.MetricsRegistry` — private so multiple
service instances in one process never cross-count.  ``GET /metrics``
additionally appends the process-wide
:func:`repro.obs.default_registry` document (forest-cache, runner,
sampling, figure series); see
:meth:`repro.serve.handlers.EstimationService.handle_metrics`.

Series (names are pinned — the obs smoke gate checks them name-for-name)
-----------------------------------------------------------------------
* ``repro_serve_requests_total{endpoint,status}`` — counter.
* ``repro_serve_request_latency_seconds`` — histogram per endpoint
  (cumulative ``_bucket{le=...}``, ``_sum``, ``_count``).
* ``repro_serve_answers_total{source}`` — where simulate answers came
  from: ``cache`` / ``table`` / ``simulation`` / ``closed-form``.
* ``repro_serve_degraded_total`` — deadline-degraded responses.
* ``repro_serve_shed_total`` — responses answered degraded-immediately
  because the worker was over its inflight capacity (load shedding).
* ``repro_serve_backend_failures_total`` — backend computations that
  failed outright (fault-injected or real, non-timeout).
* ``repro_serve_coalesced_total`` / ``repro_serve_backend_runs_total``
  — joins versus actual backend computations.
* ``repro_serve_response_cache_hit_ratio`` and
  ``repro_serve_coalesce_ratio`` — derived gauges, recomputed at render
  time so they never drift from the counters they summarize.
"""

from __future__ import annotations

from typing import Sequence

from repro.obs.registry import DEFAULT_BUCKETS, MetricsRegistry

__all__ = ["ServeMetrics"]

_PREFIX = "repro_serve"


class ServeMetrics:
    """Mutable counter state behind ``GET /metrics``."""

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        registry = MetricsRegistry()
        # Registration order is the pinned render order.
        self._requests = registry.counter(
            f"{_PREFIX}_requests_total",
            "HTTP requests by endpoint and status.",
            labelnames=("endpoint", "status"),
        )
        self._latency = registry.histogram(
            f"{_PREFIX}_request_latency_seconds",
            "Request handling latency by endpoint.",
            buckets=buckets,
            labelnames=("endpoint",),
        )
        self._answers = registry.counter(
            f"{_PREFIX}_answers_total",
            "Simulate answers by source.",
            labelnames=("source",),
        )
        self._degraded = registry.counter(
            f"{_PREFIX}_degraded_total", "Deadline-degraded responses."
        )
        self._shed = registry.counter(
            f"{_PREFIX}_shed_total",
            "Requests answered degraded-immediately because the worker "
            "was over its inflight capacity (load shedding).",
        )
        self._backend_failures = registry.counter(
            f"{_PREFIX}_backend_failures_total",
            "Backend computations that failed outright (non-timeout).",
        )
        self._backend_runs = registry.counter(
            f"{_PREFIX}_backend_runs_total", "Backend computations started."
        )
        self._coalesced = registry.counter(
            f"{_PREFIX}_coalesced_total",
            "Requests that joined an identical in-flight computation.",
        )
        self._cache_ratio = registry.gauge(
            f"{_PREFIX}_response_cache_hit_ratio",
            "TTL+LRU response cache hit fraction.",
        )
        self._coalesce_ratio = registry.gauge(
            f"{_PREFIX}_coalesce_ratio",
            "Fraction of backend demand absorbed by coalescing.",
        )
        self._registry = registry
        self.cache_hits = 0
        self.cache_misses = 0

    # -- recording -------------------------------------------------------

    def observe_request(self, endpoint, status, seconds=None) -> None:
        self._requests.inc(endpoint=endpoint, status=int(status))
        if seconds is not None:
            self._latency.observe(float(seconds), endpoint=endpoint)

    def count_answer(self, source: str) -> None:
        self._answers.inc(source=source)

    def count_degraded(self) -> None:
        self._degraded.inc()

    def count_shed(self) -> None:
        """A request was answered degraded without queueing: the worker
        was already at its configured inflight capacity."""
        self._shed.inc()

    def count_backend_failure(self) -> None:
        """A backend computation failed (not a timeout): the service
        degraded or, for background refreshes, kept the stale table."""
        self._backend_failures.inc()

    def record_cache(self, hits: int, misses: int) -> None:
        """Absolute hit/miss counts copied from the response cache."""
        self.cache_hits = int(hits)
        self.cache_misses = int(misses)

    def record_flight(self, started: int, coalesced: int) -> None:
        """Absolute leader/follower counts copied from the SingleFlight."""
        self._backend_runs.set_total(int(started))
        self._coalesced.set_total(int(coalesced))

    # -- totals & derived ratios ----------------------------------------

    @property
    def degraded_total(self) -> int:
        return int(self._degraded.value())

    @property
    def shed_total(self) -> int:
        return int(self._shed.value())

    @property
    def backend_failures_total(self) -> int:
        return int(self._backend_failures.value())

    @property
    def backend_runs_total(self) -> int:
        return int(self._backend_runs.value())

    @property
    def coalesced_total(self) -> int:
        return int(self._coalesced.value())

    @property
    def cache_hit_ratio(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def coalesce_ratio(self) -> float:
        """Fraction of backend demands absorbed by an in-flight twin."""
        total = self.backend_runs_total + self.coalesced_total
        return self.coalesced_total / total if total else 0.0

    # -- exposition ------------------------------------------------------

    def render(self) -> str:
        """The Prometheus text-format document (trailing newline)."""
        self._cache_ratio.set(self.cache_hit_ratio)
        self._coalesce_ratio.set(self.coalesce_ratio)
        return self._registry.render()

    def to_dict(self) -> dict:
        """Version-1 registry snapshot (counters add, gauges last-write).

        This is the fleet's cross-process hand-back: each worker ships
        its snapshot over the control pipe and the supervisor folds them
        with :meth:`~repro.obs.registry.MetricsRegistry.merge` into one
        fleet-wide ``/metrics`` document.
        """
        self._cache_ratio.set(self.cache_hit_ratio)
        self._coalesce_ratio.set(self.coalesce_ratio)
        return self._registry.to_dict()
