"""Observability smoke: span and counter budgets + pinned serve series.

Four gates, all fast enough for ``make test``:

1. **Disarmed span overhead** — with no collector armed,
   ``obs.span(...)`` must stay under :data:`SPAN_BUDGET_SECONDS` per
   call.  Spans sit on production hot paths (every sweep, every worker
   chunk), so — exactly like the fault points gated by
   ``chaos_smoke`` — "free when disarmed" is a hard requirement.
2. **Armed span overhead** — with a collector armed, entering and
   leaving a nested span must stay under
   :data:`ARMED_SPAN_BUDGET_SECONDS`.  A traced sweep opens ~20 layer
   spans per op, and each one's setup and teardown lands in its
   parent's self time; the benchmark's coverage gate counts the
   runner's self time as unattributed, so a dearer span turns that
   gate red on a fast op.
3. **Counter overhead** — ``Counter.inc()`` (always live; there is no
   disarmed state for metrics) must stay under
   :data:`COUNTER_BUDGET_SECONDS` per call.  The forest cache pays
   this on every lookup.
4. **Pinned serve series** — ``GET /metrics`` must expose every series
   the serving layer shipped with, name-for-name
   (:data:`REQUIRED_SERVE_SERIES`), now that the document is assembled
   from the promoted :mod:`repro.obs.registry` primitives and the
   process-wide registry is appended.  A rename here breaks every
   dashboard scraping the service.

Usage::

    python benchmarks/obs_smoke.py
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import obs  # noqa: E402

#: Per-call ceiling for a disarmed span(); the measured cost is a global
#: load, an ``is None`` test, and a kwargs dict — far below this.
SPAN_BUDGET_SECONDS = 1.5e-6

#: Per-span ceiling for an armed, nested ``with obs.span(...)`` block:
#: an id, the thread's stack, two clock reads and an append to the
#: finished list (the payload dict is built later, at export).  About
#: 6 µs when each exit built its payload under a lock, ~2 µs now.
ARMED_SPAN_BUDGET_SECONDS = 4.0e-6

#: Per-call ceiling for a live Counter.inc() (one dict update under a
#: lock).  Looser than the span budget because counters are never
#: disarmed — this is the real, always-on cost.
COUNTER_BUDGET_SECONDS = 5.0e-6

#: The serving layer's exposition as first shipped; every name must
#: appear as a ``# TYPE <name> <kind>`` line in ``GET /metrics``
#: forever (a superset is fine, a rename is a break).
REQUIRED_SERVE_SERIES = (
    ("repro_serve_requests_total", "counter"),
    ("repro_serve_request_latency_seconds", "histogram"),
    ("repro_serve_answers_total", "counter"),
    ("repro_serve_degraded_total", "counter"),
    ("repro_serve_backend_failures_total", "counter"),
    ("repro_serve_backend_runs_total", "counter"),
    ("repro_serve_coalesced_total", "counter"),
    ("repro_serve_response_cache_hit_ratio", "gauge"),
    ("repro_serve_coalesce_ratio", "gauge"),
)

_SMOKE_COUNTER = obs.counter(
    "repro_bench_obs_smoke_total", "overhead-measurement series"
)


def measure_noop_span(iterations: int = 200_000, repeats: int = 3) -> float:
    """Best-of-``repeats`` per-call cost of a disarmed ``obs.span()``."""
    assert obs.active_collector() is None, "smoke must run disarmed"
    span = obs.span
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(iterations):
            span("bench.obs_smoke")
        best = min(best, (time.perf_counter() - start) / iterations)
    return best


def measure_armed_span(iterations: int = 5_000, repeats: int = 9) -> float:
    """Best-of-``repeats`` per-span cost of an armed, nested span block.

    Each repeat arms a fresh collector, so the finished spans of earlier
    repeats do not pile up.
    """
    assert obs.active_collector() is None, "smoke must start disarmed"
    span = obs.span
    best = float("inf")
    for _ in range(repeats):
        with obs.tracing():
            with span("bench.obs_smoke.outer"):
                start = time.perf_counter()
                for _ in range(iterations):
                    with span("bench.obs_smoke", layer=1):
                        pass
                best = min(best, (time.perf_counter() - start) / iterations)
    return best


def measure_counter_inc(iterations: int = 200_000, repeats: int = 3) -> float:
    """Best-of-``repeats`` per-call cost of a live ``Counter.inc()``."""
    inc = _SMOKE_COUNTER.inc
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(iterations):
            inc()
        best = min(best, (time.perf_counter() - start) / iterations)
    return best


def missing_serve_series() -> list:
    """Pinned series absent from a fresh service's ``/metrics`` document."""
    from repro.serve.handlers import EstimationService, ServiceConfig

    # No pre-warmed topologies: the exposition must carry every series
    # (with zero values) before any traffic, or scrapers see gaps.
    service = EstimationService(ServiceConfig(topologies=()))
    document = service.handle_metrics()
    return [
        (name, kind)
        for name, kind in REQUIRED_SERVE_SERIES
        if f"# TYPE {name} {kind}" not in document
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)

    failed = False

    per_span = measure_noop_span()
    print(
        f"no-op span(): {per_span * 1e9:.0f} ns/call "
        f"(budget {SPAN_BUDGET_SECONDS * 1e9:.0f} ns)"
    )
    if per_span >= SPAN_BUDGET_SECONDS:
        print(
            "obs smoke FAIL: disarmed spans are too expensive for "
            "production hot paths"
        )
        failed = True

    per_armed = measure_armed_span()
    print(
        f"armed span: {per_armed * 1e9:.0f} ns/span "
        f"(budget {ARMED_SPAN_BUDGET_SECONDS * 1e9:.0f} ns)"
    )
    if per_armed >= ARMED_SPAN_BUDGET_SECONDS:
        print(
            "obs smoke FAIL: armed spans are too expensive; their cost "
            "lands in each parent's self time and lowers traced coverage"
        )
        failed = True

    per_inc = measure_counter_inc()
    print(
        f"counter inc(): {per_inc * 1e9:.0f} ns/call "
        f"(budget {COUNTER_BUDGET_SECONDS * 1e9:.0f} ns)"
    )
    if per_inc >= COUNTER_BUDGET_SECONDS:
        print("obs smoke FAIL: Counter.inc() is too expensive for hot paths")
        failed = True

    missing = missing_serve_series()
    print(
        f"serve series: {len(REQUIRED_SERVE_SERIES) - len(missing)}/"
        f"{len(REQUIRED_SERVE_SERIES)} pinned names present"
    )
    if missing:
        for name, kind in missing:
            print(f"  missing: # TYPE {name} {kind}")
        print(
            "obs smoke FAIL: GET /metrics dropped or renamed pinned "
            "series; dashboards scraping the service will break"
        )
        failed = True

    if failed:
        return 1
    print("obs smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
