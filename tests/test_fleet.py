"""End-to-end tests for the multi-process serving fleet.

The fleet's observable contract, each clause pinned here:

* answers are **byte-identical** to a single-process ``ServerApp`` on
  the same :class:`ServiceConfig` (the supervisor builds tables through
  the very same startup path and workers attach them zero-copy);
* ``/healthz`` and ``/metrics`` on the admin port aggregate per-worker
  liveness, restart counts, table generation, and folded registries;
* table reload swaps generations on every live worker with zero failed
  requests;
* a SIGKILLed worker loses no request — once its ``SO_REUSEPORT``
  listener is gone the kernel routes new connections to the survivors
  while the supervisor restarts the corpse;
* the worker-side fault seams fire through ``worker_fault_plan``: a
  failed table swap is reported and leaves the old generation serving
  until the worker is recycled, and a connection reset at accept is
  retried onto a worker that answers;
* past ``max_inflight`` the service sheds explicitly — degraded 200
  answers flagged ``"shed": true``, never queued, never cached, never
  a 500.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time

from repro.serve.app import ServerApp, http_request
from repro.serve.fleet import FleetConfig, FleetSupervisor
from repro.serve.handlers import EstimationService, ServiceConfig


def run(coro):
    return asyncio.run(coro)


def small_config(**overrides) -> ServiceConfig:
    defaults = dict(
        topologies=("arpa",),
        num_sources=2,
        num_receiver_sets=2,
        deadline_seconds=5.0,
        executor_threads=2,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def fleet_config(**overrides) -> FleetConfig:
    defaults = dict(workers=2, service=small_config(), seed=0)
    defaults.update(overrides)
    return FleetConfig(**defaults)


async def resilient_request(port, payload, attempts=8):
    """``(status, body, retries)``, retrying connection-level failures."""
    for attempt in range(attempts):
        try:
            status, body = await http_request(
                "127.0.0.1", port, "POST", "/v1/simulate", payload
            )
            return status, json.loads(body), attempt
        except OSError:  # reset, refused: the worker is gone or restarting
            await asyncio.sleep(min(0.05 * 2 ** attempt, 2.0))
    raise AssertionError(f"request never completed: {payload}")


async def wait_for_alive(fleet, want=2, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        health = await fleet.healthz()
        if health["fleet"]["alive_workers"] == want:
            return health
        await asyncio.sleep(0.1)
    raise AssertionError(f"fleet never returned to {want} live workers")


async def post_simulate(service, payload):
    response = await service.dispatch(
        "POST", "/v1/simulate", json.dumps(payload).encode()
    )
    return response.status, json.loads(response.body.decode())


class TestFleetEndToEnd:
    def test_fleet_matches_single_process_byte_for_byte_and_reloads(self):
        async def go():
            config = small_config()
            ref_app = ServerApp(EstimationService(config))
            await ref_app.start(host="127.0.0.1", port=0)
            fleet = FleetSupervisor(fleet_config(service=config))
            await fleet.start()
            out = {}
            try:
                pairs = []
                probes = [
                    ("POST", "/v1/estimate", {"k": 4, "depth": 7, "n": 100}),
                    ("POST", "/v1/estimate", {"k": 2, "depth": 5, "m": 12}),
                ] + [
                    # Fresh m per probe: every answer is a fresh table
                    # interpolation on both sides (a repeat would come
                    # from the per-process cache with source="cache" on
                    # whichever worker saw it first, breaking raw-byte
                    # comparison for reasons that are not a bug).
                    ("POST", "/v1/simulate", {"topology": "arpa", "m": m})
                    for m in (2, 3, 4, 5, 6, 7, 8, 9)
                ]
                for method, path, payload in probes:
                    ref = await http_request(
                        "127.0.0.1", ref_app.port, method, path, payload
                    )
                    got = await http_request(
                        "127.0.0.1", fleet.port, method, path, payload
                    )
                    pairs.append((path, payload, ref, got))
                out["pairs"] = pairs
                out["health"] = await fleet.healthz()
                out["metrics"] = await fleet.fleet_metrics_text()
                status, body = await http_request(
                    "127.0.0.1", fleet.admin_port, "GET", "/healthz"
                )
                out["admin_health"] = (status, json.loads(body))
                status, body = await http_request(
                    "127.0.0.1", fleet.admin_port, "POST", "/v1/fleet/reload"
                )
                out["reload"] = (status, json.loads(body))
                out["generation"] = fleet.generation
                ref = await http_request(
                    "127.0.0.1", ref_app.port, "POST", "/v1/simulate",
                    {"topology": "arpa", "m": 11},
                )
                got = await http_request(
                    "127.0.0.1", fleet.port, "POST", "/v1/simulate",
                    {"topology": "arpa", "m": 11},
                )
                out["post_reload"] = (ref, got)
            finally:
                await fleet.stop()
                await ref_app.stop(drain_seconds=2.0)
            return out

        out = run(go())
        for path, payload, (ref_status, ref_body), (status, body) in out["pairs"]:
            assert ref_status == status == 200, (path, payload, status)
            assert ref_body == body, (path, payload)

        health = out["health"]
        assert health["status"] == "ok"
        assert health["fleet"]["alive_workers"] == 2
        assert health["fleet"]["table_generation"] == 1
        assert [w["generation"] for w in health["workers"]] == [1, 1]
        assert all(w["alive"] for w in health["workers"])

        assert "repro_fleet_workers 2" in out["metrics"]
        assert "repro_fleet_workers_alive 2" in out["metrics"]
        assert "repro_serve_requests_total" in out["metrics"]

        admin_status, admin_health = out["admin_health"]
        assert admin_status == 200
        assert admin_health["fleet"]["alive_workers"] == 2

        reload_status, reload_result = out["reload"]
        assert reload_status == 200
        assert reload_result["generation"] == 2
        assert set(reload_result["workers"].values()) == {"reloaded"}
        assert out["generation"] == 2

        (ref_status, ref_body), (status, body) = out["post_reload"]
        # Generation 2 is rebuilt from the same config and seed, so the
        # swap must be invisible in the answers.
        assert ref_status == status == 200
        assert ref_body == body
        answer = json.loads(body)
        assert answer["source"] == "table"
        assert answer["degraded"] is False

    def test_sigkilled_worker_loses_no_request(self):
        async def go():
            fleet = FleetSupervisor(fleet_config())
            await fleet.start()
            try:
                health = await fleet.healthz()
                victim = health["workers"][0]["pid"]
                os.kill(victim, signal.SIGKILL)
                # A REUSEPORT listener closes with its process; a connect
                # racing that close could land in the dying accept queue.
                # Send once the victim has exited.
                deadline = time.monotonic() + 10.0
                while fleet._workers[0].process.is_alive():
                    assert time.monotonic() < deadline, "victim never died"
                    await asyncio.sleep(0.01)
                statuses = []
                for i in range(20):
                    status, _body = await http_request(
                        "127.0.0.1", fleet.port, "POST", "/v1/simulate",
                        {"topology": "arpa", "m": 2 + (i % 6)},
                    )
                    statuses.append(status)
                health = await wait_for_alive(fleet)
                return statuses, health
            finally:
                await fleet.stop()

        statuses, health = run(go())
        # No request fails while the victim restarts: the surviving
        # worker's listener takes every new connection.
        assert statuses == [200] * 20
        assert health["fleet"]["alive_workers"] == 2
        assert health["fleet"]["total_restarts"] >= 1
        restarted = [w for w in health["workers"] if w["restarts"] > 0]
        assert restarted and all(w["alive"] for w in health["workers"])


class TestWorkerFaultSeams:
    """``fleet.table.swap`` and ``fleet.socket.accept`` fire only inside
    workers; ``FleetConfig.worker_fault_plan`` is their way in."""

    def test_failed_swap_is_reported_and_old_generation_keeps_serving(self):
        plan = {
            "name": "swap-fails",
            "faults": [
                {"point": "fleet.table.swap", "action": "raise", "max_fires": 1}
            ],
        }

        async def go():
            fleet = FleetSupervisor(fleet_config(worker_fault_plan=plan))
            await fleet.start()
            try:
                before = await resilient_request(
                    fleet.port, {"topology": "arpa", "m": 5}
                )
                result = await fleet.reload_tables()
                after = await resilient_request(
                    fleet.port, {"topology": "arpa", "m": 5}
                )
                health = await wait_for_alive(fleet)
            finally:
                await fleet.stop()
            return before, result, after, health

        before, result, after, health = run(go())
        assert result["generation"] == 2
        statuses = list(result["workers"].values())
        assert len(statuses) == 2
        for status in statuses:
            # Each worker refused the swap and said it still serves
            # generation 1; the supervisor then recycles it.
            assert status.startswith("failed: injected fault at fleet.table.swap")
            assert status.endswith("(was serving generation 1)")
        assert before[0] == after[0] == 200
        assert before[1]["tree_size"] == after[1]["tree_size"]
        assert after[1]["degraded"] is False
        # The recycled workers come back attached to generation 2.
        assert health["fleet"]["table_generation"] == 2
        assert [w["generation"] for w in health["workers"]] == [2, 2]
        assert health["fleet"]["total_restarts"] >= 2

    def test_reset_at_accept_is_retried_onto_a_serving_worker(self):
        # Every worker resets the first connection it accepts.
        plan = {
            "name": "accept-resets",
            "faults": [
                {"point": "fleet.socket.accept", "action": "reset", "max_fires": 1}
            ],
        }

        async def go():
            fleet = FleetSupervisor(fleet_config(worker_fault_plan=plan))
            await fleet.start()
            try:
                answers = [
                    await resilient_request(
                        fleet.port, {"topology": "arpa", "m": 2 + i}
                    )
                    for i in range(10)
                ]
                health = await fleet.healthz()
            finally:
                await fleet.stop()
            return answers, health

        answers, health = run(go())
        assert [status for status, _body, _retries in answers] == [200] * 10
        assert all(not body["degraded"] for _status, body, _retries in answers)
        retries = sum(retries for _status, _body, retries in answers)
        # The very first connection is always reset; at most one more
        # reset (the other worker's first accept) can follow.
        assert answers[0][2] >= 1
        assert 1 <= retries <= 2
        # A reset drops only the connection, never the worker.
        assert health["fleet"]["alive_workers"] == 2
        assert health["fleet"]["total_restarts"] == 0


class TestLoadShedding:
    def test_backlogged_simulate_sheds_explicitly(self):
        async def go():
            service = EstimationService(small_config(max_inflight=1))
            await service.startup()
            try:
                service._inflight_requests = 5  # a standing backlog
                shed_status, shed_answer = await post_simulate(
                    service, {"topology": "arpa", "m": 3}
                )
                cached = service._cache.get(("arpa", "distinct", 3, False, "spt"))
                shed_total = service.metrics.shed_total
                service._inflight_requests = 0
                ok_status, ok_answer = await post_simulate(
                    service, {"topology": "arpa", "m": 3}
                )
            finally:
                await service.shutdown()
            return shed_status, shed_answer, cached, shed_total, ok_status, ok_answer

        shed_status, shed_answer, cached, shed_total, ok_status, ok_answer = run(go())
        assert shed_status == 200  # explicit degradation, never a 500
        assert shed_answer["shed"] is True
        assert shed_answer["degraded"] is True
        assert shed_answer["source"] == "table"  # best non-blocking answer
        assert cached is None  # shed answers are never cached
        assert shed_total == 1
        assert ok_status == 200
        assert ok_answer["degraded"] is False
        assert "shed" not in ok_answer

    def test_cache_hits_are_served_even_under_backlog(self):
        async def go():
            service = EstimationService(small_config(max_inflight=1))
            await service.startup()
            try:
                status, first = await post_simulate(
                    service, {"topology": "arpa", "m": 4}
                )
                service._inflight_requests = 5
                status2, second = await post_simulate(
                    service, {"topology": "arpa", "m": 4}
                )
            finally:
                await service.shutdown()
            return status, first, status2, second

        status, first, status2, second = run(go())
        assert (status, status2) == (200, 200)
        assert first["degraded"] is False
        assert second["source"] == "cache"  # the ladder's free tier survives
        assert "shed" not in second

    def test_healthz_reports_shedding_posture(self):
        async def go():
            service = EstimationService(small_config(max_inflight=7))
            await service.startup()
            try:
                return service.handle_healthz()
            finally:
                await service.shutdown()

        health = run(go())
        assert health["max_inflight"] == 7
        assert health["inflight_requests"] == 0
        assert health["table_generation"] == 0
