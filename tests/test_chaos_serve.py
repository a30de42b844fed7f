"""Chaos tests for the serving layer: seeded fault schedules vs invariants.

The headline test drives 50 seeded random schedules through
:func:`repro.faults.chaos.run_serve_round`; each failure prints its
seed and a ``run_serve_round(seed=N)`` replay line.  The targeted tests
pin each invariant individually — no 500s while a fallback tier is
healthy, ``degraded`` iff a fallback answered, degraded answers within
the documented bound of exact Eq. 4, coalesced waiters never hang when
their leader is killed — and the checker tests prove the invariant
checker itself notices deliberate violations (a checker that cannot
fail checks nothing).
"""

from __future__ import annotations

import asyncio
import json
from types import SimpleNamespace

import pytest

from repro.faults import FaultPlan, FaultSpec, VirtualClock
from repro.faults.chaos import (
    CHAOS_SERVE_POINTS,
    check_serve_invariants,
    random_serve_plan,
    run_serve_round,
    run_serve_rounds,
)
from repro.serve.handlers import EstimationService, ServiceConfig
from repro.serve.metrics import ServeMetrics
from repro.serve.tables import EstimatorTable

NUM_SCHEDULES = 50


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


async def post_simulate(service, payload):
    response = await service.dispatch(
        "POST", "/v1/simulate", json.dumps(payload).encode()
    )
    return response.status, json.loads(response.body.decode())


async def drain_flight(service):
    while len(service._flight):
        await asyncio.sleep(0)


class TestSeededSchedules:
    def test_fifty_seeded_schedules_hold_all_invariants(self):
        reports = run_serve_rounds(range(NUM_SCHEDULES))
        failed = [report for report in reports if not report.ok]
        assert not failed, "\n".join(report.summary() for report in failed)
        # The suite must actually have exercised faults, not vacuously
        # passed on 50 healthy rounds.
        assert sum(report.injected for report in reports) > NUM_SCHEDULES / 2

    def test_round_replay_is_deterministic(self):
        first = asyncio.run(run_serve_round(seed=7))
        second = asyncio.run(run_serve_round(seed=7))
        assert first.plan == second.plan
        assert first.injected == second.injected
        assert first.responses == second.responses

    def test_random_plans_cover_every_seam_across_seeds(self):
        clock = VirtualClock()
        targeted = set()
        for seed in range(NUM_SCHEDULES):
            plan = random_serve_plan(seed, clock)
            targeted.update(spec.point for spec in plan.specs)
        assert targeted == {name for name, _actions in CHAOS_SERVE_POINTS}


class TestNo500WithHealthyFallback:
    def test_backend_raise_degrades_instead_of_500(self):
        async def go():
            service = EstimationService(small_config(), clock=VirtualClock())
            await service.startup()
            plan = FaultPlan(
                [FaultSpec("serve.backend.simulate", "raise")], seed=0
            )
            results = []
            with plan.activate():
                for m in (2, 5, 9):
                    results.append(
                        await post_simulate(
                            service, {"topology": "arpa", "m": m, "exact": True}
                        )
                    )
            await service.shutdown()
            return results, plan.injected_count

        results, injected = asyncio.run(go())
        assert injected == 3
        for status, body in results:
            assert status == 200
            assert body["degraded"] is True
            assert body["source"] == "table"  # arpa's table stayed healthy
            assert body["tree_size"] > 0

    def test_backend_timeout_also_degrades(self):
        async def go():
            service = EstimationService(small_config(), clock=VirtualClock())
            await service.startup()
            plan = FaultPlan(
                [FaultSpec("serve.backend.simulate", "timeout")], seed=0
            )
            with plan.activate():
                result = await post_simulate(
                    service, {"topology": "arpa", "m": 4, "exact": True}
                )
            await service.shutdown()
            return result

        status, body = asyncio.run(go())
        assert status == 200
        assert body["degraded"] is True


class TestDegradedFlagCorrectness:
    def test_flag_set_iff_fallback_answered_and_metrics_agree(self):
        async def go():
            service = EstimationService(small_config(), clock=VirtualClock())
            await service.startup()
            healthy_status, healthy = await post_simulate(
                service, {"topology": "arpa", "m": 3}
            )
            plan = FaultPlan(
                [FaultSpec("serve.backend.simulate", "raise", max_fires=1)],
                seed=0,
            )
            with plan.activate():
                hurt_status, hurt = await post_simulate(
                    service, {"topology": "arpa", "m": 6, "exact": True}
                )
            await drain_flight(service)
            recovered_status, recovered = await post_simulate(
                service, {"topology": "arpa", "m": 6, "exact": True}
            )
            await service.shutdown()
            return (
                (healthy_status, healthy),
                (hurt_status, hurt),
                (recovered_status, recovered),
                service.metrics.degraded_total,
            )

        healthy, hurt, recovered, degraded_total = asyncio.run(go())
        assert healthy[0] == 200 and healthy[1]["degraded"] is False
        assert healthy[1]["source"] == "table"
        assert hurt[0] == 200 and hurt[1]["degraded"] is True
        assert hurt[1]["source"] in ("table", "closed-form")
        # Recovery: plan exhausted, same query now runs for real.
        assert recovered[0] == 200 and recovered[1]["degraded"] is False
        assert recovered[1]["source"] == "simulation"
        assert degraded_total == 1  # exactly the one degraded response


class TestErrorBoundUnderDegradation:
    def test_degraded_answers_within_bound_of_exact_eq4(self):
        # Swap the Monte-Carlo arpa table for an exact closed-form
        # kary(3,8) table; the only error left in a degraded table
        # answer is interpolation, which must honor the documented
        # rel_error_bound against exact Eq. 4 at off-knot sizes.
        from repro.analysis.kary_asymptotic import lm_exact_via_conversion

        table = EstimatorTable.from_closed_form(3, 8)

        async def go():
            service = EstimationService(small_config(), clock=VirtualClock())
            await service.startup()
            service.tables[("arpa", "distinct", "spt")] = table
            plan = FaultPlan(
                [FaultSpec("serve.backend.simulate", "raise")], seed=0
            )
            answers = []
            with plan.activate():
                for m in (7, 23, 91, 517, 2048, 6007):
                    answers.append(
                        (
                            m,
                            await post_simulate(
                                service,
                                {"topology": "arpa", "m": m, "exact": True},
                            ),
                        )
                    )
            await service.shutdown()
            return answers

        for m, (status, body) in asyncio.run(go()):
            assert status == 200
            assert body["degraded"] is True
            assert body["source"] == "table"
            assert body["rel_error_bound"] == table.rel_error_bound
            exact = float(lm_exact_via_conversion(3.0, 8, float(m)))
            assert body["tree_size"] == pytest.approx(
                exact, rel=table.rel_error_bound
            ), f"degraded answer for m={m} outside the documented bound"


class TestWaitersNeverHang:
    def test_killed_leader_wakes_every_coalesced_waiter(self):
        async def go():
            service = EstimationService(small_config(), clock=VirtualClock())
            await service.startup()
            plan = FaultPlan(
                [FaultSpec("serve.backend.simulate", "raise", max_fires=1)],
                seed=0,
            )
            payload = {"topology": "arpa", "m": 8, "exact": True}
            # Startup's table/graph builds also count as flights.
            started_before = service._flight.started
            coalesced_before = service._flight.coalesced
            with plan.activate():
                results = await asyncio.wait_for(
                    asyncio.gather(
                        *(post_simulate(service, dict(payload)) for _ in range(4))
                    ),
                    timeout=10.0,  # wall-clock backstop: hanging = failing
                )
            await drain_flight(service)
            flight_stats = (
                service._flight.started - started_before,
                service._flight.coalesced - coalesced_before,
                len(service._flight),
            )
            await service.shutdown()
            return results, plan.injected_count, flight_stats

        results, injected, (started, coalesced, inflight) = asyncio.run(go())
        assert injected == 1  # one leader died...
        assert started == 1 and coalesced == 3  # ...with 3 waiters aboard
        assert inflight == 0  # and the flight entry was cleaned up
        for status, body in results:
            assert status == 200
            assert body["degraded"] is True


class TestSocketFaults:
    """Resets injected below the HTTP framing layer drop one connection,
    never the service."""

    def test_reset_on_read_drops_connection_not_server(self):
        from repro.serve.app import ServerApp, http_request

        async def go():
            service = EstimationService(small_config())
            app = ServerApp(service)
            await app.start(host="127.0.0.1", port=0)
            try:
                plan = FaultPlan(
                    [FaultSpec("serve.app.read", "reset", max_fires=1)], seed=0
                )
                with plan.activate():
                    with pytest.raises(ConnectionResetError):
                        await http_request(
                            "127.0.0.1", app.port, "GET", "/healthz"
                        )
                    status, body = await http_request(
                        "127.0.0.1", app.port, "GET", "/healthz"
                    )
                return plan.injected_count, status, json.loads(body)
            finally:
                await app.stop(drain_seconds=2.0)

        injected, status, health = asyncio.run(go())
        assert injected == 1
        assert status == 200
        assert health["status"] == "ok"

    def test_reset_on_write_loses_response_not_service(self):
        from repro.serve.app import ServerApp, http_request

        async def go():
            service = EstimationService(small_config())
            app = ServerApp(service)
            await app.start(host="127.0.0.1", port=0)
            try:
                plan = FaultPlan(
                    [FaultSpec("serve.app.write", "reset", max_fires=1)], seed=0
                )
                with plan.activate():
                    # The request is fully dispatched; only the response
                    # write dies, so the client sees a vanished peer.
                    with pytest.raises(ConnectionResetError):
                        await http_request(
                            "127.0.0.1", app.port, "POST", "/v1/simulate",
                            {"topology": "arpa", "m": 3},
                        )
                    status, body = await http_request(
                        "127.0.0.1", app.port, "POST", "/v1/simulate",
                        {"topology": "arpa", "m": 3},
                    )
                return plan.injected_count, status, json.loads(body)
            finally:
                await app.stop(drain_seconds=2.0)

        injected, status, answer = asyncio.run(go())
        assert injected == 1
        assert status == 200
        assert answer["degraded"] is False
        assert answer["source"] in ("table", "cache")


class TestInvariantCheckerDetectsViolations:
    """The checker must flag deliberately broken behavior — otherwise the
    50-schedule pass proves nothing."""

    @staticmethod
    def fake_service(tables=None, degraded_total=0):
        metrics = ServeMetrics()
        for _ in range(degraded_total):
            metrics.count_degraded()
        return SimpleNamespace(tables=tables or {}, metrics=metrics)

    @staticmethod
    def entry(payload, status, body):
        return {"payload": payload, "status": status, "body": body}

    def test_clean_responses_produce_no_violations(self):
        responses = [
            self.entry(
                {"topology": "arpa", "m": 2},
                200,
                {"degraded": False, "source": "simulation", "tree_size": 3.0},
            )
        ]
        assert check_serve_invariants(responses, self.fake_service()) == []

    def test_500_is_flagged(self):
        responses = [
            self.entry({"topology": "arpa", "m": 2}, 500, {"error": "boom"})
        ]
        violations = check_serve_invariants(responses, self.fake_service())
        assert len(violations) == 1
        assert "no-500-with-healthy-fallback" in violations[0]

    def test_degraded_answer_from_non_fallback_source_is_flagged(self):
        responses = [
            self.entry(
                {"topology": "arpa", "m": 2},
                200,
                {"degraded": True, "source": "simulation", "tree_size": 3.0},
            )
        ]
        violations = check_serve_invariants(
            responses, self.fake_service(degraded_total=1)
        )
        assert any("degraded-flag correctness" in v for v in violations)

    def test_non_degraded_answer_from_fallback_source_is_flagged(self):
        responses = [
            self.entry(
                {"topology": "arpa", "m": 2},
                200,
                {"degraded": False, "source": "closed-form", "tree_size": None},
            )
        ]
        violations = check_serve_invariants(responses, self.fake_service())
        assert any("degraded-flag correctness" in v for v in violations)

    def test_degraded_table_answer_not_matching_the_table_is_flagged(self):
        table = EstimatorTable.from_closed_form(3, 4)
        tree, _path = table.lookup(7)
        responses = [
            self.entry(
                {"topology": "arpa", "m": 7},
                200,
                {
                    "degraded": True,
                    "source": "table",
                    "tree_size": tree * 1.01,  # torn/mutated answer
                },
            )
        ]
        violations = check_serve_invariants(
            responses,
            self.fake_service(
                tables={("arpa", "distinct", "spt"): table}, degraded_total=1
            ),
        )
        assert any("error-bound under degradation" in v for v in violations)

    def test_degraded_table_answer_without_a_table_is_flagged(self):
        responses = [
            self.entry(
                {"topology": "arpa", "m": 7},
                200,
                {"degraded": True, "source": "table", "tree_size": 5.0},
            )
        ]
        violations = check_serve_invariants(
            responses, self.fake_service(degraded_total=1)
        )
        assert any("without a covering table" in v for v in violations)

    def test_metrics_drift_is_flagged(self):
        responses = [
            self.entry(
                {"topology": "arpa", "m": 2},
                200,
                {"degraded": True, "source": "closed-form", "tree_size": None},
            )
        ]
        # Metrics claim zero degraded answers; the responses show one.
        violations = check_serve_invariants(responses, self.fake_service())
        assert any("metrics drift" in v for v in violations)
