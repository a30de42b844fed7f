"""Direct-handler tests for the estimation service (no sockets).

Everything here drives :class:`EstimationService` coroutines straight
through :meth:`dispatch`/``handle_*`` inside ``asyncio.run``, which is
the point of keeping the answer policy out of the socket layer: the
coalescing, deadline-degradation, and caching behaviors are all
assertable without binding a port.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro.analysis.kary_asymptotic import (
    lhat_asymptotic,
    lm_asymptotic,
    lm_exact_via_conversion,
)
from repro.analysis.kary_exact import (
    lhat_leaf,
    lhat_throughout,
    num_interior_sites,
    num_leaf_sites,
)
from repro.analysis.scaling import draws_for_expected_distinct, expected_distinct
from repro.faults import VirtualClock
from repro.serve import EstimationService, ServiceConfig

#: Relative tolerance the acceptance criteria demand between
#: ``/v1/estimate`` and the repro.analysis closed forms.
REL_TOL = 1e-9


def run(coro):
    return asyncio.run(coro)


def small_config(**overrides) -> ServiceConfig:
    fields = dict(
        topologies=("arpa",),
        num_sources=4,
        num_receiver_sets=4,
        seed=0,
        executor_threads=2,
    )
    fields.update(overrides)
    return ServiceConfig(**fields)


async def started_service(**overrides) -> EstimationService:
    service = EstimationService(small_config(**overrides))
    await service.startup()
    return service


def post_json(service, path, payload):
    async def go():
        try:
            return await service.dispatch(
                "POST", path, json.dumps(payload).encode()
            )
        finally:
            await service.shutdown()

    return run(go())


class TestEstimate:
    """``/v1/estimate`` must agree with the closed forms to <= 1e-9."""

    def _estimate(self, payload):
        service = EstimationService(small_config())
        return run(service.handle_estimate(payload))

    def test_leaf_exact_from_n(self):
        answer = self._estimate({"k": 4, "depth": 7, "n": 100})
        assert answer["tree_size"] == pytest.approx(
            lhat_leaf(4.0, 7, 100.0), rel=REL_TOL
        )
        assert answer["population"] == pytest.approx(num_leaf_sites(4.0, 7))
        assert answer["m"] == pytest.approx(
            expected_distinct(100.0, num_leaf_sites(4.0, 7)), rel=REL_TOL
        )

    def test_leaf_exact_from_m(self):
        answer = self._estimate({"k": 3, "depth": 8, "m": 250})
        assert answer["tree_size"] == pytest.approx(
            lm_exact_via_conversion(3.0, 8, 250.0), rel=REL_TOL
        )
        assert answer["n"] == pytest.approx(
            draws_for_expected_distinct(250.0, num_leaf_sites(3.0, 8)),
            rel=REL_TOL,
        )

    def test_throughout_exact_from_n(self):
        answer = self._estimate(
            {"k": 4, "depth": 6, "n": 50, "receivers": "throughout"}
        )
        assert answer["tree_size"] == pytest.approx(
            lhat_throughout(4.0, 6, 50.0), rel=REL_TOL
        )
        assert answer["population"] == pytest.approx(num_interior_sites(4.0, 6))

    def test_throughout_exact_from_m(self):
        population = num_interior_sites(2.0, 10)
        n = draws_for_expected_distinct(40.0, population)
        answer = self._estimate(
            {"k": 2, "depth": 10, "m": 40, "receivers": "throughout"}
        )
        assert answer["tree_size"] == pytest.approx(
            lhat_throughout(2.0, 10, n), rel=REL_TOL
        )

    def test_asymptotic_forms(self):
        by_n = self._estimate(
            {"k": 4, "depth": 9, "n": 300, "form": "asymptotic"}
        )
        assert by_n["tree_size"] == pytest.approx(
            lhat_asymptotic(4.0, 9, 300.0), rel=REL_TOL
        )
        by_m = self._estimate(
            {"k": 4, "depth": 9, "m": 300, "form": "asymptotic"}
        )
        assert by_m["tree_size"] == pytest.approx(
            lm_asymptotic(4.0, 9, 300.0), rel=REL_TOL
        )

    def test_per_receiver_is_tree_over_n(self):
        answer = self._estimate({"k": 2, "depth": 12, "n": 64})
        assert answer["per_receiver"] == pytest.approx(
            answer["tree_size"] / answer["n"], rel=REL_TOL
        )

    @pytest.mark.parametrize(
        "payload,fragment",
        [
            ({"depth": 5, "n": 10}, "'k'"),
            ({"k": 2, "depth": 5}, "exactly one of"),
            ({"k": 2, "depth": 5, "n": 10, "m": 10}, "exactly one of"),
            ({"k": 2, "depth": 5.5, "n": 10}, "integer"),
            ({"k": True, "depth": 5, "n": 10}, "number"),
            (
                {
                    "k": 2,
                    "depth": 5,
                    "n": 10,
                    "receivers": "throughout",
                    "form": "asymptotic",
                },
                "leaf receivers",
            ),
            ({"k": 2, "depth": 5, "n": 10, "form": "napkin"}, "one of"),
        ],
    )
    def test_estimate_rejections(self, payload, fragment):
        response = post_json(
            EstimationService(small_config()), "/v1/estimate", payload
        )
        assert response.status == 400
        assert fragment in json.loads(response.body)["error"]


class TestSimulateLadder:
    def test_table_then_cache(self):
        async def go():
            service = await started_service()
            first = await service.handle_simulate({"topology": "arpa", "m": 5})
            second = await service.handle_simulate({"topology": "arpa", "m": 5})
            table = service.tables[("arpa", "distinct", "spt")]
            await service.shutdown()
            return first, second, table

        first, second, table = run(go())
        assert first["source"] == "table"
        assert first["degraded"] is False
        tree, path = table.lookup(5)
        assert first["tree_size"] == pytest.approx(tree, rel=1e-12)
        assert first["mean_unicast_path"] == pytest.approx(path, rel=1e-12)
        assert first["rel_error_bound"] == table.rel_error_bound
        # Identical repeat is a response-cache hit with the same numbers.
        assert second["source"] == "cache"
        assert second["tree_size"] == first["tree_size"]

    def test_exact_bypasses_table_and_reports_samples(self):
        async def go():
            service = await started_service()
            answer = await service.handle_simulate(
                {"topology": "arpa", "m": 5, "exact": True}
            )
            await service.shutdown()
            return answer

        answer = run(go())
        assert answer["source"] == "simulation"
        assert answer["degraded"] is False
        assert answer["num_samples"] == 16  # 4 sources x 4 receiver sets
        assert answer["tree_size"] > 0
        assert answer["normalized_tree_size"] > 0

    def test_lazy_table_for_unconfigured_topology(self):
        async def go():
            service = await started_service()
            assert ("r100", "distinct", "spt") not in service.tables
            answer = await service.handle_simulate({"topology": "r100", "m": 9})
            installed = ("r100", "distinct", "spt") in service.tables
            await service.shutdown()
            return answer, installed

        answer, installed = run(go())
        assert answer["source"] == "table"
        assert installed

    @pytest.mark.parametrize(
        "payload,fragment",
        [
            ({"m": 5}, "topology"),
            ({"topology": "atlantis", "m": 5}, "atlantis"),
            ({"topology": "arpa"}, "'m'"),
            ({"topology": "arpa", "m": 0}, "positive integer"),
            ({"topology": "arpa", "m": 2.5}, "positive integer"),
            ({"topology": "arpa", "m": 5, "deadline_ms": -1}, "deadline_ms"),
            ({"topology": "arpa", "m": 5, "mode": "bogus"}, "one of"),
            ({"topology": "arpa", "m": 5, "exact": "yes"}, "boolean"),
        ],
    )
    def test_simulate_rejections(self, payload, fragment):
        response = post_json(
            EstimationService(small_config()), "/v1/simulate", payload
        )
        assert response.status == 400
        assert fragment in json.loads(response.body)["error"]


class TestReplacementSizeBound:
    """Replacement sizes stop at the table grid's 4·N top knot (arpa: 188)."""

    def test_top_knot_is_served_and_one_past_it_is_refused(self, monkeypatch):
        from repro.experiments import runner

        draws = []
        real = runner.sample_receivers_with_replacement_sweep

        def counting(*args, **kwargs):
            draws.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(
            runner, "sample_receivers_with_replacement_sweep", counting
        )

        async def go():
            service = await started_service()
            try:
                refused = [
                    await service.dispatch(
                        "POST",
                        "/v1/simulate",
                        json.dumps(
                            dict(
                                {"topology": "arpa", "m": 189,
                                 "mode": "replacement"},
                                **extra,
                            )
                        ).encode(),
                    )
                    for extra in ({}, {"exact": True})
                ]
                draws_before_top = len(draws)
                top = await service.handle_simulate(
                    {"topology": "arpa", "m": 188, "mode": "replacement"}
                )
            finally:
                await service.shutdown()
            return refused, draws_before_top, top

        refused, draws_before_top, top = run(go())
        assert [response.status for response in refused] == [400, 400]
        for response in refused:
            assert "at most 4 x 47 nodes = 188" in json.loads(response.body)["error"]
        assert draws_before_top == 0  # refused before any sampler ran
        assert top["source"] == "table"
        assert top["degraded"] is False
        assert draws  # the 188 table build did sample: the counter is live


class TestCoalescing:
    def test_identical_concurrent_requests_run_one_simulation(self):
        calls = []
        release = threading.Event()

        async def go():
            service = await started_service()
            real = service._simulate_sync

            def gated(name, m, mode, algorithm="spt"):
                calls.append((name, m, mode))
                release.wait(timeout=10)
                return real(name, m, mode, algorithm)

            service._simulate_sync = gated
            started_before = service._flight.started
            payload = {"topology": "arpa", "m": 7, "exact": True}
            tasks = [
                asyncio.ensure_future(service.handle_simulate(dict(payload)))
                for _ in range(8)
            ]
            # Wait until every follower has joined the leader's flight,
            # then let the single backend run finish.
            while service._flight.coalesced < 7:
                await asyncio.sleep(0.005)
            release.set()
            answers = await asyncio.gather(*tasks)
            flight = (
                service._flight.started - started_before,
                service._flight.coalesced,
            )
            await service.shutdown()
            return answers, flight

        answers, (started, coalesced) = run(go())
        assert len(calls) == 1  # exactly one backend simulation
        # Startup's graph/table builds are flights too; the 8 simulate
        # requests add exactly one more leader and seven followers.
        assert started == 1
        assert coalesced == 7
        assert all(a["source"] == "simulation" for a in answers)
        assert len({a["tree_size"] for a in answers}) == 1

    def test_metrics_expose_coalesce_ratio(self):
        async def go():
            service = await started_service()
            payload = {"topology": "arpa", "m": 3, "exact": True}
            await asyncio.gather(
                *(service.handle_simulate(dict(payload)) for _ in range(4))
            )
            text = service.handle_metrics()
            await service.shutdown()
            return text

        text = run(go())
        # The startup table build is one flight too; the simulate flight
        # adds its followers.
        assert "repro_serve_coalesced_total 3" in text
        assert "repro_serve_coalesce_ratio" in text


@pytest.mark.wallclock
class TestTableSpeedup:
    def test_table_answers_ten_times_faster_than_exact_simulation(self):
        """The table layer's reason to exist: >= 10x per-request Monte Carlo.

        Every table request is a cache miss (each size once per lap, the
        response cache cleared between laps), and every exact request
        is a fresh 2 x 3-sample simulation on a size of its own.
        """

        async def timed(service, payloads):
            start = time.perf_counter()
            for payload in payloads:
                response = await service.dispatch(
                    "POST", "/v1/simulate", json.dumps(payload).encode()
                )
                assert response.status == 200, response.body
            return len(payloads) / (time.perf_counter() - start)

        async def go():
            service = await started_service(num_sources=2, num_receiver_sets=3)
            table = service.tables[("arpa", "distinct", "spt")]
            sizes = range(table.m_min, table.m_max + 1)
            table_rates = []
            for _ in range(4):
                service._cache.clear()
                table_rates.append(await timed(
                    service, [{"topology": "arpa", "m": m} for m in sizes]
                ))
            exact_rate = await timed(service, [
                {"topology": "arpa", "m": m, "exact": True}
                for m in (3, 11, 23, 37)
            ])
            await service.shutdown()
            return sum(table_rates) / len(table_rates), exact_rate

        table_rate, exact_rate = run(go())
        assert table_rate >= 10 * exact_rate, (
            f"table {table_rate:.0f} req/s vs exact simulation "
            f"{exact_rate:.0f} req/s: below the 10x floor"
        )


class TestDeadlineDegradation:
    def _slow_service_answer(self, payload):
        """One simulate against a backend that outlives the deadline.

        The service runs on a :class:`VirtualClock`: the backend stalls
        on a real event, the deadline passes because the test *advances
        time*, so nothing here waits out a wall-clock 50 ms.
        """
        release = threading.Event()

        async def go():
            clock = VirtualClock()
            service = EstimationService(small_config(), clock=clock)
            await service.startup()
            real = service._simulate_sync

            def stalled(name, m, mode, algorithm="spt"):
                release.wait(timeout=10)
                return real(name, m, mode, algorithm)

            service._simulate_sync = stalled
            request = asyncio.ensure_future(service.handle_simulate(payload))
            # Once the deadline timer is registered the backend is in
            # flight; advancing past the deadline degrades the caller.
            while clock.pending_timers == 0:
                await asyncio.sleep(0)
            clock.advance(1.0)
            answer = await request
            cache_len = len(service._cache)
            # Unblock the abandoned backend run and let it drain so the
            # event loop closes cleanly.
            release.set()
            while len(service._flight):
                await asyncio.sleep(0.005)
            await service.shutdown()
            return answer, cache_len

        return run(go())

    def test_covered_query_degrades_to_table(self):
        answer, cache_len = self._slow_service_answer(
            {"topology": "arpa", "m": 6, "exact": True, "deadline_ms": 50}
        )
        assert answer["degraded"] is True
        assert answer["source"] == "table"
        assert answer["tree_size"] is not None
        assert cache_len == 0  # degraded answers are never cached

    def test_uncovered_query_degrades_to_closed_form(self):
        # No (arpa, replacement) table exists, so the fallback is the
        # Chuang-Sirbu law itself: normalized-only, no absolute sizes.
        answer, cache_len = self._slow_service_answer(
            {
                "topology": "arpa",
                "m": 6,
                "mode": "replacement",
                "exact": True,
                "deadline_ms": 50,
            }
        )
        assert answer["degraded"] is True
        assert answer["source"] == "closed-form"
        assert answer["tree_size"] is None
        assert answer["normalized_tree_size"] == pytest.approx(6**0.8)
        assert cache_len == 0

    def test_degradation_is_counted(self):
        answer, _ = self._slow_service_answer(
            {"topology": "arpa", "m": 6, "exact": True, "deadline_ms": 50}
        )
        assert answer["degraded"] is True


class TestHealthAndMetrics:
    def test_healthz_before_and_after_startup(self):
        async def go():
            service = EstimationService(small_config())
            before = service.handle_healthz()
            await service.startup()
            after = service.handle_healthz()
            await service.shutdown()
            return before, after

        before, after = run(go())
        assert before["status"] == "starting"
        assert before["tables"] == []
        assert after["status"] == "ok"
        assert [t["name"] for t in after["tables"]] == ["arpa"]
        assert after["tables"][0]["source"] == "simulation"

    def test_metrics_render_after_traffic(self):
        async def go():
            service = await started_service()
            await service.dispatch(
                "POST", "/v1/simulate", b'{"topology": "arpa", "m": 4}'
            )
            await service.dispatch("GET", "/healthz", b"")
            response = await service.dispatch("GET", "/metrics", b"")
            await service.shutdown()
            return response

        response = run(go())
        assert response.status == 200
        assert response.content_type.startswith("text/plain")
        text = response.body.decode()
        assert 'repro_serve_requests_total{endpoint="simulate",status="200"} 1' in text
        assert 'repro_serve_answers_total{source="table"} 1' in text
        assert "repro_serve_request_latency_seconds_bucket" in text
        assert "repro_serve_response_cache_hit_ratio" in text


class TestDispatchRouting:
    def _dispatch(self, method, path, body=b""):
        async def go():
            service = EstimationService(small_config())
            try:
                return await service.dispatch(method, path, body)
            finally:
                await service.shutdown()

        return run(go())

    def test_unknown_path_404(self):
        assert self._dispatch("GET", "/v2/estimate").status == 404

    def test_wrong_methods_405(self):
        assert self._dispatch("GET", "/v1/estimate").status == 405
        assert self._dispatch("POST", "/healthz").status == 405
        assert self._dispatch("POST", "/metrics").status == 405

    def test_invalid_json_400(self):
        assert self._dispatch("POST", "/v1/estimate", b"{nope").status == 400
        assert self._dispatch("POST", "/v1/estimate", b"[1, 2]").status == 400

    @pytest.mark.parametrize(
        "path, body",
        [
            ("/v1/simulate", b'{"topology": "arpa", "m": NaN}'),
            ("/v1/simulate", b'{"topology": "arpa", "m": Infinity}'),
            ("/v1/estimate", b'{"k": 2, "depth": NaN, "m": 3}'),
            ("/v1/estimate", b'{"k": 2, "depth": 3000, "m": 3}'),
            ("/v1/estimate", b'{"k": 2, "depth": 3, "n": NaN}'),
            (
                "/v1/simulate",
                b'{"topology": "arpa", "m": 5, "deadline_ms": NaN}',
            ),
        ],
    )
    def test_non_finite_or_overflowing_numbers_400(self, path, body):
        # json.loads accepts NaN and Infinity; each body once answered
        # 500, or 200 with a NaN that is not valid JSON.
        response = self._dispatch("POST", path, body)
        assert response.status == 400
        assert "error" in json.loads(response.body)

    def test_unexpected_exception_becomes_500(self):
        async def go():
            service = EstimationService(small_config())

            async def boom(payload):
                raise RuntimeError("kaboom")

            service.handle_estimate = boom
            response = await service.dispatch(
                "POST", "/v1/estimate", b"{}"
            )
            await service.shutdown()
            return response

        response = run(go())
        assert response.status == 500
        assert "internal error" in json.loads(response.body)["error"]

    def test_every_response_is_observed_in_metrics(self):
        async def go():
            service = EstimationService(small_config())
            await service.dispatch("GET", "/missing", b"")
            await service.dispatch("POST", "/v1/estimate", b"{}")
            text = service.handle_metrics()
            await service.shutdown()
            return text

        text = run(go())
        assert 'endpoint="unknown",status="404"' in text
        assert 'endpoint="estimate",status="400"' in text
