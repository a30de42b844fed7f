"""Chaos rounds over the algorithm axis: provenance never crosses tables.

25 seeded rounds drive an :class:`~repro.serve.EstimationService`
configured with per-algorithm tables (``spt`` + ``steiner-tm``) while a
seeded fault plan attacks the ``serve.table.build`` seam.  Each round
mixes ``algorithm`` values across requests — including a lazily-built
``dst-approx`` whose table construction the plan may kill mid-flight.

The invariant under test: an answer is never served from another
algorithm's table.  Concretely:

* SPT bodies never carry an ``algorithm`` or ``table_algorithm`` key
  (the byte-identity contract with pre-algorithm responses);
* non-SPT bodies echo the requested algorithm, and every table-backed
  one carries ``table_algorithm == requested``;
* non-degraded table answers match the matching per-algorithm table's
  own interpolation float-for-float;
* a killed lazy build degrades to closed-form — never to a covering
  table of a *different* algorithm;
* once the plan deactivates, the lazy build succeeds and the same
  request is served table-backed and non-degraded (recovery).
"""

from __future__ import annotations

import asyncio
import json

from repro.faults import FaultPlan, FaultSpec, VirtualClock
from repro.serve.handlers import EstimationService, ServiceConfig
from repro.utils.rng import ensure_rng

NUM_ROUNDS = 25
#: ``spt`` and ``steiner-tm`` get tables at startup; ``dst-approx`` is
#: only ever built lazily, under fire.
ALGORITHMS = ("spt", "steiner-tm", "dst-approx")
REQUESTS_PER_ROUND = 9


def algorithm_config() -> ServiceConfig:
    return ServiceConfig(
        topologies=("arpa",),
        algorithms=("spt", "steiner-tm"),
        num_sources=2,
        num_receiver_sets=2,
        deadline_seconds=5.0,
        executor_threads=2,
    )


def round_plan(seed: int, clock: VirtualClock) -> FaultPlan:
    """A seeded schedule aimed squarely at the table-build seam."""
    rng = ensure_rng(seed + 77)
    specs = [
        FaultSpec(
            point="serve.table.build",
            action=("raise", "timeout")[int(rng.integers(2))],
            probability=float(rng.uniform(0.4, 1.0)),
            max_fires=int(rng.integers(1, 4)),
        )
        for _ in range(int(rng.integers(1, 4)))
    ]
    return FaultPlan(specs, seed=seed, clock=clock, name=f"alg-chaos-{seed}")


def round_payloads(seed: int):
    """(requested_algorithm, payload) pairs cycling through the axis."""
    rng = ensure_rng(seed + 31)
    pairs = []
    for i in range(REQUESTS_PER_ROUND):
        algorithm = ALGORITHMS[i % len(ALGORITHMS)]
        payload = {"topology": "arpa", "m": int(rng.integers(1, 7))}
        # Half the SPT requests omit the key entirely: explicit "spt"
        # and absent must behave identically.
        if algorithm != "spt" or bool(rng.integers(2)):
            payload["algorithm"] = algorithm
        pairs.append((algorithm, payload))
    return pairs


async def post_simulate(service, payload):
    response = await service.dispatch(
        "POST", "/v1/simulate", json.dumps(payload).encode()
    )
    return response.status, json.loads(response.body.decode())


async def drain_flight(service):
    while len(service._flight):
        await asyncio.sleep(0)


def check_response(service, algorithm, payload, status, body):
    """Violation strings for one response against the provenance rules."""
    label = f"{payload} -> {status} {body}"
    if status != 200:
        return [f"non-200 under table-build faults: {label}"]
    violations = []
    if algorithm == "spt":
        if "algorithm" in body:
            violations.append(f"spt body grew an 'algorithm' key: {label}")
        if "table_algorithm" in body:
            violations.append(f"spt body grew 'table_algorithm': {label}")
    else:
        if body.get("algorithm") != algorithm:
            violations.append(
                f"requested {algorithm!r} but body says "
                f"{body.get('algorithm')!r}: {label}"
            )
        if body.get("source") == "table" and body.get("table_algorithm") != algorithm:
            violations.append(
                f"table answer for {algorithm!r} came from a "
                f"{body.get('table_algorithm')!r} table: {label}"
            )
    if body.get("source") == "table":
        table = service.tables.get(("arpa", "distinct", algorithm))
        if table is None or not table.covers(payload["m"]):
            violations.append(
                f"table answer without a covering {algorithm!r} table: {label}"
            )
        else:
            tree, _path = table.lookup(payload["m"])
            got = body.get("tree_size")
            if got is None or abs(got - tree) > 1e-9 * max(tree, 1.0):
                violations.append(
                    f"table answer {got} != the {algorithm!r} table's own "
                    f"interpolation {tree}: {label}"
                )
    return violations


async def run_round(seed: int):
    clock = VirtualClock()
    service = EstimationService(algorithm_config(), clock=clock)
    await service.startup()
    violations = []
    try:
        plan = round_plan(seed, clock)
        with plan.activate():
            for algorithm, payload in round_payloads(seed):
                status, body = await post_simulate(service, payload)
                violations.extend(
                    check_response(service, algorithm, payload, status, body)
                )
        injected = plan.injected_count
        # Recovery: with the plan gone, the dst-approx table build must
        # go through and answer with its *own* provenance.
        await drain_flight(service)
        status, body = await post_simulate(
            service, {"topology": "arpa", "m": 2, "algorithm": "dst-approx"}
        )
        if status != 200 or body.get("degraded"):
            violations.append(
                f"recovery broken: post-plan dst-approx got {status} {body}"
            )
        elif body.get("source") not in ("table", "cache"):
            violations.append(
                f"recovery not table-backed: {body.get('source')!r}: {body}"
            )
        else:
            violations.extend(
                check_response(
                    service,
                    "dst-approx",
                    {"topology": "arpa", "m": 2, "algorithm": "dst-approx"},
                    status,
                    body,
                )
            )
    finally:
        await service.shutdown()
    return violations, injected


class TestAlgorithmProvenanceUnderChaos:
    def test_twentyfive_seeded_rounds_never_cross_tables(self):
        async def go():
            results = []
            for seed in range(NUM_ROUNDS):
                results.append((seed, await run_round(seed)))
            return results

        results = asyncio.run(go())
        failed = [
            f"seed {seed}: " + "; ".join(violations)
            for seed, (violations, _injected) in results
            if violations
        ]
        assert not failed, "\n".join(failed)
        # The rounds must actually have hit the seam, not passed
        # vacuously on healthy builds.
        total_injected = sum(injected for _seed, (_v, injected) in results)
        assert total_injected > NUM_ROUNDS / 2, (
            f"only {total_injected} faults injected across {NUM_ROUNDS} rounds"
        )

    def test_killed_lazy_build_degrades_to_closed_form_not_foreign_table(self):
        # Deterministic pin of the headline property: while every
        # dst-approx build attempt dies, the spt and steiner-tm tables
        # both cover the query — and must not answer for it.
        async def go():
            service = EstimationService(
                algorithm_config(), clock=VirtualClock()
            )
            await service.startup()
            plan = FaultPlan(
                [FaultSpec("serve.table.build", "raise")], seed=0
            )
            with plan.activate():
                status, body = await post_simulate(
                    service,
                    {"topology": "arpa", "m": 3, "algorithm": "dst-approx"},
                )
            await drain_flight(service)
            tables = dict(service.tables)
            await service.shutdown()
            return status, body, tables, plan.injected_count

        status, body, tables, injected = asyncio.run(go())
        assert injected >= 1
        assert status == 200
        assert body["degraded"] is True
        # Both foreign tables cover m=3 yet the answer must be the
        # closed-form fallback with no absolute scale.
        assert tables[("arpa", "distinct", "spt")].covers(3)
        assert tables[("arpa", "distinct", "steiner-tm")].covers(3)
        assert body["source"] == "closed-form"
        assert body["algorithm"] == "dst-approx"
        assert body["tree_size"] is None
        assert "table_algorithm" not in body

    def test_cached_answers_keep_their_provenance(self):
        # A table-backed steiner-tm answer re-served from the response
        # cache must keep both provenance fields; the identical-m spt
        # answer must stay shaped like a pre-algorithm response.
        async def go():
            service = EstimationService(
                algorithm_config(), clock=VirtualClock()
            )
            await service.startup()
            first = await post_simulate(
                service,
                {"topology": "arpa", "m": 4, "algorithm": "steiner-tm"},
            )
            second = await post_simulate(
                service,
                {"topology": "arpa", "m": 4, "algorithm": "steiner-tm"},
            )
            spt = await post_simulate(service, {"topology": "arpa", "m": 4})
            await service.shutdown()
            return first, second, spt

        (s1, first), (s2, second), (s3, spt) = asyncio.run(go())
        assert s1 == s2 == s3 == 200
        assert first["source"] == "table"
        assert second["source"] == "cache"
        for body in (first, second):
            assert body["algorithm"] == "steiner-tm"
            assert body["table_algorithm"] == "steiner-tm"
        assert "algorithm" not in spt
        assert "table_algorithm" not in spt
