"""Seeded chaos rounds against the estimation service.

One *round* = build a small :class:`~repro.serve.EstimationService` on a
:class:`~repro.faults.clock.VirtualClock`, derive a random
:class:`~repro.faults.plan.FaultPlan` from the round's seed, fire a
deterministic batch of requests (sequential and concurrent) while the
plan is active, then check the system invariants the serving layer
documents:

* **no-500-with-healthy-fallback** — every valid request is answered
  with HTTP 200 even while the backend is failing, because the table /
  closed-form fallback tiers stay healthy;
* **degraded-flag correctness** — ``degraded: true`` iff a fallback
  tier produced the answer (and the ``/metrics`` degraded counter
  agrees with the responses);
* **degraded answers are real answers** — a degraded table answer
  matches the table's own interpolation (the documented
  ``rel_error_bound`` contract is checked against exact Eq. 4 by the
  chaos test suite using a closed-form table);
* **no hung waiters** — the whole round completes under a wall-clock
  backstop even when coalesced leaders are killed mid-flight;
* **recovery** — once the plan deactivates, the next exact request is
  served non-degraded.

Both ``tests/test_chaos_serve.py`` and ``benchmarks/chaos_smoke.py``
drive rounds through :func:`run_serve_rounds`; a failing round reports
its seed so the schedule can be replayed exactly
(``run_serve_round(seed=<N>)``).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.faults.clock import VirtualClock
from repro.faults.plan import FaultPlan, FaultSpec

__all__ = [
    "CHAOS_SERVE_POINTS",
    "ChaosReport",
    "random_serve_plan",
    "run_serve_round",
    "run_serve_rounds",
]

#: The serve-side seams a random schedule may target, with the actions
#: that make sense there.  ``serve.app.*`` points are exercised by the
#: dedicated socket tests instead — injecting resets below the HTTP
#: framing layer would make per-request invariants unobservable here.
CHAOS_SERVE_POINTS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("serve.backend.simulate", ("raise", "timeout", "delay")),
    ("serve.table.build", ("raise", "timeout")),
    ("serve.graph.build", ("raise",)),
    ("forest_cache.compute", ("raise",)),
    ("forest_cache.evict_race", ("raise",)),
)

#: Wall-clock ceiling for one round; tripping it means waiters hung.
ROUND_WALL_TIMEOUT_SECONDS = 20.0


@dataclass
class ChaosReport:
    """What one chaos round did and whether the invariants held."""

    seed: int
    plan: Dict[str, Any]
    injected: int
    responses: List[Dict[str, Any]] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        state = "ok" if self.ok else "FAILED"
        head = (
            f"chaos seed {self.seed}: {state} "
            f"({len(self.responses)} responses, {self.injected} faults injected)"
        )
        if self.ok:
            return head
        lines = [head] + [f"  - {violation}" for violation in self.violations]
        lines.append(f"  replay: run_serve_round(seed={self.seed})")
        return "\n".join(lines)


def random_serve_plan(seed: int, clock: VirtualClock) -> FaultPlan:
    """A seeded random schedule over :data:`CHAOS_SERVE_POINTS`."""
    from repro.utils.rng import ensure_rng

    rng = ensure_rng(seed)
    specs: List[FaultSpec] = []
    for name, actions in CHAOS_SERVE_POINTS:
        if float(rng.random()) < 0.3:
            continue  # leave this seam healthy for this round
        action = actions[int(rng.integers(len(actions)))]
        specs.append(
            FaultSpec(
                point=name,
                action=action,
                probability=float(rng.uniform(0.3, 1.0)),
                max_fires=int(rng.integers(1, 5)),
                delay_seconds=(
                    float(rng.uniform(0.5, 12.0)) if action == "delay" else 0.0
                ),
            )
        )
    if not specs:  # a round must inject *something* to be interesting
        specs.append(FaultSpec(point="serve.backend.simulate", action="raise"))
    return FaultPlan(specs, seed=seed, clock=clock, name=f"chaos-{seed}")


def _round_payloads(seed: int, m_max: int) -> List[Dict[str, Any]]:
    """The deterministic request batch for one round."""
    from repro.utils.rng import ensure_rng

    rng = ensure_rng(seed + 1_000_003)
    sizes = [int(rng.integers(1, max(2, m_max + 1))) for _ in range(4)]
    payloads: List[Dict[str, Any]] = [
        {"topology": "arpa", "m": sizes[0]},
        {"topology": "arpa", "m": sizes[1], "exact": True},
        {"topology": "arpa", "m": sizes[2], "mode": "replacement", "exact": True},
        {"topology": "arpa", "m": sizes[3], "exact": True},
    ]
    return payloads


async def _post_simulate(service, payload: Dict[str, Any]) -> Dict[str, Any]:
    response = await service.dispatch(
        "POST", "/v1/simulate", json.dumps(payload).encode()
    )
    return {
        "payload": payload,
        "status": response.status,
        "body": json.loads(response.body.decode()),
    }


def check_serve_invariants(
    responses: Sequence[Dict[str, Any]], service
) -> List[str]:
    """Violation strings for the documented serving invariants."""
    violations: List[str] = []
    degraded_seen = 0
    for entry in responses:
        payload, status, body = entry["payload"], entry["status"], entry["body"]
        label = f"{payload} -> {status}"
        if status != 200:
            violations.append(
                f"no-500-with-healthy-fallback broken: {label}: {body}"
            )
            continue
        degraded = body.get("degraded")
        source = body.get("source")
        if degraded:
            degraded_seen += 1
            if source not in ("table", "closed-form"):
                violations.append(
                    f"degraded-flag correctness broken: degraded answer from "
                    f"non-fallback source {source!r}: {label}"
                )
        elif source not in ("table", "cache", "simulation"):
            violations.append(
                f"degraded-flag correctness broken: non-degraded answer from "
                f"fallback-only source {source!r}: {label}"
            )
        if degraded and source == "table":
            table = service.tables.get(
                (
                    payload["topology"],
                    payload.get("mode", "distinct"),
                    payload.get("algorithm", "spt"),
                )
            )
            if table is None or not table.covers(payload["m"]):
                violations.append(
                    f"degraded table answer without a covering table: {label}"
                )
            else:
                tree, _path = table.lookup(payload["m"])
                got = body.get("tree_size")
                if got is None or abs(got - tree) > 1e-9 * max(tree, 1.0):
                    violations.append(
                        "error-bound under degradation broken: degraded "
                        f"tree_size {got} != table interpolation {tree}: {label}"
                    )
    if service.metrics.degraded_total != degraded_seen:
        violations.append(
            "metrics drift: degraded_total="
            f"{service.metrics.degraded_total} but {degraded_seen} degraded "
            "responses observed"
        )
    return violations


async def run_serve_round(
    seed: int, config: Optional[Any] = None
) -> ChaosReport:
    """Execute one seeded chaos round and check every invariant."""
    from repro.serve.handlers import EstimationService, ServiceConfig

    clock = VirtualClock()
    config = config or ServiceConfig(
        topologies=("arpa",),
        num_sources=2,
        num_receiver_sets=2,
        deadline_seconds=5.0,
        executor_threads=2,
    )
    service = EstimationService(config, clock=clock)
    await service.startup()
    plan = random_serve_plan(seed, clock)
    report = ChaosReport(seed=seed, plan=plan.to_dict(), injected=0)

    async def drive() -> None:
        payloads = _round_payloads(seed, service.tables[("arpa", "distinct", "spt")].m_max)
        with plan.activate():
            # Sequential half: each request sees the schedule alone.
            for payload in payloads[:2]:
                report.responses.append(await _post_simulate(service, payload))
            # Concurrent half: identical exact queries coalesce onto one
            # leader; if the schedule kills the leader, every waiter must
            # still come back with an answer (degraded is fine, hung is
            # not).
            burst = [dict(payloads[2]) for _ in range(3)] + [payloads[3]]
            report.responses.extend(
                await asyncio.gather(
                    *(_post_simulate(service, payload) for payload in burst)
                )
            )
        report.injected = plan.injected_count
        # Recovery: with the plan gone, an exact query must be served
        # fresh (drain the in-flight backend runs the schedule orphaned
        # first so the coalescer cannot hand us a poisoned flight).
        while len(service._flight):
            await asyncio.sleep(0)
        recovery = await _post_simulate(
            service, {"topology": "arpa", "m": 2, "exact": True}
        )
        if recovery["status"] != 200 or recovery["body"].get("degraded"):
            report.violations.append(
                f"recovery broken: post-plan exact request got "
                f"{recovery['status']} {recovery['body']}"
            )

    try:
        # Real-time backstop: a hung coalesce waiter fails the round
        # instead of hanging the suite.
        await asyncio.wait_for(drive(), timeout=ROUND_WALL_TIMEOUT_SECONDS)
    except asyncio.TimeoutError:
        report.violations.append(
            "no-hung-waiters broken: round did not complete within "
            f"{ROUND_WALL_TIMEOUT_SECONDS}s wall-clock"
        )
    finally:
        await service.shutdown()
    report.violations.extend(check_serve_invariants(report.responses, service))
    return report


def run_serve_rounds(seeds: Sequence[int]) -> List[ChaosReport]:
    """Run many rounds (fresh event loop each) and collect reports."""
    return [asyncio.run(run_serve_round(seed)) for seed in seeds]
