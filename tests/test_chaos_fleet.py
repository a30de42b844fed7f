"""Fleet chaos suite: 50 seeded rounds of reload + SIGKILL under load.

One fleet, fifty rounds.  Every round serves a handful of requests and
hot-reloads the table store to the next generation; every tenth round a
seeded RNG picks a worker and SIGKILLs it mid-load.  The invariants —
the acceptance criteria of the fleet subsystem, verbatim:

* **no request is ever failed**: the client retries connection-level
  resets (an in-flight connection dying with its worker is an
  at-least-once delivery question, documented in ``docs/fleet.md``),
  and every delivered answer must be a 200 — degraded at worst, never
  a 5xx;
* **every reload converges**: each live worker acks ``reloaded`` (or is
  recycled onto the new generation), the supervisor's generation is
  strictly monotonic, and no shared segment leaks;
* **the fleet heals**: by the end, every worker slot is alive and the
  restart counters account for exactly the scripted kills.
"""

from __future__ import annotations

import asyncio
import os
import random
import signal
import time

from repro.serve.app import http_request
from repro.serve.fleet import FleetConfig, FleetSupervisor
from repro.serve.handlers import ServiceConfig

NUM_ROUNDS = 50
KILL_EVERY = 10
SEED = 0xC5


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


async def resilient_request(host, port, method, path, payload, attempts=8):
    """The documented client contract: retry connection-level failures.

    A worker dying under an accepted connection may reset it; delivery
    is at-least-once for idempotent reads.  What the client must never
    see is a completed response with a 5xx status.
    """
    last = None
    for attempt in range(attempts):
        try:
            return await http_request(host, port, method, path, payload)
        except (ConnectionResetError, ConnectionRefusedError, OSError) as exc:
            last = exc
            await asyncio.sleep(min(0.05 * 2 ** attempt, 2.0))
    raise AssertionError(f"request never completed after retries: {last!r}")


async def wait_for_alive(fleet, want, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        health = await fleet.healthz()
        if health["fleet"]["alive_workers"] >= want:
            return health
        await asyncio.sleep(0.1)
    raise AssertionError(f"fleet never returned to {want} live workers")


class TestFleetChaos:
    def test_fifty_rounds_of_reload_and_kill_never_fail_a_request(self):
        rng = random.Random(SEED)

        async def go():
            fleet = FleetSupervisor(
                FleetConfig(
                    workers=2,
                    service=small_config(),
                    seed=SEED,
                )
            )
            await fleet.start()
            statuses = []
            degraded = 0
            kills = 0
            try:
                for round_no in range(NUM_ROUNDS):
                    if round_no % KILL_EVERY == KILL_EVERY - 1:
                        # One scripted failure at a time: the fleet must
                        # be whole again before the next kill (rounds run
                        # far faster than a 1-CPU process respawn, and
                        # killing the *only* live worker is a scripted
                        # total outage, not a supervision test).
                        health = await wait_for_alive(fleet, want=2)
                        live = [
                            w for w in health["workers"]
                            if w["alive"] and w["pid"] is not None
                        ]
                        victim = rng.choice(live)
                        os.kill(victim["pid"], signal.SIGKILL)
                        kills += 1
                    for _ in range(3):
                        status, body = await resilient_request(
                            "127.0.0.1", fleet.port, "POST", "/v1/simulate",
                            {"topology": "arpa", "m": rng.randrange(2, 40)},
                        )
                        statuses.append(status)
                        if b'"degraded": true' in body:
                            degraded += 1
                    result = await fleet.reload_tables()
                    assert result["generation"] == round_no + 2
                    for status_text in result["workers"].values():
                        # A worker may be dead or recycled mid-kill; it
                        # must never report a failed swap on a live ack.
                        assert not status_text.startswith("failed"), result
                final = await wait_for_alive(fleet, want=2)
                generation = fleet.generation
            finally:
                await fleet.stop()
            return statuses, degraded, kills, final, generation

        statuses, degraded, kills, final, generation = asyncio.run(go())
        assert len(statuses) == NUM_ROUNDS * 3
        assert all(status < 500 for status in statuses)
        assert statuses.count(200) == len(statuses)  # nothing even 4xx'd
        assert kills == NUM_ROUNDS // KILL_EVERY
        assert generation == NUM_ROUNDS + 1
        assert final["fleet"]["alive_workers"] == 2
        assert final["fleet"]["total_restarts"] >= kills
        assert final["fleet"]["table_generation"] == NUM_ROUNDS + 1
        # Restarted workers must come back on the *current* generation —
        # a stale attach would serve old tables silently.
        for worker in final["workers"]:
            assert worker["generation"] == NUM_ROUNDS + 1
        # Degradation is permitted under kill-chaos, but it should be
        # the exception, not the steady state.
        assert degraded <= len(statuses) // 10
