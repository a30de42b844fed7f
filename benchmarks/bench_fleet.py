"""Aggregate throughput of the multi-process serving fleet.

Boots two fleets over real sockets — a 1-worker baseline and an
N-worker fleet on the same :class:`ServiceConfig` — and drives both
with a concurrent connection-per-request client, then repeats the
fleet phase while SIGKILLing one worker mid-load:

1. **single phase** — 1 worker, C concurrent clients.  Aggregate req/s
   and p50/p99 over the socket (so the number includes kernel accept
   and HTTP framing).
2. **fleet phase** — N workers on one ``SO_REUSEPORT`` port.  Reports
   aggregate req/s and ``per_worker_efficiency`` =
   ``aggregate / (workers x single)`` — on a box with fewer CPUs than
   workers this is *expected* to sit near ``cpus/workers``; the gate
   below is what is hardware-honest, not the raw efficiency.
3. **kill phase** — the same load while one worker is SIGKILLed at
   one-third progress.  The retrying client must land every request
   (lost = 0) and the reported p99 includes any retry stalls — the
   price of a worker death.

The ``--check-fleet-floor X`` gate is hardware-aware like
``bench_runner_scaling``'s: it requires
``fleet_rps >= X * single_rps * min(workers, cpus)``, so a 1-CPU CI box
only demands the fleet not fall below ``X`` of one core's throughput,
while a many-core box demands real scaling.

Usage::

    python benchmarks/bench_fleet.py            # full workload
    python benchmarks/bench_fleet.py --smoke --check-fleet-floor 0.5
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from repro.serve import ServiceConfig
from repro.serve.app import http_request
from repro.serve.fleet import FleetConfig, FleetSupervisor
from repro.utils.rng import ensure_rng

#: ``m_hi`` stays inside the served table's grid (r100 covers 1..99,
#: arpa 1..46) so every request is a table interpolation — the fleet's
#: steady-state hot path — rather than a fall-through simulation.
FULL = dict(topology="r100", requests=2000, concurrency=16,
            workers=2, sources=10, receiver_sets=20, m_hi=99)
SMOKE = dict(topology="arpa", requests=300, concurrency=8,
             workers=2, sources=2, receiver_sets=3, m_hi=40)


def _percentiles(latencies: List[float]) -> Dict[str, float]:
    ordered = np.sort(np.asarray(latencies))
    return {
        "p50_ms": round(float(ordered[len(ordered) // 2]) * 1e3, 4),
        "p99_ms": round(float(ordered[int(len(ordered) * 0.99)]) * 1e3, 4),
    }


async def _one_request(port: int, payload: dict, attempts: int = 7):
    """One request, retrying connection-level failures (at-least-once).

    The returned latency spans first byte of the first attempt to the
    final response — retry stalls after a worker kill are *in* the p99,
    not hidden by per-attempt timing.
    """
    t0 = time.perf_counter()
    last: Optional[BaseException] = None
    for attempt in range(attempts):
        try:
            status, _body = await http_request(
                "127.0.0.1", port, "POST", "/v1/simulate", payload
            )
            return status, time.perf_counter() - t0, attempt
        except (ConnectionResetError, ConnectionRefusedError, OSError) as exc:
            last = exc
            await asyncio.sleep(min(0.05 * 2 ** attempt, 1.0))
    raise AssertionError(f"request lost after {attempts} attempts: {last!r}")


async def _drive(port: int, payloads: List[dict], concurrency: int,
                 kill_pid_at: Optional[Dict] = None) -> Dict:
    """Aggregate load: ``concurrency`` client coroutines share the queue."""
    queue: "asyncio.Queue[dict]" = asyncio.Queue()
    for payload in payloads:
        queue.put_nowait(payload)
    latencies: List[float] = []
    retries = 0
    non_200 = 0
    completed = 0

    async def client() -> None:
        nonlocal retries, non_200, completed
        while True:
            try:
                payload = queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            status, latency, attempt = await _one_request(port, payload)
            latencies.append(latency)
            retries += attempt
            completed += 1
            if status != 200:
                non_200 += 1
            if (
                kill_pid_at is not None
                and not kill_pid_at.get("done")
                and completed >= kill_pid_at["after"]
            ):
                kill_pid_at["done"] = True
                os.kill(kill_pid_at["pid"], signal.SIGKILL)

    start = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(concurrency)))
    seconds = time.perf_counter() - start
    stats = {
        "requests": len(payloads),
        "concurrency": concurrency,
        "seconds": round(seconds, 4),
        "req_per_sec": round(len(payloads) / seconds, 1),
        "retried": retries,
        "non_200": non_200,
    }
    stats.update(_percentiles(latencies))
    return stats


async def _with_fleet(config: FleetConfig, body):
    fleet = FleetSupervisor(config)
    await fleet.start()
    try:
        return await body(fleet)
    finally:
        await fleet.stop()


async def _bench(topology: str, requests: int, concurrency: int,
                 workers: int, sources: int, receiver_sets: int,
                 m_hi: int, seed: int) -> dict:
    service_config = ServiceConfig(
        topologies=(topology,),
        num_sources=sources,
        num_receiver_sets=receiver_sets,
        seed=seed,
    )
    rng = ensure_rng(seed)
    cpus = os.cpu_count() or 1

    def fleet_config(n: int) -> FleetConfig:
        return FleetConfig(workers=n, service=service_config, seed=seed)

    async def payloads_for(fleet: FleetSupervisor) -> List[dict]:
        # Sizes drawn from the served table's range; fresh draw per
        # phase so caches neither help nor hurt the comparison unfairly
        # (both baseline and fleet see the same distribution).
        health = await fleet.healthz()
        del health  # warm the control path before timing
        return [
            {"topology": topology, "m": int(m)}
            for m in rng.integers(1, m_hi + 1, size=requests)
        ]

    print(f"workload: {topology}, {requests} socket requests x "
          f"{concurrency} concurrent clients, {workers}-worker fleet, "
          f"{cpus} cpu(s)")

    async def single_phase(fleet: FleetSupervisor) -> Dict:
        return await _drive(fleet.port, await payloads_for(fleet), concurrency)

    single = await _with_fleet(fleet_config(1), single_phase)
    print(f"  single:  {single['req_per_sec']:>10.1f} req/s  "
          f"p99 {single['p99_ms']:.3f} ms")

    async def fleet_phases(fleet: FleetSupervisor) -> Dict:
        steady = await _drive(
            fleet.port, await payloads_for(fleet), concurrency
        )
        health = await fleet.healthz()
        victim = next(
            w["pid"] for w in health["workers"] if w["alive"]
        )
        kill = await _drive(
            fleet.port, await payloads_for(fleet), concurrency,
            kill_pid_at={"pid": victim, "after": requests // 3},
        )
        # Let supervision finish before stop() so the result reflects a
        # healed fleet, and assert nothing was lost.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            health = await fleet.healthz()
            if health["fleet"]["alive_workers"] == workers:
                break
            await asyncio.sleep(0.1)
        kill["restarts"] = health["fleet"]["total_restarts"]
        kill["alive_after"] = health["fleet"]["alive_workers"]
        return {"steady": steady, "kill": kill}

    phases = await _with_fleet(fleet_config(workers), fleet_phases)
    fleet_stats, kill_stats = phases["steady"], phases["kill"]
    print(f"  fleet:   {fleet_stats['req_per_sec']:>10.1f} req/s  "
          f"p99 {fleet_stats['p99_ms']:.3f} ms")
    print(f"  kill:    {kill_stats['req_per_sec']:>10.1f} req/s  "
          f"p99 {kill_stats['p99_ms']:.3f} ms  "
          f"retried {kill_stats['retried']}, "
          f"restarts {kill_stats['restarts']}")

    if kill_stats["non_200"] or fleet_stats["non_200"] or single["non_200"]:
        raise AssertionError("a phase saw a non-200 response")
    if kill_stats["alive_after"] != workers:
        raise AssertionError(
            f"fleet did not heal: {kill_stats['alive_after']}/{workers} alive"
        )

    speedup = fleet_stats["req_per_sec"] / single["req_per_sec"]
    efficiency = speedup / workers
    print(f"  speedup fleet-vs-single {speedup:.2f}x, per-worker "
          f"efficiency {efficiency:.2f} on {cpus} cpu(s)")

    return {"cpus": cpus, "speedup_fleet_vs_single": round(speedup, 3)}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload (CI-friendly, seconds)")
    parser.add_argument("--topology", default=None)
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--concurrency", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None,
                        help="fleet size for the multi-worker phases")
    parser.add_argument("--sources", type=int, default=None)
    parser.add_argument("--receiver-sets", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--check-fleet-floor", type=float, default=None,
                        metavar="X",
                        help="exit nonzero unless fleet req/s >= "
                             "X * single req/s * min(workers, cpus)")
    args = parser.parse_args(argv)

    params = dict(SMOKE if args.smoke else FULL)
    for key in ("topology", "requests", "concurrency", "workers",
                "sources", "receiver_sets", "m_hi"):
        arg = getattr(args, key, None)
        value = arg if arg is not None else params.get(key)
        params[key] = value
    record = asyncio.run(_bench(seed=args.seed, **params))

    if args.check_fleet_floor is not None:
        scale = min(params["workers"], record["cpus"])
        floor = args.check_fleet_floor * scale
        speedup = record["speedup_fleet_vs_single"]
        if speedup < floor:
            print(f"FLEET FLOOR FAILED: speedup {speedup:.2f} < "
                  f"{args.check_fleet_floor} * min(workers={params['workers']}, "
                  f"cpus={record['cpus']}) = {floor:.2f}")
            return 1
        print(f"fleet floor ok: {speedup:.2f} >= {floor:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
