"""One fleet worker process: a ``ServerApp`` plus a control pipe.

:func:`fleet_worker_main` is the spawn entry point the supervisor hands
to ``multiprocessing.Process``.  Everything a worker needs crosses the
boundary in two picklable arguments:

* a :class:`FleetWorkerSpec` — worker id, :class:`ServiceConfig`, bind
  parameters, the shared table-store descriptor, and (for fault tests)
  a fault-plan dict activated in-process;
* one end of a ``multiprocessing.Pipe`` — the control channel.

The worker binds ``(host, port)`` itself with ``SO_REUSEPORT``; the
kernel load-balances new connections across the sibling binds.

Control protocol — ``(kind, payload)`` tuples, one reply per request:
``ping`` → ``pong`` (healthz snapshot), ``metrics`` → serve + obs
registry snapshots for the supervisor's fleet-wide merge, ``reload``
(descriptor) → attach-and-swap to a new table generation, ``stop`` →
graceful drain and exit.  The pipe is watched with ``loop.add_reader``
so the event loop never blocks on it; supervisor death reads as EOF and
the worker exits rather than serve unsupervised.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import os
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro import faults, obs
from repro.serve.app import ServerApp
from repro.serve.fleet.store import TableStoreDescriptor, attach_tables
from repro.serve.handlers import EstimationService, ServiceConfig

__all__ = [
    "CRASH_EXIT_CODE",
    "DRAIN_SECONDS",
    "FleetWorkerSpec",
    "fleet_worker_main",
]

logger = logging.getLogger("repro.serve.fleet.worker")

#: Exit code of a worker killed by a scripted ``crash`` fault — distinct
#: from signal deaths so the chaos suite can tell the two apart.
CRASH_EXIT_CODE = 73

#: How long a stopping worker lets in-flight requests finish.
DRAIN_SECONDS = 5.0

_FP_ACCEPT = faults.point(
    "fleet.socket.accept",
    "On accepting a connection in a fleet worker; 'reset' drops the "
    "connection before any request is read (the client retries onto a "
    "sibling), 'crash' kills the worker process abruptly — the "
    "supervisor's restart path is the behavior under test.",
)
_FP_SWAP = faults.point(
    "fleet.table.swap",
    "Before a worker attaches and installs a new table-store generation; "
    "a raise here must leave the previous generation serving (the "
    "supervisor recycles the worker to converge), 'crash' kills the "
    "worker mid-reload.",
)


@dataclass(frozen=True)
class FleetWorkerSpec:
    """Everything one worker needs, picklable across a spawn boundary.

    Note what is *not* here: no service object, no app, no tables (lint
    rule RR015 exists to keep it that way).  The worker constructs its
    own :class:`EstimationService` from the config and attaches tables
    from the shared store named by ``store``.
    """

    worker_id: int
    config: ServiceConfig
    host: str = "127.0.0.1"
    port: int = 0
    store: Optional[TableStoreDescriptor] = None
    fault_plan: Optional[dict] = None


class _FleetWorkerApp(ServerApp):
    """A ``ServerApp`` with the fleet's accept-time fault seam."""

    def __init__(self, service: EstimationService, worker_id: int) -> None:
        super().__init__(service)
        self._worker_id = worker_id

    async def _serve_connection(self, reader, writer) -> None:
        try:
            _FP_ACCEPT.fire(worker_id=self._worker_id)
        except faults.WorkerCrash:
            # Scripted abrupt death: no drain, no cleanup — exactly what
            # the supervisor must survive.
            os._exit(CRASH_EXIT_CODE)
        except (faults.FaultInjected, ConnectionResetError):
            writer.close()
            return
        await super()._serve_connection(reader, writer)


def _pump_control(conn, queue: "asyncio.Queue", loop) -> None:
    """Sync ``add_reader`` callback: one message off the pipe, enqueued."""
    try:
        message = conn.recv()
    except (EOFError, OSError):
        loop.remove_reader(conn.fileno())
        queue.put_nowait(("_eof", None))
        return
    queue.put_nowait(message)


async def _worker_async(spec: FleetWorkerSpec, conn) -> None:
    service = EstimationService(spec.config)
    if spec.store is not None:
        try:
            service.install_tables(
                attach_tables(spec.store), generation=spec.store.generation
            )
        except FileNotFoundError:
            # The spec's generation was reloaded away while we spawned.
            # Start anyway — table builds are seed-deterministic, so a
            # self-built table answers identically — and report
            # generation 0 in the ready handshake; the supervisor
            # responds with a reload to the current generation.
            logger.warning(
                "worker %d: store generation %d unlinked before attach; "
                "starting with self-built tables",
                spec.worker_id,
                spec.store.generation,
            )
    app = _FleetWorkerApp(service, worker_id=spec.worker_id)
    await app.start(host=spec.host, port=spec.port, reuse_port=True)

    loop = asyncio.get_running_loop()
    queue: "asyncio.Queue[Tuple[str, Any]]" = asyncio.Queue()
    loop.add_reader(conn.fileno(), _pump_control, conn, queue, loop)
    conn.send(
        (
            "ready",
            {
                "worker_id": spec.worker_id,
                "pid": os.getpid(),
                "port": app.port,
                "generation": service.table_generation,
            },
        )
    )
    try:
        while True:
            kind, payload = await queue.get()
            if kind == "_eof":
                break  # supervisor is gone; do not serve unsupervised
            if kind == "ping":
                health = service.handle_healthz()
                health["worker_id"] = spec.worker_id
                health["pid"] = os.getpid()
                conn.send(("pong", health))
            elif kind == "metrics":
                conn.send(
                    (
                        "metrics",
                        {
                            "worker_id": spec.worker_id,
                            "generation": service.table_generation,
                            "serve": service.metrics.to_dict(),
                            "obs": obs.default_registry().to_dict(),
                        },
                    )
                )
            elif kind == "reload":
                descriptor = payload
                try:
                    _FP_SWAP.fire(
                        worker_id=spec.worker_id,
                        generation=descriptor.generation,
                    )
                    tables = attach_tables(descriptor)
                except faults.WorkerCrash:
                    os._exit(CRASH_EXIT_CODE)
                except Exception as exc:
                    # The previous generation keeps serving; the
                    # supervisor decides whether to recycle us.
                    logger.warning(
                        "worker %d: table swap to generation %s failed: %s",
                        spec.worker_id,
                        descriptor.generation,
                        exc,
                    )
                    conn.send(
                        ("reload-failed", {"error": str(exc),
                                           "generation": service.table_generation})
                    )
                else:
                    service.install_tables(
                        tables, generation=descriptor.generation
                    )
                    conn.send(
                        ("reloaded", {"generation": service.table_generation})
                    )
            elif kind == "stop":
                conn.send(("stopping", {"worker_id": spec.worker_id}))
                break
            else:
                conn.send(("error", {"unknown": kind}))
    finally:
        loop.remove_reader(conn.fileno())
        await app.stop(drain_seconds=DRAIN_SECONDS)
        with contextlib.suppress(OSError, BrokenPipeError):
            conn.send(("stopped", {"worker_id": spec.worker_id}))
        conn.close()


def fleet_worker_main(spec: FleetWorkerSpec, conn) -> None:
    """Spawn entry point: run one worker until stopped or orphaned."""
    activation = contextlib.nullcontext()
    if spec.fault_plan is not None:
        activation = faults.FaultPlan.from_dict(spec.fault_plan).activate()
    with activation:
        asyncio.run(_worker_async(spec, conn))
