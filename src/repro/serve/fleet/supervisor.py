"""The fleet supervisor: spawn, watch, restart, reload, aggregate.

``FleetSupervisor`` owns everything the workers share:

* **The port.**  Every worker binds one ``(host, port)`` with
  ``SO_REUSEPORT`` and the kernel load-balances new connections across
  the sibling binds.  The supervisor holds a bound (never listening)
  *reservation socket* so the port survives worker restarts.
* **The tables.**  Built exactly once through a throwaway
  :class:`EstimationService` — the *same* startup code path a
  single-process server runs, so worker answers are byte-identical to
  the single-process ones — then published to shared memory
  (:func:`~repro.serve.fleet.store.publish_tables`) and attached
  zero-copy by every worker.  :meth:`reload_tables` publishes the next
  generation, tells live workers to attach-and-swap, and only then
  unlinks the old segment (laggard mappings stay valid until their
  views die — that is the zero-downtime contract).
* **The restarts.**  Worker death (crash fault, SIGKILL, anything)
  fires the process sentinel; the supervisor restarts the worker with
  seeded backoff jitter, rate-limited to :data:`RESTART_LIMIT` restarts
  per :data:`RESTART_WINDOW_SECONDS` before the slot is marked failed.
* **The fleet view.**  ``/metrics`` on the admin port folds every
  worker's serve + obs registry snapshot through
  :meth:`~repro.obs.registry.MetricsRegistry.merge`; ``/healthz``
  reports per-worker liveness, restart counts, and table generation;
  ``POST /v1/fleet/reload`` triggers a hot table reload.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import multiprocessing
import signal
import socket
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import faults
from repro.faults.clock import SystemClock
from repro.obs.registry import MetricsRegistry
from repro.serve.app import ServerApp
from repro.serve.fleet.store import publish_tables
from repro.serve.fleet.worker import (
    DRAIN_SECONDS,
    FleetWorkerSpec,
    fleet_worker_main,
)
from repro.serve.handlers import EstimationService, Response, ServiceConfig
from repro.utils.rng import ensure_rng
from repro.utils.segment import SegmentHandle

__all__ = ["FleetConfig", "FleetSupervisor", "FleetAdminService"]

logger = logging.getLogger("repro.serve.fleet")

#: How long a new worker may take to build its service and say ready.
READY_TIMEOUT_SECONDS = 120.0
#: How long one control-pipe roundtrip (ping, metrics, reload) may take.
CONTROL_TIMEOUT_SECONDS = 30.0
#: Base restart delay; each restart waits 1-2x this (seeded jitter).
RESTART_BACKOFF_SECONDS = 0.05
#: A slot restarted this many times within the window is marked failed.
RESTART_LIMIT = 5
RESTART_WINDOW_SECONDS = 30.0

_FP_SPAWN = faults.point(
    "fleet.worker.spawn",
    "Before the supervisor spawns (or respawns) a worker process; a "
    "raise here is a failed spawn — it consumes one restart-budget slot "
    "and the supervisor retries with backoff until the budget is spent.",
)


def _make_reservation_socket(host: str, port: int) -> socket.socket:
    """Bind (never listen) with SO_REUSEPORT to pin the fleet's port.

    A bound-not-listening socket reserves the address — the kernel only
    routes connections to *listening* REUSEPORT binds — so the port
    survives every worker being down at once (mass restart) without a
    connection ever landing on the supervisor.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((host, port))
    return sock


@dataclass(frozen=True)
class FleetConfig:
    """Fleet-level knobs (the CLI's ``--fleet-*`` flags map onto these)."""

    workers: int = 2
    host: str = "127.0.0.1"
    port: int = 0
    admin_port: int = 0
    service: ServiceConfig = field(default_factory=ServiceConfig)
    seed: int = 0
    #: Fault-plan dict shipped to (and activated inside) every worker —
    #: how tests script the worker-side ``fleet.*`` failures.
    worker_fault_plan: Optional[dict] = None

    def validate(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        self.service.validate()


class _WorkerHandle:
    """Supervisor-side state for one worker slot."""

    __slots__ = (
        "worker_id", "process", "conn", "lock", "restarts",
        "restart_times", "failed", "port", "watched", "restart_task",
        "ready",
    )

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.process = None
        self.conn = None
        self.lock = asyncio.Lock()
        self.restarts = 0
        self.restart_times: List[float] = []
        self.failed = False
        self.port: Optional[int] = None
        self.watched = False
        self.restart_task: Optional[asyncio.Task] = None
        self.ready = False

    def alive(self) -> bool:
        # ``ready`` gates the control pipe, not just the process: until
        # the "ready" handshake is consumed, a roundtrip on a freshly
        # respawned worker would read that handshake as its own reply.
        return (
            not self.failed
            and self.ready
            and self.process is not None
            and self.process.is_alive()
        )


class FleetAdminService:
    """Duck-typed service behind the supervisor's admin ``ServerApp``."""

    def __init__(self, supervisor: "FleetSupervisor") -> None:
        self.supervisor = supervisor

    async def startup(self) -> None:
        return None

    async def shutdown(self) -> None:
        return None

    async def dispatch(self, method: str, path: str, body: bytes) -> Response:
        try:
            if path == "/healthz":
                if method != "GET":
                    return Response.json(405, {"error": "/healthz expects GET"})
                return Response.json(200, await self.supervisor.healthz())
            if path == "/metrics":
                if method != "GET":
                    return Response.json(405, {"error": "/metrics expects GET"})
                return Response.text(
                    200, await self.supervisor.fleet_metrics_text()
                )
            if path == "/v1/fleet/reload":
                if method != "POST":
                    return Response.json(
                        405, {"error": "/v1/fleet/reload expects POST"}
                    )
                return Response.json(200, await self.supervisor.reload_tables())
            return Response.json(404, {"error": f"no such endpoint: {path}"})
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            logger.exception("fleet admin error serving %s %s", method, path)
            return Response.json(500, {"error": f"internal error: {exc}"})


class FleetSupervisor:
    """Spawn and supervise N ``ServerApp`` workers on one port."""

    def __init__(
        self, config: Optional[FleetConfig] = None, clock: Optional[Any] = None
    ) -> None:
        self.config = config or FleetConfig()
        self.config.validate()
        self._clock = clock if clock is not None else SystemClock()
        self._rng = ensure_rng(self.config.seed)
        self._ctx = multiprocessing.get_context("spawn")
        self._workers: Dict[int, _WorkerHandle] = {}
        self._store_handle: Optional[SegmentHandle] = None
        self._generation = 0
        self._reserve_sock: Optional[socket.socket] = None
        self._port: Optional[int] = None
        self._admin_app: Optional[ServerApp] = None
        self._stopping = False
        self._reload_lock = asyncio.Lock()
        registry = MetricsRegistry()
        self._g_workers = registry.gauge(
            "repro_fleet_workers", "Configured fleet size."
        )
        self._g_alive = registry.gauge(
            "repro_fleet_workers_alive", "Workers currently alive."
        )
        self._c_restarts = registry.counter(
            "repro_fleet_restarts_total",
            "Worker restarts performed by the supervisor.",
        )
        self._g_generation = registry.gauge(
            "repro_fleet_table_generation", "Current table-store generation."
        )
        self._registry = registry

    # -- public state ----------------------------------------------------

    @property
    def port(self) -> Optional[int]:
        """The serving port every worker answers on."""
        return self._port

    @property
    def admin_port(self) -> Optional[int]:
        return None if self._admin_app is None else self._admin_app.port

    @property
    def generation(self) -> int:
        return self._generation

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Build tables, claim the port, spawn workers, start the admin."""
        loop = asyncio.get_running_loop()
        tables = await self._build_tables()
        self._generation = 1
        self._store_handle = publish_tables(tables, generation=1)

        self._reserve_sock = await loop.run_in_executor(
            None, _make_reservation_socket, self.config.host, self.config.port
        )
        self._port = self._reserve_sock.getsockname()[1]

        for worker_id in range(self.config.workers):
            handle = _WorkerHandle(worker_id)
            self._workers[worker_id] = handle
            self._spawn(handle)
        await asyncio.gather(
            *(self._await_ready(h) for h in self._workers.values())
        )
        for handle in self._workers.values():
            self._watch(handle)

        self._admin_app = ServerApp(FleetAdminService(self))
        await self._admin_app.start(
            host=self.config.host, port=self.config.admin_port
        )

    async def stop(self) -> None:
        """Drain workers, reap processes, release every shared resource."""
        self._stopping = True
        for handle in self._workers.values():
            self._unwatch(handle)
            if handle.restart_task is not None:
                handle.restart_task.cancel()
        if self._admin_app is not None:
            await self._admin_app.stop(drain_seconds=1.0)
            self._admin_app = None
        for handle in self._workers.values():
            if handle.conn is not None and handle.alive():
                with contextlib.suppress(OSError, BrokenPipeError):
                    handle.conn.send(("stop", None))
        budget = DRAIN_SECONDS + 5.0
        for handle in self._workers.values():
            if handle.process is None:
                continue
            if not await self._wait_exit(handle.process, budget):
                logger.warning(
                    "fleet worker %d did not stop in time; terminating",
                    handle.worker_id,
                )
                handle.process.terminate()
                if not await self._wait_exit(handle.process, 2.0):
                    handle.process.kill()
                    await self._wait_exit(handle.process, 2.0)
            handle.process.join()
            if handle.conn is not None:
                handle.conn.close()
                handle.conn = None
        if self._store_handle is not None:
            self._store_handle.release()
            self._store_handle = None
        if self._reserve_sock is not None:
            self._reserve_sock.close()
            self._reserve_sock = None

    async def serve_forever(self) -> None:
        """Run until SIGINT/SIGTERM, then stop the whole fleet."""
        await self.start()
        stop_requested = asyncio.Event()
        loop = asyncio.get_running_loop()
        registered = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop_requested.set)
                registered.append(signum)
            except (NotImplementedError, RuntimeError):
                pass  # platform without loop signal support
        print(
            f"repro.serve fleet: {self.config.workers} workers on "
            f"http://{self.config.host}:{self.port}, admin on "
            f"http://{self.config.host}:{self.admin_port}"
        )
        try:
            await stop_requested.wait()
        finally:
            for signum in registered:
                loop.remove_signal_handler(signum)
            print("repro.serve fleet stopping...")
            await self.stop()
            print("repro.serve fleet stopped")

    # -- table build & reload --------------------------------------------

    async def _build_tables(self):
        """One table set via the exact single-process startup code path.

        Determinism does the heavy lifting here: ``from_sweep`` with a
        fixed seed is bit-reproducible, so the grids the workers attach
        are the grids a single-process server would have built — which
        is what makes fleet answers byte-identical to single-process
        ones.
        """
        builder = EstimationService(self.config.service, clock=self._clock)
        await builder.startup()
        tables = dict(builder.tables)
        await builder.shutdown()
        return tables

    async def reload_tables(self) -> Dict[str, Any]:
        """Zero-downtime reload: build → publish g+1 → swap → unlink g."""
        async with self._reload_lock:
            tables = await self._build_tables()
            new_generation = self._generation + 1
            new_handle = publish_tables(tables, generation=new_generation)
            old_handle = self._store_handle
            # Swap the supervisor's view first: any restart from here on
            # attaches the new generation.
            self._store_handle = new_handle
            self._generation = new_generation
            results: Dict[str, str] = {}
            for handle in list(self._workers.values()):
                if not handle.alive():
                    results[str(handle.worker_id)] = "dead"
                    continue
                try:
                    kind, payload = await self._roundtrip(
                        handle, ("reload", new_handle.descriptor)
                    )
                except (asyncio.TimeoutError, TimeoutError, EOFError, OSError) as exc:
                    # The worker is wedged or died mid-swap: recycle it;
                    # the restart attaches the new generation.
                    results[str(handle.worker_id)] = f"recycled ({type(exc).__name__})"
                    self._recycle(handle)
                    continue
                if kind == "reloaded":
                    results[str(handle.worker_id)] = "reloaded"
                else:
                    results[str(handle.worker_id)] = (
                        f"failed: {payload.get('error', kind)} (was serving "
                        f"generation {payload.get('generation')})"
                    )
                    self._recycle(handle)
            if old_handle is not None:
                # Workers that acked hold the new mapping; any laggard's
                # old mapping stays valid until its views die.  New
                # attachments can only land on the new generation.
                old_handle.release()
            return {"generation": new_generation, "workers": results}

    # -- spawning & supervision ------------------------------------------

    def _spec(self, worker_id: int) -> FleetWorkerSpec:
        assert self._store_handle is not None
        return FleetWorkerSpec(
            worker_id=worker_id,
            config=self.config.service,
            host=self.config.host,
            port=self._port or 0,
            store=self._store_handle.descriptor,
            fault_plan=self.config.worker_fault_plan,
        )

    def _spawn(self, handle: _WorkerHandle) -> None:
        """Start one worker process (fires the spawn fault seam)."""
        _FP_SPAWN.fire(worker_id=handle.worker_id, restarts=handle.restarts)
        handle.ready = False
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=fleet_worker_main,
            args=(self._spec(handle.worker_id), child_conn),
            daemon=True,
            name=f"repro-fleet-worker-{handle.worker_id}",
        )
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn

    async def _await_ready(self, handle: _WorkerHandle) -> None:
        kind, payload = await self._recv(handle, timeout=READY_TIMEOUT_SECONDS)
        if kind != "ready":
            raise RuntimeError(
                f"fleet worker {handle.worker_id} sent {kind!r} before ready"
            )
        handle.port = payload.get("port")
        handle.ready = True
        if (
            self._store_handle is not None
            and payload.get("generation") != self._generation
        ):
            await self._sync_generation(handle)

    async def _sync_generation(self, handle: _WorkerHandle) -> None:
        """Reload a worker that came up behind the current generation.

        A respawn races :meth:`reload_tables`: the spec's descriptor can
        be unlinked between spawn and the child's attach, in which case
        the worker starts on self-built tables (generation 0) rather
        than die.  Catch it up here; a bounded retry absorbs reloads
        landing mid-sync.
        """
        for _ in range(3):
            store = self._store_handle
            if store is None:
                return
            try:
                kind, payload = await self._roundtrip(
                    handle, ("reload", store.descriptor)
                )
            except (asyncio.TimeoutError, TimeoutError, EOFError, OSError):
                return  # died again; the sentinel path owns it now
            if kind == "reloaded" and payload.get("generation") == self._generation:
                return
        logger.warning(
            "fleet worker %d is still behind table generation %d",
            handle.worker_id, self._generation,
        )

    def _watch(self, handle: _WorkerHandle) -> None:
        if handle.watched or handle.process is None:
            return
        loop = asyncio.get_running_loop()
        loop.add_reader(
            handle.process.sentinel, self._on_worker_exit, handle
        )
        handle.watched = True

    def _unwatch(self, handle: _WorkerHandle) -> None:
        if not handle.watched or handle.process is None:
            return
        loop = asyncio.get_running_loop()
        with contextlib.suppress(ValueError, OSError):
            loop.remove_reader(handle.process.sentinel)
        handle.watched = False

    def _on_worker_exit(self, handle: _WorkerHandle) -> None:
        """Sentinel-readable callback: the worker process died."""
        self._unwatch(handle)
        if self._stopping or handle.failed:
            return
        handle.restart_task = asyncio.get_running_loop().create_task(
            self._restart(handle)
        )

    def _recycle(self, handle: _WorkerHandle) -> None:
        """Force a worker through the death-and-restart path."""
        if handle.process is not None and handle.process.is_alive():
            handle.process.terminate()
        # The sentinel watcher picks the death up and restarts.

    async def _restart(self, handle: _WorkerHandle) -> None:
        """Seeded, rate-limited restart of a dead worker slot."""
        exitcode = None
        if handle.process is not None:
            handle.process.join()
            exitcode = handle.process.exitcode
        if handle.conn is not None:
            handle.conn.close()
            handle.conn = None
        logger.warning(
            "fleet worker %d died (exitcode %s)", handle.worker_id, exitcode
        )
        while not self._stopping and not handle.failed:
            now = self._clock()
            handle.restart_times = [
                t for t in handle.restart_times
                if now - t <= RESTART_WINDOW_SECONDS
            ]
            if len(handle.restart_times) >= RESTART_LIMIT:
                handle.failed = True
                logger.error(
                    "fleet worker %d exceeded %d restarts in %.1fs; "
                    "marking the slot failed",
                    handle.worker_id, RESTART_LIMIT, RESTART_WINDOW_SECONDS,
                )
                return
            handle.restart_times.append(now)
            handle.restarts += 1
            self._c_restarts.inc()
            # Seeded jitter keeps chaos runs replayable and staggers a
            # mass restart instead of thundering onto the CPU at once.
            backoff = RESTART_BACKOFF_SECONDS * (1.0 + float(self._rng.random()))
            await self._clock.sleep(backoff)
            if self._stopping:
                return
            try:
                self._spawn(handle)
                await self._await_ready(handle)
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                logger.warning(
                    "fleet worker %d restart attempt failed: %s",
                    handle.worker_id, exc,
                )
                if handle.process is not None and handle.process.is_alive():
                    handle.process.kill()
                    handle.process.join()
                if handle.conn is not None:
                    handle.conn.close()
                    handle.conn = None
                continue
            self._watch(handle)
            logger.info(
                "fleet worker %d restarted (pid %s, restart #%d)",
                handle.worker_id, handle.process.pid, handle.restarts,
            )
            return

    # -- control-pipe plumbing -------------------------------------------

    async def _recv(
        self, handle: _WorkerHandle, timeout: Optional[float]
    ) -> Tuple[str, Any]:
        """One message off a worker's control pipe, without blocking."""
        conn = handle.conn
        if conn is None:
            raise EOFError(f"worker {handle.worker_id} has no control pipe")
        loop = asyncio.get_running_loop()
        fd = conn.fileno()
        readable = loop.create_future()

        def on_readable() -> None:
            loop.remove_reader(fd)
            if not readable.done():
                readable.set_result(None)

        loop.add_reader(fd, on_readable)
        try:
            await self._clock.wait_for(readable, timeout)
        finally:
            with contextlib.suppress(ValueError, OSError):
                loop.remove_reader(fd)
        # The frame is on the pipe (or the peer hung up, which recv()
        # reports as EOFError); either way this returns immediately.
        return conn.recv()

    async def _roundtrip(
        self,
        handle: _WorkerHandle,
        message: Tuple[str, Any],
    ) -> Tuple[str, Any]:
        async with handle.lock:
            if handle.conn is None:
                raise EOFError(f"worker {handle.worker_id} has no control pipe")
            handle.conn.send(message)
            return await self._recv(handle, CONTROL_TIMEOUT_SECONDS)

    # -- fleet-wide views ------------------------------------------------

    async def healthz(self) -> Dict[str, Any]:
        """Per-worker liveness, restart counts, and table generation."""
        workers = []
        alive = 0
        for worker_id in sorted(self._workers):
            handle = self._workers[worker_id]
            entry: Dict[str, Any] = {
                "worker_id": worker_id,
                "pid": None if handle.process is None else handle.process.pid,
                "alive": handle.alive(),
                "failed": handle.failed,
                "restarts": handle.restarts,
            }
            if handle.alive():
                alive += 1
                try:
                    kind, payload = await self._roundtrip(handle, ("ping", None))
                except (asyncio.TimeoutError, TimeoutError, EOFError, OSError):
                    entry["alive"] = False
                    entry["error"] = "control ping failed"
                else:
                    if kind == "pong":
                        entry["generation"] = payload.get("table_generation")
                        entry["inflight_requests"] = payload.get(
                            "inflight_requests"
                        )
                        entry["status"] = payload.get("status")
            workers.append(entry)
        return {
            "status": "ok" if alive > 0 else "down",
            "workers": workers,
            "fleet": {
                "configured_workers": self.config.workers,
                "alive_workers": alive,
                "port": self._port,
                "table_generation": self._generation,
                "total_restarts": sum(
                    h.restarts for h in self._workers.values()
                ),
            },
        }

    async def fleet_metrics_text(self) -> str:
        """The aggregated Prometheus document behind admin ``/metrics``.

        Supervisor gauges first, then every live worker's serve
        registry folded into one (counters and histograms add), then
        the workers' obs registries likewise.
        """
        serve_merged = MetricsRegistry()
        obs_merged = MetricsRegistry()
        alive = 0
        for handle in list(self._workers.values()):
            if not handle.alive():
                continue
            try:
                kind, payload = await self._roundtrip(handle, ("metrics", None))
            except (asyncio.TimeoutError, TimeoutError, EOFError, OSError):
                continue
            if kind != "metrics":
                continue
            alive += 1
            serve_merged.merge(payload["serve"])
            obs_merged.merge(payload["obs"])
        self._g_workers.set(float(self.config.workers))
        self._g_alive.set(float(alive))
        self._g_generation.set(float(self._generation))
        return (
            self._registry.render()
            + serve_merged.render()
            + obs_merged.render()
        )

    # -- internals -------------------------------------------------------

    async def _wait_exit(self, process, timeout: float) -> bool:
        """Await a process's sentinel; True iff it exited in time."""
        if not process.is_alive():
            return True
        loop = asyncio.get_running_loop()
        exited = loop.create_future()

        def on_exit() -> None:
            with contextlib.suppress(ValueError, OSError):
                loop.remove_reader(process.sentinel)
            if not exited.done():
                exited.set_result(True)

        try:
            loop.add_reader(process.sentinel, on_exit)
        except (ValueError, OSError):
            return not process.is_alive()
        try:
            await self._clock.wait_for(exited, timeout)
            return True
        except (asyncio.TimeoutError, TimeoutError):
            return False
        finally:
            with contextlib.suppress(ValueError, OSError):
                loop.remove_reader(process.sentinel)
