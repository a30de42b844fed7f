"""The asyncio socket front end: HTTP framing, drain, selftest.

Stdlib only — :func:`asyncio.start_server` plus a minimal HTTP/1.1
reader (request line, headers, ``Content-Length`` bodies, keep-alive).
Everything interesting happens one layer down in
:meth:`~repro.serve.handlers.EstimationService.dispatch`; this module's
job is framing and lifecycle:

* **Graceful shutdown** — SIGINT/SIGTERM stops the listener first,
  then waits (bounded) for in-flight connections to drain before the
  process exits; a second signal abandons the drain.
* **Selftest** — ``run_selftest`` boots a real server on an ephemeral
  port, issues one request per endpoint over actual sockets, checks the
  estimate answer against the closed forms and the simulate answer
  against the service's own table, and returns nonzero on any mismatch
  (the CLI's ``--selftest`` and ``make serve-smoke`` use it).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
from typing import Dict, Optional, Set, Tuple

from repro import faults
from repro.serve.handlers import EstimationService, Response, ServiceConfig

__all__ = ["ServerApp", "run_selftest", "http_request"]

_FP_APP_READ = faults.point(
    "serve.app.read",
    "Before reading the next request off a connection; 'reset' simulates "
    "the client vanishing mid-keep-alive — the connection is dropped, the "
    "service itself is untouched.",
)
_FP_APP_WRITE = faults.point(
    "serve.app.write",
    "Before draining a response to the socket; 'reset' simulates the "
    "client disappearing under a written response, 'delay' a slow reader.",
)

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 4 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _render_response(response: Response, keep_alive: bool) -> bytes:
    reason = _REASONS.get(response.status, "Unknown")
    head = (
        f"HTTP/1.1 {response.status} {reason}\r\n"
        f"Content-Type: {response.content_type}\r\n"
        f"Content-Length: {len(response.body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    )
    return head.encode("ascii") + response.body


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """One ``(method, path, headers, body)``; None on clean EOF."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ValueError("connection closed mid-request")
    except asyncio.LimitOverrunError:
        raise ValueError("request head too large")
    if len(head) > _MAX_HEADER_BYTES:
        raise ValueError("request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise ValueError(f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _sep, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length < 0 or length > _MAX_BODY_BYTES:
        raise ValueError(f"unacceptable content-length {length}")
    body = await reader.readexactly(length) if length else b""
    path = target.split("?", 1)[0]
    return method.upper(), path, headers, body


class ServerApp:
    """Bind an :class:`EstimationService` to a listening socket."""

    def __init__(self, service: EstimationService) -> None:
        self.service = service
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.Task] = set()
        self._stopping = asyncio.Event()

    @property
    def port(self) -> Optional[int]:
        if self._server is None or not self._server.sockets:
            return None
        return self._server.sockets[0].getsockname()[1]

    async def start(
        self,
        host: str = "127.0.0.1",
        port: int = 8321,
        *,
        reuse_port: bool = False,
    ) -> None:
        """Start listening.

        ``reuse_port`` sets ``SO_REUSEPORT`` so sibling fleet workers can
        bind the same ``(host, port)`` and let the kernel spread accepted
        connections across them.
        """
        await self.service.startup()
        self._server = await asyncio.start_server(
            self._serve_connection, host=host, port=port, reuse_port=reuse_port
        )

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        # Race each read against the stop event: a keep-alive connection
        # sitting idle between requests must not hold the drain hostage
        # (it exits the moment stop() fires), while a request already on
        # the wire when stop() lands is still read and answered — that
        # is the drain's whole contract.
        stop_wait = asyncio.ensure_future(self._stopping.wait())
        try:
            while not self._stopping.is_set():
                _FP_APP_READ.fire()
                read = asyncio.ensure_future(_read_request(reader))
                await asyncio.wait(
                    {read, stop_wait}, return_when=asyncio.FIRST_COMPLETED
                )
                if not read.done():
                    # Stopping while idle: abandon the read, close now.
                    read.cancel()
                    with contextlib.suppress(asyncio.CancelledError):
                        await read
                    break
                try:
                    request = read.result()
                except (ValueError, asyncio.IncompleteReadError) as exc:
                    writer.write(
                        _render_response(
                            Response.json(400, {"error": str(exc)}),
                            keep_alive=False,
                        )
                    )
                    break
                if request is None:
                    break
                method, path, headers, body = request
                response = await self.service.dispatch(method, path, body)
                keep_alive = (
                    headers.get("connection", "keep-alive").lower() != "close"
                    and not self._stopping.is_set()
                )
                _FP_APP_WRITE.fire()
                writer.write(_render_response(response, keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; nothing to clean up but the socket
        finally:
            stop_wait.cancel()
            writer.close()

    async def stop(self, drain_seconds: float = 10.0) -> None:
        """Stop listening, then wait for in-flight connections to drain.

        Idle keep-alive connections close immediately (their read loop
        races the stop event); only connections with a request actually
        in flight consume the drain budget.  Stragglers past the budget
        are cancelled and awaited so their cleanup finishes before the
        service shuts down.
        """
        self._stopping.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        pending = {t for t in self._connections if not t.done()}
        if pending:
            _done, stragglers = await asyncio.wait(pending, timeout=drain_seconds)
            for task in stragglers:
                task.cancel()
            if stragglers:
                await asyncio.wait(stragglers, timeout=1.0)
        await self.service.shutdown()

    async def serve_forever(self, host: str, port: int) -> None:
        """Run until SIGINT/SIGTERM, then drain and return."""
        await self.start(host=host, port=port)
        stop_requested = asyncio.Event()
        loop = asyncio.get_running_loop()

        def request_stop() -> None:
            if stop_requested.is_set():
                # Second signal: abandon the drain immediately.
                for connection in self._connections:
                    connection.cancel()
            stop_requested.set()

        registered = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, request_stop)
                registered.append(signum)
            except (NotImplementedError, RuntimeError):
                pass  # platform without loop signal support; rely on KeyboardInterrupt
        print(f"repro.serve listening on http://{host}:{self.port}")
        try:
            await stop_requested.wait()
        finally:
            for signum in registered:
                loop.remove_signal_handler(signum)
            print("repro.serve draining in-flight requests...")
            await self.stop()
            print("repro.serve stopped")


async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Optional[dict] = None,
) -> Tuple[int, bytes]:
    """Minimal stdlib HTTP client (the selftest's probe)."""
    body = json.dumps(payload).encode("utf-8") if payload is not None else b""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(head.encode("ascii") + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
    header_end = raw.find(b"\r\n\r\n")
    if header_end < 0:
        raise ConnectionResetError("connection closed before a full response")
    status = int(raw[:header_end].split(b"\r\n")[0].split(b" ")[1])
    return status, raw[header_end + 4 :]


async def run_selftest(
    config: Optional[ServiceConfig] = None,
    plan: Optional["faults.FaultPlan"] = None,
) -> int:
    """One request per endpoint over real sockets; 0 iff all pass.

    Two more probes post a ``NaN`` group size and a replacement-mode
    size past the table grid's ``4 x nodes`` top knot; each must come
    back as a typed 400.

    With a ``plan`` (the CLI's ``--fault-plan``), the schedule is active
    while the probes run: the selftest then accepts *degraded* simulate
    answers (that is the behavior under test) but still fails on any
    non-200, on a degraded answer from a non-fallback source, and on a
    degraded answer appearing with no plan active.
    """
    from repro.analysis.kary_exact import lhat_leaf

    config = config or ServiceConfig(
        topologies=("arpa",), num_sources=4, num_receiver_sets=8
    )
    service = EstimationService(config)
    app = ServerApp(service)
    await app.start(host="127.0.0.1", port=0)
    failures = []
    activation = plan.activate() if plan is not None else contextlib.nullcontext()
    try:
        port = app.port
        assert port is not None
        with activation:
            status, body = await http_request(
                "127.0.0.1", port, "POST", "/v1/estimate",
                {"k": 4, "depth": 7, "n": 100},
            )
            estimate = json.loads(body)
            expected = float(lhat_leaf(4.0, 7, 100.0))
            if status != 200:
                failures.append(f"estimate returned {status}: {estimate}")
            elif abs(estimate["tree_size"] - expected) > 1e-9 * expected:
                failures.append(
                    f"estimate mismatch: {estimate['tree_size']} vs {expected}"
                )

            topology = config.topologies[0]
            status, body = await http_request(
                "127.0.0.1", port, "POST", "/v1/simulate",
                {"topology": topology, "m": 5},
            )
            simulate = json.loads(body)
            table = service.tables.get((topology, "distinct", "spt"))
            if status != 200 or table is None:
                failures.append(f"simulate returned {status}: {simulate}")
            elif simulate.get("degraded"):
                if plan is None:
                    failures.append(
                        f"simulate degraded without a fault plan: {simulate}"
                    )
                elif simulate["source"] not in ("table", "closed-form"):
                    failures.append(
                        "degraded simulate from non-fallback source "
                        f"{simulate['source']!r}"
                    )
            else:
                tree, _path = table.lookup(5)
                if simulate["source"] not in ("table", "cache"):
                    failures.append(
                        f"simulate not table-served: {simulate['source']}"
                    )
                elif abs(simulate["tree_size"] - tree) > 1e-12 * tree:
                    failures.append(
                        f"simulate mismatch: {simulate['tree_size']} vs {tree}"
                    )

            # json.dumps writes NaN, which json.loads accepts: a typed
            # 400, never a 500.
            status, body = await http_request(
                "127.0.0.1", port, "POST", "/v1/simulate",
                {"topology": topology, "m": float("nan")},
            )
            if status != 400:
                failures.append(f"NaN m returned {status}, not 400: {body!r}")

            over = 4 * service._graphs[topology].num_nodes + 1
            status, body = await http_request(
                "127.0.0.1", port, "POST", "/v1/simulate",
                {"topology": topology, "m": over, "mode": "replacement"},
            )
            if status != 400:
                failures.append(
                    f"replacement m={over} returned {status}, not 400: {body!r}"
                )

            status, body = await http_request(
                "127.0.0.1", port, "GET", "/healthz"
            )
            health = json.loads(body)
            if status != 200 or health.get("status") != "ok":
                failures.append(f"healthz returned {status}: {health}")

            status, body = await http_request(
                "127.0.0.1", port, "GET", "/metrics"
            )
            metrics_text = body.decode("utf-8")
            if status != 200 or "repro_serve_requests_total" not in metrics_text:
                failures.append(f"metrics returned {status}")
    finally:
        await app.stop(drain_seconds=2.0)
    for failure in failures:
        print(f"selftest FAIL: {failure}")
    if not failures:
        suffix = f" (fault plan {plan.name!r} active)" if plan is not None else ""
        print(
            f"selftest OK: estimate, simulate, NaN and over-range "
            f"rejection, healthz, metrics{suffix}"
        )
    return 1 if failures else 0
