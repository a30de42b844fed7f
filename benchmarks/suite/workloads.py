"""The benchmark's workloads: inputs, timed operations and output checks.

Each workload has one reason to exist (see ``README.md``):

* ``paper-sweep``   the paper's Section-2 sweep on the 10k-node Internet
                    map: sampling and the tree walk, no store.
* ``million-store`` store-backed sweeps on a 1M-node map: connectivity,
                    BFS and store work, almost no walk.
* ``builder-mix``   one round of the four tree builders on identical
                    draws: the builders, not the walk.
* ``serve-mix``     a closed loop of cheap reads against a server
                    answering from the fleet's shared tables.
* ``serve-exact``   an open loop of exact simulations, each one a fresh
                    Monte-Carlo run behind the same handlers.

Every input derives from the run's ``--seed``.  A workload's *op* is the
unit its latency metrics count: a sweep, a builder round, a request.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.experiments import runner
from repro.experiments.config import MonteCarloConfig
from repro.graph import distance_store, paths
from repro.graph.forest_cache import default_forest_cache
from repro.topology import powerlaw, registry
from repro.utils.rng import ensure_rng

import layers

SUITE_DIR = Path(__file__).resolve().parent
ROOT = SUITE_DIR.parents[1]

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Ops whose outputs the digest covers; every run measures at least this
#: many, however short ``--seconds`` is.
DIGEST_OPS = 2
#: Share of a traced run's seconds measured untraced, for the overhead.
UNTRACED_SHARE = 0.4
#: Seed-sequence entry reserved for warm-up draws (ops use their index).
WARMUP = 1 << 30


@dataclass
class Op:
    index: int
    start: float
    end: float
    output: Any
    traced: bool = False


@dataclass
class Measured:
    """What one run measured, before it becomes metrics."""

    setup_s: List[float]
    ops: List[Op]
    failures: List[str]
    peak_rss_mb: float
    digest: str
    detail: Dict[str, Any] = field(default_factory=dict)
    #: Per-op latency in seconds (defaults to op end - start).
    latencies: Optional[List[float]] = None
    #: Per-op kind, the path its answer took (default: one kind).
    kinds: Optional[List[str]] = None
    setup_spans: List[Dict[str, Any]] = field(default_factory=list)
    timed_spans: List[Dict[str, Any]] = field(default_factory=list)
    ratios: Dict[str, float] = field(default_factory=dict)
    extra_layers: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    #: The obs registry snapshot of the measured process (traced runs).
    registry: Dict[str, Any] = field(default_factory=dict)


def seed_for(seed: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, index])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sweep_bytes(measurement) -> bytes:
    """Canonical bytes of a ``SweepMeasurement`` (floats by ``repr``)."""
    return repr((
        measurement.topology, measurement.mode, measurement.algorithm,
        measurement.sizes, measurement.mean_ratio, measurement.mean_tree_size,
        measurement.mean_unicast_path, measurement.std_tree_size,
        measurement.num_samples, measurement.num_nodes,
    )).encode()


def digest_of(chunks: Sequence[bytes]) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(len(chunk).to_bytes(8, "little"))
        digest.update(chunk)
    return digest.hexdigest()


def work_dir() -> str:
    """A private directory under the checkout's ``.bench_build``, so a
    run writes nowhere outside its checkout (the program's own shared
    table segments in ``/dev/shm`` aside)."""
    base = ROOT / ".bench_build"
    base.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix="suite-", dir=base)


# ----------------------------------------------------------------------
# Sweep workloads (in-process)
# ----------------------------------------------------------------------


class SweepWorkload:
    """A workload whose op is one or more ``measure_sweep`` calls."""

    name = ""
    why = ""

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke

    def setup(self) -> Any:
        raise NotImplementedError

    def op(self, state: Any, index: int) -> Any:
        raise NotImplementedError

    def check(self, state: Any, output: Any) -> List[str]:
        sizes = output.mean_tree_size
        if not all(np.isfinite(sizes)) or min(sizes) <= 0:
            return [f"{self.name}: non-positive tree size {sizes}"]
        return []

    def final_checks(self, state: Any) -> List[str]:
        return []

    def close(self, state: Any) -> None:
        pass

    def canonical(self, output: Any) -> bytes:
        return sweep_bytes(output)

    def detail(self, setups: List[Dict[str, float]]) -> Dict[str, Any]:
        return {}


def _sizes(hi: int, count: int) -> List[int]:
    return sorted({int(v) for v in np.rint(np.logspace(0, np.log10(hi), count))})


class PaperSweep(SweepWorkload):
    name = "paper-sweep"
    why = ("the paper's 20 x 100 sweep on the 10k Internet map: sampling "
           "and the tree walk, no store")

    def setup(self):
        graph = registry.build_topology(
            "internet", scale=0.1 if self.smoke else 1.0, rng=layers.MAP_SEED
        )
        state = {"graph": graph, "sizes": _sizes(250 if self.smoke else 2500, 10)}
        self.op(state, WARMUP)
        return state

    def op(self, state, index):
        warm = index == WARMUP
        config = MonteCarloConfig(
            num_sources=2 if (warm or self.smoke) else 20,
            num_receiver_sets=2 if warm else (300 if self.smoke else 100),
            num_workers=1,
        )
        return runner.measure_sweep(
            state["graph"], state["sizes"], mode="distinct", config=config,
            topology="internet", rng=seed_for(self.seed, index),
        )


class MillionStore(SweepWorkload):
    name = "million-store"
    why = ("store-backed sweeps on a 1M-node map: connectivity, BFS and "
           "store work dominate, the walk is small")

    STORE_SOURCES = list(range(0, 64, 8))

    def setup(self):
        num_nodes = 100_000 if self.smoke else 1_000_000
        graph = powerlaw.internet_like_graph(
            num_nodes, rng=layers.MAP_SEED, stream="vectorized"
        )
        directory = work_dir()
        start = time.perf_counter()
        store = distance_store.build_distance_store(
            graph, os.path.join(directory, "rows.dist"), sources=self.STORE_SOURCES
        )
        build_s = time.perf_counter() - start
        state = {"graph": graph, "store": store, "dir": directory,
                 "store_build_s": build_s}
        self.op(state, WARMUP)
        return state

    def op(self, state, index):
        warm = index == WARMUP
        config = MonteCarloConfig(
            num_sources=1 if warm else (2 if self.smoke else 4),
            num_receiver_sets=2 if warm else (4 if self.smoke else 8),
            num_workers=1,
        )
        return runner.measure_sweep(
            state["graph"], [1, 10, 100] if self.smoke else [1, 10, 100, 1000],
            mode="distinct", config=config, topology="internet",
            rng=seed_for(self.seed, index), distance_store=state["store"],
            use_cache=False,
        )

    def final_checks(self, state):
        source = self.STORE_SOURCES[self.seed % len(self.STORE_SOURCES)]
        stored = state["store"].forest(source)
        fresh = paths.bfs(state["graph"], source)
        if not (np.array_equal(stored.dist, fresh.dist)
                and np.array_equal(stored.parent, fresh.parent)):
            return [f"{self.name}: store row {source} differs from bfs()"]
        return []

    def close(self, state):
        state["store"].close()
        shutil.rmtree(state["dir"], ignore_errors=True)

    def detail(self, setups):
        rows = len(self.STORE_SOURCES)
        builds = [s["store_build_s"] for s in setups]
        return {"store_build_s": builds,
                "store_build_s_per_row": float(np.median(builds)) / rows}


class BuilderMix(SweepWorkload):
    name = "builder-mix"
    why = ("spt, steiner-tm, dst-approx and kdisjoint on identical draws: "
           "the builders, not sampling or the walk")

    ALGORITHMS = ("spt", "steiner-tm", "dst-approx", "kdisjoint")

    def setup(self):
        graph = registry.build_topology(
            "internet", scale=0.05 if self.smoke else 0.15, rng=layers.MAP_SEED
        )
        state = {"graph": graph}
        self.op(state, WARMUP)
        return state

    def op(self, state, index):
        warm = index == WARMUP
        config = MonteCarloConfig(
            num_sources=1 if (warm or self.smoke) else 2,
            num_receiver_sets=1 if warm else (6 if self.smoke else 4),
            num_workers=1,
        )
        return {
            algorithm: runner.measure_sweep(
                state["graph"], [2, 8] if self.smoke else [2, 8, 32, 64],
                mode="distinct", config=config, topology="internet",
                rng=seed_for(self.seed, index), algorithm=algorithm,
            )
            for algorithm in self.ALGORITHMS
        }

    def canonical(self, output):
        return b"".join(sweep_bytes(output[a]) for a in self.ALGORITHMS)

    def check(self, state, output):
        steiner, spt, kdisjoint = (
            np.asarray(output[a].mean_tree_size)
            for a in ("steiner-tm", "spt", "kdisjoint")
        )
        if np.all(steiner <= spt) and np.all(spt <= kdisjoint):
            return []
        return [f"{self.name}: steiner-tm <= spt <= kdisjoint broken: "
                f"{steiner} / {spt} / {kdisjoint}"]


def _timed_ops(wl, state, first: int, seconds: float, min_ops: int,
               traced: bool) -> List[Op]:
    ops: List[Op] = []
    begin = time.perf_counter()
    index = first
    while True:
        start = time.perf_counter()
        output = wl.op(state, index)
        end = time.perf_counter()
        ops.append(Op(index, start, end, output, traced))
        index += 1
        if end - begin >= seconds and len(ops) >= min_ops:
            return ops


def run_sweep(wl: SweepWorkload, seconds: float, trace: bool,
              skip: Sequence[str] = ()) -> Measured:
    setups: List[Dict[str, float]] = []
    setup_times: List[float] = []
    setup_spans: List[Dict[str, Any]] = []
    state = None
    for _ in range(1 if trace else SETUPS):
        if state is not None:
            wl.close(state)
        if trace:
            with layers.Tracing(skip) as tracing:
                start = time.perf_counter()
                state = wl.setup()
            setup_spans = tracing.spans
        else:
            start = time.perf_counter()
            state = wl.setup()
        setup_times.append(time.perf_counter() - start)
        setups.append({k: v for k, v in state.items() if isinstance(v, float)})
    failures: List[str] = []
    cache = default_forest_cache()
    try:
        if trace:
            ops = _timed_ops(wl, state, 0, seconds * UNTRACED_SHARE, 1, False)
            before = cache.stats()
            with layers.Tracing(skip) as tracing:
                ops += _timed_ops(wl, state, len(ops),
                                  seconds * (1 - UNTRACED_SHARE), 1, True)
            after = cache.stats()
            with layers.Tracing(skip):
                replay = wl.op(state, 0)
            if wl.canonical(replay) != wl.canonical(ops[0].output):
                failures.append(f"{wl.name}: traced op 0 != untraced op 0")
        else:
            ops = _timed_ops(wl, state, 0, seconds, DIGEST_OPS, False)
        for op in ops:
            failures += wl.check(state, op.output)
        failures += wl.final_checks(state)
    finally:
        wl.close(state)
    measured = Measured(
        setup_s=setup_times,
        ops=ops,
        failures=failures,
        peak_rss_mb=peak_rss_mb(),
        digest=digest_of([wl.canonical(op.output) for op in ops[:DIGEST_OPS]]),
        detail=wl.detail(setups),
    )
    if trace:
        measured.setup_spans = setup_spans
        measured.timed_spans = tracing.spans
        measured.registry = obs.default_registry().to_dict()
        lookups = (after["hits"] - before["hits"]) + (after["misses"] - before["misses"])
        measured.ratios["forest_cache.hit_ratio"] = (
            (after["hits"] - before["hits"]) / lookups if lookups else 0.0
        )
    return measured


# ----------------------------------------------------------------------
# Serve workloads (a server subprocess, a client here)
# ----------------------------------------------------------------------


class Connection:
    """One keep-alive HTTP/1.1 connection to the server."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        self.writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode("ascii") + body
        )
        await self.writer.drain()
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


class Server:
    """The ``serve_target.py`` subprocess and its command channel."""

    def __init__(self, workload: str, smoke: bool, trace: bool,
                 spans_path: Optional[str]) -> None:
        self.argv = [sys.executable, str(SUITE_DIR / "serve_target.py"),
                     "--workload", workload]
        if smoke:
            self.argv.append("--smoke")
        if trace:
            self.argv.append("--trace")
        if spans_path:
            self.argv += ["--spans", spans_path]
        self.process = None
        self.port = 0

    async def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(SUITE_DIR)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.process = await asyncio.create_subprocess_exec(
            *self.argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
        )
        self.port = (await self.event())["port"]

    async def event(self) -> Dict[str, Any]:
        line = await asyncio.wait_for(self.process.stdout.readline(), 120)
        if not line:
            raise RuntimeError("serve target exited without answering")
        return json.loads(line)

    async def command(self, command: str) -> Dict[str, Any]:
        self.process.stdin.write(command.encode() + b"\n")
        await self.process.stdin.drain()
        return await self.event()

    async def stop(self) -> Dict[str, Any]:
        try:
            return await self.command("stop")
        finally:
            await asyncio.wait_for(self.process.wait(), 60)

    async def kill(self) -> None:
        if self.process is not None and self.process.returncode is None:
            self.process.kill()
            await self.process.wait()


def _shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


@dataclass
class Request:
    index: int
    path: str
    body: bytes
    sent: float = 0.0
    done: float = 0.0
    due: float = 0.0
    fired: float = 0.0
    status: int = 0
    response: bytes = b""
    traced: bool = False


async def _send_each(conn: Connection, requests) -> List[str]:
    """Send ``requests`` one after another; the failures among them."""
    failures = []
    for request in requests:
        request.status, request.response = await conn.request(
            "POST", request.path, request.body
        )
        failures.append(_answer_failure(request))
    return [f for f in failures if f]


def _answer_failure(request: Request) -> Optional[str]:
    if request.status != 200:
        return f"{request.path} #{request.index} returned {request.status}"
    answer = json.loads(request.response)
    if answer.get("degraded") or answer.get("shed"):
        return f"{request.path} #{request.index} degraded: {answer}"
    return None


def _estimate_failure(request: Request) -> Optional[str]:
    """An ``/v1/estimate`` answer must match ``repro.analysis`` to 1e-9."""
    from repro.analysis.kary_asymptotic import lm_exact_via_conversion
    from repro.analysis.kary_exact import lhat_leaf

    payload = json.loads(request.body)
    k, depth = payload["k"], payload["depth"]
    if "m" in payload:
        expected = float(lm_exact_via_conversion(k, depth, payload["m"]))
    else:
        expected = float(lhat_leaf(k, depth, payload["n"]))
    got = json.loads(request.response)["tree_size"]
    if abs(got - expected) > 1e-9 * abs(expected):
        return f"estimate #{request.index} {payload}: {got} != {expected}"
    return None


def _response_bytes(request: Request) -> bytes:
    """A response body without ``source`` (cache vs table is timing)."""
    answer = json.loads(request.response)
    answer.pop("source", None)
    return json.dumps(answer, sort_keys=True).encode()


class MixPayloads:
    """serve-mix requests: 60% table simulate on internet with Zipf(1.3)
    sizes, 20% simulate on r100 with uniform sizes, 20% closed forms.

    Request ``i`` is drawn in a block of :attr:`BLOCK` from its own seed
    sequence, so it is the same however many requests a run reaches.
    """

    BLOCK = 1 << 14

    def __init__(self, seed: int, stream: int, internet_max: int, r100_max: int) -> None:
        self.entropy = [seed, stream]
        self.internet_max = internet_max
        self.r100_max = r100_max
        self.blocks: Dict[int, Dict[str, np.ndarray]] = {}

    def _block(self, b: int) -> Dict[str, np.ndarray]:
        block = self.blocks.get(b)
        if block is None:
            rng = ensure_rng(np.random.SeedSequence(self.entropy + [b]))
            n = self.BLOCK
            block = {
                "kind": rng.choice(3, size=n, p=[0.6, 0.2, 0.2]),
                "zipf": np.minimum(rng.zipf(1.3, size=n), self.internet_max),
                "uniform": rng.integers(1, self.r100_max + 1, size=n),
                "k": rng.choice([2, 3, 4], size=n),
                "depth": rng.integers(5, 9, size=n),
                "by_m": rng.random(n) < 0.5,
                "fraction": rng.random(n),
            }
            self.blocks[b] = block
        return block

    def request(self, i: int) -> Request:
        block = self._block(i // self.BLOCK)
        j = i % self.BLOCK
        kind = block["kind"][j]
        if kind == 0:
            body = {"topology": "internet", "m": int(block["zipf"][j])}
        elif kind == 1:
            body = {"topology": "r100", "m": int(block["uniform"][j])}
        else:
            k, depth = int(block["k"][j]), int(block["depth"][j])
            leaves = k ** depth
            if block["by_m"][j]:
                body = {"k": k, "depth": depth,
                        "m": 1 + int(block["fraction"][j] * (leaves // 2 - 1))}
            else:
                body = {"k": k, "depth": depth,
                        "n": 1 + int(block["fraction"][j] * (leaves - 1))}
            return Request(i, "/v1/estimate", json.dumps(body).encode())
        return Request(i, "/v1/simulate", json.dumps(body).encode())


def exact_keys(seed, limit: int) -> List[Tuple[str, int]]:
    """serve-exact keys, each unique: (mode, m) over m in 1..limit."""
    keys = [(mode, m) for mode in ("distinct", "replacement")
            for m in range(1, limit + 1)]
    order = ensure_rng(seed).permutation(len(keys))
    return [keys[i] for i in order]


def _exact_request(i: int, key: Tuple[str, int]) -> Request:
    mode, m = key
    body = {"topology": "internet", "m": m, "mode": mode, "exact": True}
    return Request(i, "/v1/simulate", json.dumps(body).encode())


async def _closed_loop(conns: List[Connection], payloads: MixPayloads,
                       first: int, seconds: float, traced: bool) -> List[Request]:
    done: List[Request] = []
    next_index = itertools.count(first)
    stop_at = time.perf_counter() + seconds

    async def client(conn: Connection) -> None:
        for i in next_index:
            request = payloads.request(i)
            request.traced = traced
            request.sent = time.perf_counter()
            request.status, request.response = await conn.request(
                "POST", request.path, request.body
            )
            request.done = time.perf_counter()
            done.append(request)
            if request.done >= stop_at:
                return

    await asyncio.gather(*(client(conn) for conn in conns))
    return sorted(done, key=lambda r: r.index)


async def _open_loop(conns: List[Connection], keys: List[Tuple[str, int]],
                     first: int, rate: float, seconds: float,
                     traced: bool) -> List[Request]:
    idle: asyncio.Queue = asyncio.Queue()
    for conn in conns:
        idle.put_nowait(conn)
    start = time.perf_counter() + 0.01
    tasks = []

    async def one(request: Request) -> Request:
        request.fired = time.perf_counter()
        conn = await idle.get()
        try:
            request.sent = time.perf_counter()
            request.status, request.response = await conn.request(
                "POST", request.path, request.body
            )
            request.done = time.perf_counter()
        finally:
            idle.put_nowait(conn)
        return request

    count = max(DIGEST_OPS, int(round(seconds * rate)))
    if first + count > len(keys):
        raise ValueError(
            f"{first + count} requests need more than the {len(keys)} unique "
            f"keys; measure at most {len(keys) / rate:g} seconds"
        )
    for k in range(count):
        request = _exact_request(first + k, keys[first + k])
        request.due = start + k / rate
        request.traced = traced
        delay = request.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(one(request)))
    return list(await asyncio.gather(*tasks))


def _metric_value(document: str, name: str, labels: str = "") -> float:
    prefix = name + labels + " "
    for line in document.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):])
    return 0.0


def _serve_counters(document: str) -> Dict[str, float]:
    answers = "repro_serve_answers_total"
    return {
        "cache": _metric_value(document, answers, '{source="cache"}'),
        "answers": sum(
            _metric_value(document, answers, f'{{source="{source}"}}')
            for source in ("cache", "table", "simulation", "closed-form")
        ),
        "coalesced": _metric_value(document, "repro_serve_coalesced_total"),
        "runs": _metric_value(document, "repro_serve_backend_runs_total"),
    }


class ServeWorkload:
    name = ""
    why = ""

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke

    async def prepare(self, conn: Connection) -> None:
        """Learn what the inputs depend on (table ranges) from the server."""

    async def warm(self, conn: Connection) -> List[str]:
        """Send the warm-up requests (their own seed stream); failures."""
        raise NotImplementedError

    async def phase(self, conns: List[Connection], first: int, seconds: float,
                    traced: bool) -> List[Request]:
        raise NotImplementedError

    def connections(self, trace: bool) -> int:
        return 2

    def latency(self, request: Request) -> float:
        return request.done - request.sent

    def kind(self, request: Request) -> str:
        """The path the answer took: endpoint, then ``source`` if any."""
        answer = json.loads(request.response) if request.status == 200 else {}
        source = answer.get("source")
        return f"{request.path} {source}" if source else request.path

    def check(self, request: Request) -> Optional[str]:
        return _answer_failure(request)


class ServeMix(ServeWorkload):
    name = "serve-mix"
    why = ("closed loop of cheap reads on 2 keep-alive connections: cache, "
           "table lookup and closed forms, each path a third of op_p10_ms")

    async def prepare(self, conn):
        status, body = await conn.request("GET", "/healthz")
        ranges = {t["name"]: t["m_max"] for t in json.loads(body)["tables"]}
        self.ranges = (ranges["internet"], ranges["r100"])

    async def warm(self, conn):
        payloads = MixPayloads(self.seed, WARMUP, *self.ranges)
        return await _send_each(conn, map(payloads.request, range(200)))

    def connections(self, trace):
        # Traced, one connection keeps each request's spans in sequence.
        return 1 if trace else 2

    async def phase(self, conns, first, seconds, traced):
        payloads = MixPayloads(self.seed, 0, *self.ranges)
        payloads.request(first)  # draw the first block before timing
        return await _closed_loop(conns, payloads, first, seconds, traced)

    def check(self, request):
        failure = _answer_failure(request)
        if failure is None and request.path == "/v1/estimate":
            failure = _estimate_failure(request)
        return failure


class ServeExact(ServeWorkload):
    name = "serve-exact"
    why = ("open loop of exact simulations at 10 req/s, every key unique: "
           "the same handlers, each request a fresh Monte-Carlo run")
    #: Well under the backend's capacity, so latency is service time,
    #: not a queue that grows with the machine's momentary speed.  The
    #: 2 x 100 keys last 20 seconds; a longer run stops with an error.
    RATE = 10.0

    def _limit(self) -> int:
        return 20 if self.smoke else 100

    async def warm(self, conn):
        # Sizes above the timed key range: builds the internet graph and
        # fills the forest cache without touching any timed key.
        sizes = range(self._limit() + 1, self._limit() + 4)
        return await _send_each(
            conn, (_exact_request(-m, ("distinct", m)) for m in sizes)
        )

    async def phase(self, conns, first, seconds, traced):
        keys = exact_keys(seed_for(self.seed, 0), self._limit())
        return await _open_loop(conns, keys, first, self.RATE, seconds, traced)

    def latency(self, request):
        # From when the request was due: a stall delays later requests.
        return request.done - request.due


async def _setup_server(wl: ServeWorkload, trace: bool,
                        spans_path: Optional[str]) -> Tuple[Server, Connection, float, List[str]]:
    start = time.perf_counter()
    server = Server(wl.name, wl.smoke, trace, spans_path)
    try:
        await server.start()
        conn = await Connection.open(server.port)
        await wl.prepare(conn)
        failures = await wl.warm(conn)
    except BaseException:
        await server.kill()
        raise
    return server, conn, time.perf_counter() - start, failures


async def run_serve_async(wl: ServeWorkload, seconds: float, trace: bool) -> Measured:
    shm_before = _shm_entries()
    directory = work_dir()
    spans_path = os.path.join(directory, "spans.json") if trace else None
    setup_times: List[float] = []
    failures: List[str] = []
    server = None
    try:
        for _ in range(1 if trace else SETUPS):
            if server is not None:
                await conn.close()
                await server.stop()
            server, conn, elapsed, warm_failures = await _setup_server(
                wl, trace, spans_path
            )
            setup_times.append(elapsed)
            failures += warm_failures
        conns = [conn] + [await Connection.open(server.port)
                          for _ in range(wl.connections(trace) - 1)]
        ratios: Dict[str, float] = {}
        if trace:
            await server.command("untrace")
            requests = await wl.phase(conns, 0, seconds * UNTRACED_SHARE, False)
            tracing = await server.command("trace")
            before = _serve_counters((await conn.request("GET", "/metrics"))[1].decode())
            requests += await wl.phase(conns, len(requests),
                                       seconds * (1 - UNTRACED_SHARE), True)
            after = _serve_counters((await conn.request("GET", "/metrics"))[1].decode())
            untraced = await server.command("untrace")
            answers = after["answers"] - before["answers"]
            ratios["serve.cache_hit_ratio"] = (
                (after["cache"] - before["cache"]) / answers if answers else 0.0
            )
            demand = (after["runs"] - before["runs"]) + (after["coalesced"] - before["coalesced"])
            ratios["serve.coalesced_ratio"] = (
                (after["coalesced"] - before["coalesced"]) / demand if demand else 0.0
            )
            fc0, fc1 = tracing["forest_cache"], untraced["forest_cache"]
            lookups = (fc1["hits"] - fc0["hits"]) + (fc1["misses"] - fc0["misses"])
            ratios["forest_cache.hit_ratio"] = (
                (fc1["hits"] - fc0["hits"]) / lookups if lookups else 0.0
            )
        else:
            requests = await wl.phase(conns, 0, seconds, False)
        for extra in conns:
            await extra.close()
        stopped = await server.stop()
        server = None
        spans = {"setup": [], "timed": []}
        if spans_path:
            with open(spans_path, encoding="utf-8") as handle:
                spans = json.load(handle)
    finally:
        if server is not None:
            await server.kill()
        shutil.rmtree(directory, ignore_errors=True)
    leaked = _shm_entries() - shm_before
    if leaked:
        failures.append(f"{wl.name}: /dev/shm entries left behind: {sorted(leaked)}")
    failures += [f for f in (wl.check(r) for r in requests) if f]

    ops = [Op(r.index, r.sent, r.done, r, r.traced) for r in requests]
    measured = Measured(
        setup_s=setup_times,
        ops=ops,
        failures=failures,
        peak_rss_mb=stopped["peak_rss_mb"],
        digest=digest_of([_response_bytes(r) for r in requests[:DIGEST_OPS]]),
        latencies=[wl.latency(r) for r in requests],
        kinds=[wl.kind(r) for r in requests],
        setup_spans=spans["setup"],
        timed_spans=spans["timed"],
        ratios=ratios,
        registry=spans.get("metrics", {}),
    )
    if any(r.due for r in requests):
        late = [1e3 * (r.fired - r.due) for r in requests]
        measured.detail["gen_late_ms_p99"] = float(np.percentile(late, 99))
    if trace:
        # Transport is what the client waited beyond dispatch: framing,
        # sockets and the event loop on both ends.
        traced = [r for r in requests if r.traced]
        windows = [(r.sent, r.done) for r in traced]
        dispatch = sum(
            s["duration"] for s in layers.within(spans["timed"], windows)
            if s["name"] == "request.answer"
        )
        round_trips = sum(r.done - r.sent for r in traced)
        measured.extra_layers["request.transport"] = (
            max(0.0, round_trips - dispatch), len(traced)
        )
    return measured


def run_serve(wl: ServeWorkload, seconds: float, trace: bool) -> Measured:
    return asyncio.run(run_serve_async(wl, seconds, trace))


WORKLOADS = {
    wl.name: wl for wl in (PaperSweep, MillionStore, BuilderMix, ServeMix, ServeExact)
}


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
            skip: Sequence[str] = ()) -> Measured:
    """Run one workload once and return what it measured."""
    workload = WORKLOADS[name](seed, smoke)
    if isinstance(workload, SweepWorkload):
        return run_sweep(workload, seconds, trace, skip)
    return run_serve(workload, seconds, trace)
