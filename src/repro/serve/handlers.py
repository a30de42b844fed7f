"""Request handling for the estimation service (no sockets in here).

:class:`EstimationService` owns the full answer policy; the socket
layer (:mod:`repro.serve.app`) only frames HTTP around
:meth:`EstimationService.dispatch`, so every behavior below is unit
tested by calling coroutines directly.

The simulate answer ladder
--------------------------
For ``POST /v1/simulate`` the service tries, in order:

1. **Response cache** — a TTL+LRU of finished answers
   (``"source": "cache"``).  Degraded answers are never cached.
2. **Estimator table** — the per-topology ``L(m)`` grid
   (``"source": "table"``), built at startup for the configured
   topologies and lazily (coalesced, deadline-bounded) for any other
   registry name.  Covered queries never touch the simulator.
3. **Simulation** — a fresh batched Monte-Carlo run
   (``"source": "simulation"``), for ``"exact": true`` requests and
   sizes outside a table's grid.  Identical concurrent runs are
   coalesced onto one future.
4. **Degradation** — when step 2's lazy build or step 3's run exceeds
   the deadline, the caller is *not* handed a 500: it gets the best
   closed-form/interpolated answer available (``"degraded": true``,
   ``"source": "table"`` or ``"closed-form"``), while the backend
   computation keeps running and lands in the table/cache for the next
   caller.

All blocking work (topology builds, sweeps) runs on a small thread
pool via ``run_in_executor`` — handler coroutines themselves never
block, which is exactly the invariant lint rule RR007 enforces on this
package.
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro import faults, obs
from repro.exceptions import ReproError
from repro.faults.clock import SystemClock
from repro.serve.coalesce import SingleFlight, TTLCache
from repro.serve.metrics import ServeMetrics
from repro.serve.tables import EstimatorTable

__all__ = ["ServeError", "Response", "ServiceConfig", "EstimationService"]

logger = logging.getLogger("repro.serve")

_FP_SIMULATE = faults.point(
    "serve.backend.simulate",
    "Before a coalesced Monte-Carlo run is handed to the thread pool; a "
    "raise/timeout here fails the shared backend computation, which must "
    "degrade every waiter, never 500 them.",
)
_FP_TABLE_BUILD = faults.point(
    "serve.table.build",
    "Before a lazy estimator-table build; failures must leave previously "
    "installed tables untouched and degrade the caller.",
)
_FP_GRAPH_BUILD = faults.point(
    "serve.graph.build",
    "Before a topology build on the thread pool; a failure here must not "
    "poison the graph cache — the next request retries the build.",
)

_JSON = "application/json"
_TEXT = "text/plain; version=0.0.4; charset=utf-8"

#: Response-cache bound and entry lifetime.
_CACHE_MAX_ENTRIES = 4096
_CACHE_TTL_SECONDS = 300.0


class ServeError(ReproError):
    """A request error with an HTTP status (4xx for caller mistakes)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = int(status)


@dataclass(frozen=True)
class Response:
    """What the socket layer writes back: status, content type, body."""

    status: int
    content_type: str
    body: bytes

    @staticmethod
    def json(status: int, payload: Dict[str, Any]) -> "Response":
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        return Response(status=status, content_type=_JSON, body=body)

    @staticmethod
    def text(status: int, content: str) -> "Response":
        return Response(
            status=status, content_type=_TEXT, body=content.encode("utf-8")
        )


@dataclass(frozen=True)
class ServiceConfig:
    """Service-level knobs (the CLI flags map onto these).

    ``topologies`` are pre-warmed at startup; any other registry name is
    still servable, with its table built lazily on first demand.  The
    Monte-Carlo settings deliberately default far below the paper's
    100×100: a serving backend wants bounded latency, and the estimator
    tables do the averaging work once instead of per request.
    """

    topologies: Tuple[str, ...] = ("arpa", "r100")
    #: Tree-construction disciplines whose estimator tables are
    #: pre-warmed at startup.  Any other registered builder is still
    #: servable with a lazily built table.
    algorithms: Tuple[str, ...] = ("spt",)
    scale: float = 1.0
    seed: int = 0
    num_sources: int = 20
    num_receiver_sets: int = 20
    deadline_seconds: float = 5.0
    executor_threads: int = 2
    #: Load-shedding threshold: with more than this many requests being
    #: dispatched concurrently, further simulate requests are answered
    #: degraded immediately (``"shed": true``) instead of queueing past
    #: their deadline.  ``None`` (the default) disables shedding — the
    #: single-process behavior is unchanged.
    max_inflight: Optional[int] = None

    def validate(self) -> None:
        from repro.topology.registry import topology_spec

        if self.deadline_seconds <= 0:
            raise ServeError(
                500, f"deadline must be positive, got {self.deadline_seconds}"
            )
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ServeError(
                500, f"max_inflight must be >= 1 when set, got {self.max_inflight}"
            )
        if self.executor_threads < 1:
            raise ServeError(500, "executor_threads must be >= 1")
        for name in self.topologies:
            topology_spec(name)  # raises TopologyError for unknown names
        from repro.multicast.builders import builder_spec

        for algorithm in self.algorithms:
            builder_spec(algorithm)  # raises ExperimentError for unknowns


def _number(payload: Dict, key: str, *, required: bool = False) -> Optional[float]:
    value = payload.get(key)
    if value is None:
        if required:
            raise ServeError(400, f"missing required field {key!r}")
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ServeError(400, f"field {key!r} must be a number, got {value!r}")
    # json.loads accepts NaN and Infinity, and integers too large for a
    # float; none of them is a usable request field.
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ServeError(
            400, f"field {key!r} must be a finite number, got {value!r}"
        )
    return number


def _choice(payload: Dict, key: str, options: Tuple[str, ...], default: str) -> str:
    value = payload.get(key, default)
    if value not in options:
        raise ServeError(
            400, f"field {key!r} must be one of {options}, got {value!r}"
        )
    return value


def _flag(payload: Dict, key: str, default: bool = False) -> bool:
    value = payload.get(key, default)
    if not isinstance(value, bool):
        raise ServeError(400, f"field {key!r} must be a boolean, got {value!r}")
    return value


@dataclass(frozen=True)
class _SimulateRequest:
    topology: str
    m: int
    mode: str
    exact: bool
    deadline: Optional[float]
    algorithm: str = "spt"


class EstimationService:
    """The estimation/simulation service behind the HTTP endpoints."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        metrics: Optional[ServeMetrics] = None,
        clock: Optional[Any] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.config.validate()
        self.metrics = metrics or ServeMetrics()
        # Every timing decision below — TTL expiry, deadline waits,
        # latency histograms — reads this one clock, so tests swap in a
        # VirtualClock and control time explicitly.
        self._clock = clock if clock is not None else SystemClock()
        #: Estimator tables keyed by ``(topology, mode, algorithm)``.
        self.tables: Dict[Tuple[str, str, str], EstimatorTable] = {}
        self._graphs: Dict[str, Any] = {}
        self._flight = SingleFlight(wait_for=self._clock.wait_for)
        self._cache = TTLCache(
            max_entries=_CACHE_MAX_ENTRIES,
            ttl_seconds=_CACHE_TTL_SECONDS,
            clock=self._clock,
        )
        self._executor: Optional[ThreadPoolExecutor] = None
        self._started = False
        # Requests currently inside dispatch() — the load-shedding
        # signal — and the generation of the installed table set (0 =
        # built locally, >0 = installed from a fleet shared store).
        self._inflight_requests = 0
        self.table_generation = 0

    # -- lifecycle -------------------------------------------------------

    async def startup(self) -> None:
        """Build graphs and estimator tables for the configured suite.

        Builds run concurrently on the thread pool; the service accepts
        traffic only after the pre-warm completes, so the configured
        topologies are always answered from tables.
        """
        if self._started:
            return
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.executor_threads,
            thread_name_prefix="repro-serve",
        )
        await asyncio.gather(
            *(
                self._table(name, "distinct", deadline=None, algorithm=algorithm)
                for name in self.config.topologies
                for algorithm in self.config.algorithms
            )
        )
        self._started = True

    async def shutdown(self) -> None:
        """Release the worker threads (in-flight futures still finish)."""
        self._started = False
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None

    def install_tables(
        self,
        tables: Dict[Tuple[str, str, str], EstimatorTable],
        generation: Optional[int] = None,
    ) -> None:
        """Replace the whole table set atomically (the fleet's path).

        Workers attach zero-copy tables from the supervisor's shared
        store and install them here *before* :meth:`startup`, which then
        finds every configured topology pre-populated and skips the
        in-process sweeps entirely.  On a hot reload the same call swaps
        the set under live traffic: the dict rebind is atomic from any
        handler's perspective, and the response cache is cleared so
        answers interpolated from the old generation cannot outlive it.
        """
        self.tables = dict(tables)
        if generation is not None:
            self.table_generation = int(generation)
        self._cache.clear()

    # -- blocking backend (runs on the thread pool only) -----------------

    def _build_graph_sync(self, name: str):
        from repro.topology.registry import build_topology

        return build_topology(name, scale=self.config.scale, rng=self.config.seed)

    def _build_table_sync(
        self, name: str, mode: str, algorithm: str = "spt"
    ) -> EstimatorTable:
        from repro.experiments.config import MonteCarloConfig

        graph = self._graphs[name]
        return EstimatorTable.from_sweep(
            graph,
            name,
            mode=mode,
            config=MonteCarloConfig(
                num_sources=self.config.num_sources,
                num_receiver_sets=self.config.num_receiver_sets,
                seed=self.config.seed,
            ),
            rng=self.config.seed,
            algorithm=algorithm,
        )

    def _simulate_sync(
        self, name: str, m: int, mode: str, algorithm: str = "spt"
    ) -> Dict[str, float]:
        from repro.experiments.config import MonteCarloConfig
        from repro.experiments.runner import measure_sweep

        graph = self._graphs[name]
        measurement = measure_sweep(
            graph,
            [m],
            mode=mode,
            config=MonteCarloConfig(
                num_sources=self.config.num_sources,
                num_receiver_sets=self.config.num_receiver_sets,
                seed=self.config.seed,
            ),
            topology=name,
            rng=self.config.seed,
            algorithm=algorithm,
        )
        return {
            "tree_size": float(measurement.mean_tree_size[0]),
            "mean_unicast_path": float(measurement.mean_unicast_path[0]),
            "normalized_tree_size": float(measurement.normalized_tree_size[0]),
            "num_samples": int(measurement.num_samples),
        }

    # -- coalesced async access to the backend ---------------------------

    def _in_executor(self, fn, *args):
        if self._executor is None:
            raise ServeError(503, "service is shut down")
        return asyncio.get_running_loop().run_in_executor(
            self._executor, fn, *args
        )

    async def _graph(self, name: str, deadline: Optional[float]) -> Any:
        if name not in self._graphs:

            async def build() -> None:
                _FP_GRAPH_BUILD.fire(topology=name)
                self._graphs[name] = await self._in_executor(
                    self._build_graph_sync, name
                )

            await self._flight.run(("graph", name), build, timeout=deadline)
        return self._graphs[name]

    async def _table(
        self,
        name: str,
        mode: str,
        deadline: Optional[float],
        algorithm: str = "spt",
    ) -> EstimatorTable:
        """The (possibly lazily built) table for ``(name, mode, algorithm)``.

        Raises :class:`asyncio.TimeoutError` when a lazy build misses
        the deadline — the caller degrades; the build itself continues
        and installs the table for later requests.
        """
        key = (name, mode, algorithm)
        table = self.tables.get(key)
        if table is not None:
            return table

        async def build() -> None:
            _FP_TABLE_BUILD.fire(topology=name, mode=mode, algorithm=algorithm)
            await self._graph(name, deadline=None)
            self.tables[key] = await self._in_executor(
                self._build_table_sync, name, mode, algorithm
            )

        await self._flight.run(("table",) + key, build, timeout=deadline)
        return self.tables[key]

    # -- /v1/estimate ----------------------------------------------------

    async def handle_estimate(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Closed-form k-ary answers: Eqs. 4/14/18/21 plus Eqs. 1–2.

        Exactly one of ``n`` (draws with replacement) and ``m``
        (distinct sites) must be given; the other is reported through
        the paper's conversion.  Pure arithmetic — this endpoint never
        touches the simulator, whatever the load.

        With a non-SPT ``"algorithm"`` the closed form (an SPT
        quantity) is rescaled by the measured ``L_alg(m)/L_SPT(m)``
        ratio of the named ``"topology"``'s estimator tables; when the
        tables cannot supply the ratio in time the SPT answer is
        returned with ``algorithm_ratio: null`` and ``degraded: true``.
        """
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
        from repro.analysis.scaling import (
            draws_for_expected_distinct,
            expected_distinct,
        )

        algorithm = self._parse_algorithm(payload)
        k = _number(payload, "k", required=True)
        depth_f = _number(payload, "depth", required=True)
        if depth_f != int(depth_f):
            raise ServeError(400, f"depth must be an integer, got {depth_f}")
        depth = int(depth_f)
        receivers = _choice(payload, "receivers", ("leaf", "throughout"), "leaf")
        form = _choice(payload, "form", ("exact", "asymptotic"), "exact")
        n = _number(payload, "n")
        m = _number(payload, "m")
        if (n is None) == (m is None):
            raise ServeError(400, "provide exactly one of 'n' and 'm'")

        # k ** depth overflows a float long before the closed forms do.
        sites = num_leaf_sites if receivers == "leaf" else num_interior_sites
        try:
            population = sites(k, depth)
        except OverflowError:
            raise ServeError(
                400, f"k={k}, depth={depth} overflows the closed forms"
            ) from None

        if m is not None:
            n_value = float(draws_for_expected_distinct(m, population))
            m_value = float(m)
        else:
            n_value = float(n)
            m_value = float(expected_distinct(n, population))

        if form == "exact":
            if receivers == "leaf":
                if m is not None:
                    tree = float(lm_exact_via_conversion(k, depth, m))
                else:
                    tree = float(lhat_leaf(k, depth, n_value))
            else:
                tree = float(lhat_throughout(k, depth, n_value))
        else:
            if receivers != "leaf":
                raise ServeError(
                    400,
                    "the asymptotic forms (Eqs. 14/18) are derived for "
                    "leaf receivers only",
                )
            if m is not None:
                tree = float(lm_asymptotic(k, depth, m))
            else:
                tree = float(lhat_asymptotic(k, depth, n_value))

        answer = {
            "k": k,
            "depth": depth,
            "receivers": receivers,
            "form": form,
            "population": float(population),
            "n": n_value,
            "m": m_value,
            "tree_size": tree,
            "per_receiver": tree / n_value if n_value > 0 else None,
        }
        if algorithm == "spt":
            return answer

        from repro.topology.registry import topology_spec

        name = payload.get("topology")
        if not isinstance(name, str):
            raise ServeError(
                400,
                "non-SPT estimates need a 'topology' whose estimator "
                "tables supply the L_alg/L_SPT ratio",
            )
        try:
            topology_spec(name)
        except ReproError as exc:
            raise ServeError(400, str(exc))
        name = name.lower()
        ratio = await self._algorithm_ratio(name, "distinct", algorithm, m_value)
        answer["algorithm"] = algorithm
        answer["topology"] = name
        answer["tree_size_spt"] = tree
        answer["algorithm_ratio"] = ratio
        if ratio is None:
            answer["degraded"] = True
        else:
            answer["tree_size"] = tree * ratio
            answer["per_receiver"] = (
                answer["tree_size"] / n_value if n_value > 0 else None
            )
        return answer

    def _parse_algorithm(self, payload: Dict[str, Any]) -> str:
        from repro.multicast.builders import builder_spec

        algorithm = payload.get("algorithm", "spt")
        if not isinstance(algorithm, str):
            raise ServeError(
                400, f"field 'algorithm' must be a string, got {algorithm!r}"
            )
        try:
            builder_spec(algorithm)
        except ReproError as exc:
            raise ServeError(400, str(exc))
        return algorithm

    async def _algorithm_ratio(
        self, name: str, mode: str, algorithm: str, m: float
    ) -> Optional[float]:
        """``L_alg(m)/L_SPT(m)`` from the topology's tables, else None.

        ``None`` means the ratio could not be produced within the
        configured deadline (builds keep running for later callers) or
        ``m`` lies outside a table's grid — the caller degrades.
        """
        deadline = self.config.deadline_seconds
        try:
            alg_table = await self._table(name, mode, deadline, algorithm)
            spt_table = await self._table(name, mode, deadline)
        except asyncio.TimeoutError:
            return None
        except asyncio.CancelledError:
            raise
        except ReproError:
            raise  # caller mistakes keep their 4xx mapping
        except Exception as exc:
            logger.warning(
                "algorithm-ratio tables failed for %s/%s/%s: %s",
                name, mode, algorithm, exc,
            )
            self.metrics.count_backend_failure()
            return None
        if not (alg_table.covers(m) and spt_table.covers(m)):
            return None
        alg_tree, _ = alg_table.lookup(m)
        spt_tree, _ = spt_table.lookup(m)
        if spt_tree <= 0:
            return None
        return float(alg_tree / spt_tree)

    # -- /v1/simulate ----------------------------------------------------

    def _parse_simulate(self, payload: Dict[str, Any]) -> _SimulateRequest:
        from repro.topology.registry import topology_spec

        name = payload.get("topology")
        if not isinstance(name, str):
            raise ServeError(400, "field 'topology' must be a string name")
        try:
            topology_spec(name)
        except ReproError as exc:
            raise ServeError(400, str(exc))
        m = _number(payload, "m", required=True)
        if m < 1 or m != int(m):
            raise ServeError(400, f"m must be a positive integer, got {m}")
        mode = _choice(payload, "mode", ("distinct", "replacement"), "distinct")
        deadline_ms = _number(payload, "deadline_ms")
        if deadline_ms is not None and deadline_ms <= 0:
            raise ServeError(400, "deadline_ms must be positive")
        return _SimulateRequest(
            topology=name.lower(),
            m=int(m),
            mode=mode,
            exact=_flag(payload, "exact", False),
            deadline=(
                deadline_ms / 1000.0
                if deadline_ms is not None
                else self.config.deadline_seconds
            ),
            algorithm=self._parse_algorithm(payload),
        )

    def _answer(
        self,
        req: _SimulateRequest,
        source: str,
        tree: Optional[float],
        path: Optional[float],
        degraded: bool,
        **extra: Any,
    ) -> Dict[str, Any]:
        self.metrics.count_answer(source)
        if degraded:
            self.metrics.count_degraded()
        payload: Dict[str, Any] = {
            "topology": req.topology,
            "m": req.m,
            "mode": req.mode,
            "source": source,
            "degraded": degraded,
            "tree_size": tree,
            "mean_unicast_path": path,
            "normalized_tree_size": (
                tree / path if tree is not None and path else None
            ),
        }
        # SPT answers keep the exact pre-algorithm payload shape (the
        # byte-identity contract); only non-SPT requests grow the key.
        if req.algorithm != "spt":
            payload["algorithm"] = req.algorithm
        payload.update(extra)
        return payload

    def _degraded_answer(self, req: _SimulateRequest) -> Dict[str, Any]:
        """Best non-blocking answer once the deadline has passed.

        Interpolate from a finished table when one covers the query;
        otherwise fall back to the Chuang-Sirbu law itself —
        ``L(m)/ū = m^0.8`` — which is normalized-only (the law carries
        no absolute scale without ``ū``).
        """
        from repro.analysis.scaling import chuang_sirbu_prediction

        table = self.tables.get((req.topology, req.mode, req.algorithm))
        if table is not None and table.covers(req.m):
            tree, path = table.lookup(req.m)
            extra: Dict[str, Any] = {"rel_error_bound": table.rel_error_bound}
            if req.algorithm != "spt":
                extra["table_algorithm"] = table.algorithm
            return self._answer(req, "table", tree, path, degraded=True, **extra)
        normalized = float(chuang_sirbu_prediction(req.m))
        answer = self._answer(req, "closed-form", None, None, degraded=True)
        answer["normalized_tree_size"] = normalized
        return answer

    async def handle_simulate(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Monte-Carlo ``L(m)`` via the cache → table → simulate ladder."""
        req = self._parse_simulate(payload)
        cache_key = (req.topology, req.mode, req.m, req.exact, req.algorithm)
        cached = self._cache.get(cache_key)
        if cached is not None:
            answer = dict(cached)
            answer["source"] = "cache"
            self.metrics.count_answer("cache")
            return answer

        if req.mode == "replacement":
            # The sampler draws a (sets × m) matrix per source, so refuse
            # sizes past the 4·N top knot of a replacement table's grid
            # before any table build or simulation can start.
            try:
                graph = await self._graph(req.topology, req.deadline)
            except asyncio.TimeoutError:
                return self._degraded_answer(req)
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                logger.warning(
                    "graph build failed for %s; degrading: %s", req.topology, exc
                )
                self.metrics.count_backend_failure()
                return self._degraded_answer(req)
            if req.m > 4 * graph.num_nodes:
                raise ServeError(
                    400,
                    f"replacement m must be at most 4 x {graph.num_nodes} "
                    f"nodes = {4 * graph.num_nodes} on {req.topology}, "
                    f"got {req.m}",
                )

        # Load shedding: past the configured inflight capacity, answer
        # degraded *now* rather than queueing behind the backlog past
        # the deadline.  Cache hits above stay served (they cost
        # nothing), estimate/healthz/metrics are never shed, and shed
        # answers are never cached.
        limit = self.config.max_inflight
        if limit is not None and self._inflight_requests > limit:
            self.metrics.count_shed()
            answer = self._degraded_answer(req)
            answer["shed"] = True
            return answer

        if not req.exact:
            try:
                table = await self._table(
                    req.topology, req.mode, req.deadline, req.algorithm
                )
            except asyncio.TimeoutError:
                return self._degraded_answer(req)
            except asyncio.CancelledError:
                raise
            except ReproError:
                raise  # caller mistakes keep their 4xx mapping
            except Exception as exc:
                logger.warning(
                    "table build failed for %s/%s/%s; degrading: %s",
                    req.topology, req.mode, req.algorithm, exc,
                )
                self.metrics.count_backend_failure()
                return self._degraded_answer(req)
            if table.covers(req.m):
                tree, path = table.lookup(req.m)
                extra: Dict[str, Any] = {
                    "rel_error_bound": table.rel_error_bound
                }
                if req.algorithm != "spt":
                    extra["table_algorithm"] = table.algorithm
                answer = self._answer(
                    req, "table", tree, path, degraded=False, **extra
                )
                self._cache.put(cache_key, answer)
                return answer
            # Size outside the grid: fall through to a real run.

        async def simulate() -> Dict[str, float]:
            _FP_SIMULATE.fire(topology=req.topology, m=req.m, mode=req.mode)
            await self._graph(req.topology, deadline=None)
            return await self._in_executor(
                self._simulate_sync, req.topology, req.m, req.mode,
                req.algorithm,
            )

        flight_key = (
            "simulate", req.topology, req.mode, req.m, req.algorithm
        )
        try:
            result = await self._flight.run(flight_key, simulate, req.deadline)
        except asyncio.TimeoutError:
            return self._degraded_answer(req)
        except asyncio.CancelledError:
            raise
        except ReproError:
            raise  # caller mistakes keep their 4xx mapping
        except Exception as exc:
            logger.warning(
                "backend simulation failed for %s m=%d; degrading: %s",
                req.topology, req.m, exc,
            )
            self.metrics.count_backend_failure()
            return self._degraded_answer(req)
        answer = self._answer(
            req,
            "simulation",
            result["tree_size"],
            result["mean_unicast_path"],
            degraded=False,
            num_samples=result["num_samples"],
        )
        # measure_sweep averages ratios per sample rather than dividing
        # the averages, so report its normalized value, not tree/path.
        answer["normalized_tree_size"] = result["normalized_tree_size"]
        self._cache.put(cache_key, answer)
        return answer

    # -- /healthz and /metrics -------------------------------------------

    def handle_healthz(self) -> Dict[str, Any]:
        plan = faults.active_plan()
        return {
            "status": "ok" if self._started else "starting",
            "topologies": list(self.config.topologies),
            "algorithms": list(self.config.algorithms),
            "tables": [
                table.to_dict()
                for _key, table in sorted(self.tables.items())
            ],
            "table_generation": self.table_generation,
            "inflight": len(self._flight),
            "inflight_requests": self._inflight_requests,
            "max_inflight": self.config.max_inflight,
            "response_cache_entries": len(self._cache),
            "fault_plan": None if plan is None else plan.name,
        }

    def handle_metrics(self) -> str:
        self.metrics.record_cache(self._cache.hits, self._cache.misses)
        self.metrics.record_flight(self._flight.started, self._flight.coalesced)
        # The service's own document first (its series names are pinned),
        # then the process-wide observability registry: forest-cache,
        # runner, sampling, and figure series ride the same scrape.
        return self.metrics.render() + obs.render_default()

    # -- routing ---------------------------------------------------------

    async def dispatch(self, method: str, path: str, body: bytes) -> Response:
        """Route one request; never raises (errors become responses)."""
        endpoint = {
            "/v1/estimate": "estimate",
            "/v1/simulate": "simulate",
            "/healthz": "healthz",
            "/metrics": "metrics",
        }.get(path, "unknown")
        start = self._clock()
        self._inflight_requests += 1
        try:
            response = await self._route(method, path, endpoint, body)
        except ServeError as exc:
            response = Response.json(exc.status, {"error": str(exc)})
        except ReproError as exc:
            # Estimation/experiment-layer rejections are caller errors.
            response = Response.json(400, {"error": str(exc)})
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            logger.exception("unhandled error serving %s %s", method, path)
            response = Response.json(500, {"error": f"internal error: {exc}"})
        finally:
            self._inflight_requests -= 1
        self.metrics.observe_request(
            endpoint, response.status, self._clock() - start
        )
        return response

    async def _route(
        self, method: str, path: str, endpoint: str, body: bytes
    ) -> Response:
        if endpoint == "unknown":
            return Response.json(404, {"error": f"no such endpoint: {path}"})
        if endpoint in ("estimate", "simulate"):
            if method != "POST":
                return Response.json(405, {"error": f"{path} expects POST"})
            try:
                payload = json.loads(body.decode("utf-8")) if body else {}
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                return Response.json(400, {"error": f"invalid JSON body: {exc}"})
            if not isinstance(payload, dict):
                return Response.json(400, {"error": "body must be a JSON object"})
            if endpoint == "estimate":
                return Response.json(200, await self.handle_estimate(payload))
            return Response.json(200, await self.handle_simulate(payload))
        if method != "GET":
            return Response.json(405, {"error": f"{path} expects GET"})
        if endpoint == "healthz":
            return Response.json(200, self.handle_healthz())
        return Response.text(200, self.handle_metrics())
