"""The layer ledger: wrappers that open one obs span per layer call.

No code in ``src/`` emits spans for most layers yet, so the suite wraps
each layer's public function from the outside: :func:`install` swaps the
function for a wrapper that runs it inside ``obs.span(<layer>)``, in its
defining module and in every loaded ``repro`` module that imported it by
name.  The wrappers are only installed for traced runs; untraced runs
call the program exactly as a user would.

A layer's *self time* is its span duration minus the time its child
spans cover (:func:`ledger`).  Spans nest per *track*: one track per
request on the serving side (every span carries the request id of the
``dispatch`` call it ran under, executor threads included), one track
per thread otherwise.  The internal spans ``src/`` already emits
(``runner.sweep``, ``runner.chunk``) carry no ``layer`` attribute and
are ignored, so they neither split nor double-count a layer.

Adding a layer: append ``(name, [targets])`` to :data:`LAYERS`, where a
target is ``"module:attr"`` or ``"module:Class.attr"``; the self-test
checks that every target still resolves.
"""

from __future__ import annotations

import bisect
import concurrent.futures
import contextvars
import functools
import importlib
import inspect
import itertools
import sys
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs

#: Every workload measures one fixed map, built from this seed (the
#: serve workloads' service seed too); ``--seed`` drives the draws and
#: requests.  A seed-dependent map would add the cost spread between
#: maps to every comparison.  It lives here because both the client and
#: the server process import this module.
MAP_SEED = 0

#: (layer name, public functions timed under it).  Order is report order.
LAYERS: List[Tuple[str, List[str]]] = [
    ("topology.build", [
        "repro.topology.registry:build_topology",
        "repro.topology.powerlaw:internet_like_graph",
    ]),
    ("graph.connected", ["repro.graph.ops:require_connected"]),
    ("graph.fingerprint", ["repro.graph.forest_cache:graph_fingerprint"]),
    ("graph.bfs", ["repro.graph.paths:bfs"]),
    ("graph.bfs_many", ["repro.graph.paths:bfs_from_many"]),
    ("graph.multi_bfs", ["repro.graph.paths:multi_source_bfs"]),
    ("forest_cache.get", ["repro.graph.forest_cache:ForestCache.forest"]),
    ("store.build", ["repro.graph.distance_store:build_distance_store"]),
    ("store.check", ["repro.graph.distance_store:DistanceStore.check_graph"]),
    ("store.forest", ["repro.graph.distance_store:DistanceStore.forest"]),
    ("sampling.draw", [
        "repro.multicast.sampling:sample_distinct_receivers_sweep",
        "repro.multicast.sampling:sample_receivers_with_replacement_sweep",
    ]),
    ("tree.walk", [
        "repro.multicast.tree:MulticastTreeCounter.count_trees_and_unicast",
    ]),
    ("tree.unicast", [
        "repro.multicast.tree:MulticastTreeCounter.unicast_totals_batch",
    ]),
    # Named per call: builder.<algorithm> from the first argument.
    ("builder", ["repro.multicast.builders:count_tree_links"]),
    # measure_sweep run on behalf of a request is request.backend.
    ("runner.sweep", ["repro.experiments.runner:measure_sweep"]),
    ("table.fit", ["repro.serve.tables:EstimatorTable.from_sweep"]),
    ("table.lookup", ["repro.serve.tables:EstimatorTable.lookup"]),
    ("fleet.store.publish", ["repro.serve.fleet.store:publish_tables"]),
    ("fleet.store.attach", ["repro.serve.fleet.store:attach_tables"]),
    ("request.answer", ["repro.serve.handlers:EstimationService.dispatch"]),
    ("request.estimate", [
        "repro.serve.handlers:EstimationService.handle_estimate",
    ]),
    ("request.simulate", [
        "repro.serve.handlers:EstimationService.handle_simulate",
    ]),
    ("request.encode", ["repro.serve.handlers:Response.json"]),
]

#: The builders a sweep routes through ``count_tree_links`` (spt goes
#: through the batched walk, ``tree.walk``).
BUILDER_LAYERS = ("builder.steiner-tm", "builder.dst-approx", "builder.kdisjoint")

#: Every layer name the ledger reports, in report order.  The two
#: ``request.*`` names below are not wrappers: ``request.backend`` is
#: ``measure_sweep`` under a request, ``request.transport`` the client
#: round trip minus ``dispatch``.
LAYER_NAMES: Tuple[str, ...] = tuple(
    itertools.chain.from_iterable(
        BUILDER_LAYERS if name == "builder" else (name,) for name, _ in LAYERS
    )
) + ("request.backend", "request.transport")

#: Layers whose span *is* the op (a sweep workload's op is one or more
#: ``measure_sweep`` calls).  Their self time -- argument checks, seed
#: spawning, the float reduction -- is reported but counts as
#: unattributed: time a missing wrapper leaves behind lands there, so it
#: shows up as lost coverage.  A request's op is the client round trip,
#: which ``request.transport`` and ``dispatch`` split between them.
ENTRY_LAYERS = ("runner.sweep",)

_REQUEST_ID: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "suite_request_id", default=None
)
#: Request ids are unique per process, across installations.
_REQUEST_IDS = itertools.count(1)


def resolve(target: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, raw value)`` for a ``"module:path"`` target.

    The raw value comes from the owner's ``__dict__``, so a
    ``staticmethod`` comes back as the descriptor itself.
    """
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(f"{target}: {owner!r} has no attribute {attr!r}")
    return owner, attr, vars(owner)[attr]


def _span(name: str):
    request_id = _REQUEST_ID.get()
    if request_id is None:
        return obs.span(name, layer=1)
    return obs.span(name, layer=1, request_id=request_id)


def _span_name(layer: str, args: tuple) -> str:
    if layer == "builder":
        return f"builder.{args[0]}"
    if layer == "runner.sweep" and _REQUEST_ID.get() is not None:
        return "request.backend"
    return layer


def _wrap(fn: Callable, layer: str) -> Callable:
    if layer == "request.answer":
        # dispatch is the request boundary: it stamps a fresh id that
        # every span under it (executor threads too) inherits.
        @functools.wraps(fn)
        async def dispatch(*args, **kwargs):
            token = _REQUEST_ID.set(next(_REQUEST_IDS))
            try:
                with _span(layer):
                    return await fn(*args, **kwargs)
            finally:
                _REQUEST_ID.reset(token)

        return dispatch
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            with _span(_span_name(layer, args)):
                return await fn(*args, **kwargs)

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with _span(_span_name(layer, args)):
            return fn(*args, **kwargs)

    return wrapper


def _submit_in_context(submit: Callable) -> Callable:
    """``Executor.submit`` that runs the call in the submitter's context,
    so executor-thread spans keep the request id of their request."""

    @functools.wraps(submit)
    def wrapper(self, fn, /, *args, **kwargs):
        return submit(self, contextvars.copy_context().run, fn, *args, **kwargs)

    return wrapper


class Installation:
    """Wrappers in place; :meth:`remove` restores every original."""

    def __init__(self, skip: Sequence[str] = ()) -> None:
        self._patches: List[Tuple[Any, str, Any]] = []
        self._swaps: List[Tuple[Any, Any]] = []
        for layer, targets in LAYERS:
            if layer in skip:
                continue
            for target in targets:
                owner, attr, raw = resolve(target)
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                wrapped = _wrap(fn, layer)
                self._patch(owner, attr, staticmethod(wrapped) if is_static else wrapped)
                self._swaps.append((fn, wrapped))
        pool = concurrent.futures.ThreadPoolExecutor
        self._patch(pool, "submit", _submit_in_context(pool.submit))
        self._rebind(self._swaps)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    @staticmethod
    def _rebind(swaps: Sequence[Tuple[Any, Any]]) -> None:
        """Point every by-name import (``from m import f``) and class
        alias (``get = forest``) in the loaded ``repro`` modules at the
        replacement."""
        lookup = {id(old): new for old, new in swaps}
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            owners = [module] + [
                value for value in vars(module).values()
                if isinstance(value, type) and value.__module__ == name
            ]
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    new = lookup.get(id(value))
                    if new is not None:
                        setattr(owner, key, new)

    def remove(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._rebind([(new, old) for old, new in self._swaps])
        self._patches.clear()
        self._swaps.clear()


def install(skip: Sequence[str] = ()) -> Installation:
    """Wrap every layer in :data:`LAYERS` except those named in ``skip``."""
    return Installation(skip)


class Tracing:
    """Wrappers plus an armed obs collector; :attr:`spans` collects the
    finished spans of every armed stretch.  Also a context manager."""

    def __init__(self, skip: Sequence[str] = ()) -> None:
        self.skip = skip
        self.spans: List[Dict[str, Any]] = []
        self._installation: Optional[Installation] = None

    def arm(self) -> None:
        self._installation = install(self.skip)
        obs.start_tracing()

    def disarm(self) -> None:
        collector = obs.stop_tracing()
        self._installation.remove()
        self._installation = None
        self.spans.extend(collector.export())

    def __enter__(self) -> "Tracing":
        self.arm()
        return self

    def __exit__(self, *exc) -> None:
        self.disarm()


# ----------------------------------------------------------------------
# Ledger
# ----------------------------------------------------------------------


def layer_spans(spans: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The spans the wrappers opened (ignoring ``src/``'s own spans)."""
    return [s for s in spans if s.get("attrs", {}).get("layer")]


def _track(span: Dict[str, Any]):
    request_id = span["attrs"].get("request_id")
    if request_id is not None:
        return ("request", request_id)
    return ("thread", span["pid"], span["thread"])


def nest(spans: Sequence[Dict[str, Any]]) -> Dict[int, Optional[int]]:
    """``span_id -> parent span_id`` from interval containment per track.

    The recorded ``parent_id`` follows a thread-local stack, which is
    wrong for coroutines of concurrent requests sharing the event-loop
    thread; containment within a request's track is not.
    """
    tracks: Dict[Any, List[Dict[str, Any]]] = {}
    for span in spans:
        tracks.setdefault(_track(span), []).append(span)
    parents: Dict[int, Optional[int]] = {}
    for members in tracks.values():
        members.sort(key=lambda s: (s["start"], -s["end"]))
        stack: List[Dict[str, Any]] = []
        for span in members:
            while stack and stack[-1]["end"] <= span["start"]:
                stack.pop()
            parents[span["span_id"]] = stack[-1]["span_id"] if stack else None
            stack.append(span)
    return parents


def self_times(
    spans: Sequence[Dict[str, Any]], parents: Dict[int, Optional[int]]
) -> Dict[int, float]:
    """``span_id -> self seconds`` (duration minus direct children)."""
    child_time: Dict[int, float] = {}
    for span in spans:
        parent = parents[span["span_id"]]
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + span["duration"]
    return {
        span["span_id"]: max(0.0, span["duration"] - child_time.get(span["span_id"], 0.0))
        for span in spans
    }


def _outermost(
    spans: Sequence[Dict[str, Any]], parents: Dict[int, Optional[int]]
) -> List[Dict[str, Any]]:
    """Spans with no ancestor of the same name (inclusive time once)."""
    by_id = {span["span_id"]: span for span in spans}
    chosen = []
    for span in spans:
        parent = parents[span["span_id"]]
        while parent is not None and by_id[parent]["name"] != span["name"]:
            parent = parents[parent]
        if parent is None:
            chosen.append(span)
    return chosen


def reparent(spans: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Copies of ``spans`` whose ``parent_id`` is the track nesting."""
    parents = nest(spans)
    return [dict(span, parent_id=parents[span["span_id"]]) for span in spans]


def within(
    spans: Iterable[Dict[str, Any]], windows: Sequence[Tuple[float, float]]
) -> List[Dict[str, Any]]:
    """The layer spans whose midpoint falls inside one of ``windows``."""
    merged: List[List[float]] = []
    for lo, hi in sorted(windows):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    starts = [lo for lo, _ in merged]
    chosen = []
    for span in layer_spans(spans):
        mid = 0.5 * (span["start"] + span["end"])
        i = bisect.bisect_right(starts, mid) - 1
        if i >= 0 and mid <= merged[i][1]:
            chosen.append(span)
    return chosen


def ledger(
    spans: Sequence[Dict[str, Any]],
    windows: Sequence[Tuple[float, float]],
    units: int,
    wall_s: float,
    extra_self_s: Optional[Dict[str, Tuple[float, int]]] = None,
) -> Dict[str, Any]:
    """Per-unit self seconds and calls of every layer inside ``windows``.

    ``windows`` are the timed intervals (one per unit, or per phase);
    ``wall_s`` is the traced wall time they add up to; ``extra_self_s``
    holds computed layers (``request.transport``) as ``(seconds, calls)``.
    Coverage is the share of ``wall_s`` that a layer other than an entry
    layer claims as self time.  ``total_s`` is inclusive time (children
    included), counted once where a layer nests in itself.
    """
    chosen = within(spans, windows)
    parents = nest(chosen)
    selfs = self_times(chosen, parents)
    totals = {name: [0.0, 0, 0.0] for name in LAYER_NAMES}
    for span in chosen:
        entry = totals.setdefault(span["name"], [0.0, 0, 0.0])
        entry[0] += selfs[span["span_id"]]
        entry[1] += 1
    for span in _outermost(chosen, parents):
        totals[span["name"]][2] += span["duration"]
    for name, (seconds, calls) in (extra_self_s or {}).items():
        totals[name][0] += seconds
        totals[name][1] += calls
        totals[name][2] += seconds
    attributed = sum(
        entry[0] for name, entry in totals.items() if name not in ENTRY_LAYERS
    )
    per_unit = max(units, 1)
    return {
        "units": units,
        "wall_s": wall_s,
        "coverage": attributed / wall_s if wall_s > 0 else 0.0,
        "layers": {
            name: {"self_s": self_s / per_unit, "calls": calls / per_unit,
                   "total_s": total_s / per_unit}
            for name, (self_s, calls, total_s) in totals.items()
        },
    }
