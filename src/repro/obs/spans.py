"""Structured trace spans with a VirtualClock-compatible timing seam.

A *span* brackets one unit of work — a sweep, a worker chunk, a figure
driver — with a name, free-form attributes, start/end timestamps, and
parent linkage (nesting follows the call stack per thread)::

    with obs.span("runner.chunk", topology="arpa", m=32) as sp:
        ...
        sp.set(samples=1280)

Arming
------
Like :class:`repro.faults.FaultPoint`, spans are **free when
disarmed**: with no collector active, :func:`span` returns a shared
no-op object — one module-global load and an ``is None`` test, gated
by ``benchmarks/obs_smoke.py``.  Tests and the CLI arm a
:class:`TraceCollector` via :func:`start_tracing` /
:func:`stop_tracing` or the :func:`tracing` context manager.

Clocks
------
The collector reads time through an injected callable returning
monotonic seconds — ``time.perf_counter`` by default,
:class:`repro.faults.clock.VirtualClock` in chaos tests, so traces
recorded under virtual time are bit-deterministic.

Processes
---------
Collection is per-process (worker processes run disarmed unless they
arm their own collector); every exported span carries its ``pid`` so
merged dumps stay attributable, and :meth:`TraceCollector.absorb`
folds a worker's exported list into the parent's.

Profiling
---------
``REPRO_OBS_PROFILE`` opts spans into per-span capture (see
:mod:`repro.obs.profile`): ``cprofile`` attaches a function-level
profile to every span, any other truthy value records wall
nanoseconds.  The environment is read when the collector is armed, so
production code paths carry no conditional at all when tracing is off.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs.profile import PROFILE_ENV, resolve_profile_mode, start_capture

__all__ = [
    "Span",
    "TraceCollector",
    "span",
    "start_tracing",
    "stop_tracing",
    "active_collector",
    "tracing",
]


class _NoopSpan:
    """The shared disarmed span: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass

    @property
    def duration(self) -> Optional[float]:
        return None


_NOOP = _NoopSpan()


class Span:
    """One recorded unit of work (live only while a collector is armed)."""

    __slots__ = (
        "name",
        "attrs",
        "span_id",
        "parent_id",
        "start",
        "end",
        "thread",
        "profile",
        "_collector",
        "_capture",
        "_stack",
    )

    def __init__(
        self, collector: "TraceCollector", name: str, attrs: Dict[str, Any]
    ) -> None:
        self.name = name
        self.attrs = attrs
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None
        self.start: Optional[float] = None
        self.end: Optional[float] = None
        self.thread: Optional[str] = None
        self.profile: Optional[Dict[str, Any]] = None
        self._collector = collector
        self._capture = None
        self._stack: Optional[List["Span"]] = None

    @property
    def pid(self) -> int:
        """The recording process (collection is per-process)."""
        return self._collector.pid

    def set(self, **attrs: Any) -> None:
        """Attach/overwrite attributes (usable during and after the block;
        the export reads them when it first sees the finished span)."""
        self.attrs.update(attrs)

    @property
    def duration(self) -> Optional[float]:
        if self.start is None or self.end is None:
            return None
        return self.end - self.start

    def __enter__(self) -> "Span":
        collector = self._collector
        self.span_id = next(collector._ids)
        stack, self.thread = collector._thread_state()
        self._stack = stack
        if stack:
            self.parent_id = stack[-1].span_id
        stack.append(self)
        if collector.profile_mode:
            self._capture = start_capture(collector.profile_mode)
        self.start = collector.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        collector = self._collector
        self.end = collector.clock()
        if self._capture is not None:
            self.profile = self._capture.stop()
            self._capture = None
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        stack = self._stack
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:
            # Robust to exotic unwinding: drop us wherever we sit.
            while stack[-1] is not self:
                stack.pop()
            stack.pop()
        # A list append is atomic; the payload is built at export.
        collector._finished.append(self)
        return False

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "attrs": dict(self.attrs),
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "pid": self.pid,
            "thread": self.thread,
        }
        if self.profile is not None:
            payload["profile"] = self.profile
        return payload


class TraceCollector:
    """Thread-safe container for finished spans.

    Parameters
    ----------
    clock:
        Callable returning monotonic seconds; defaults to
        ``time.perf_counter``.  Pass a
        :class:`~repro.faults.clock.VirtualClock` for deterministic
        traces.
    profile:
        Profiling mode override; ``None`` reads ``REPRO_OBS_PROFILE``
        once, at construction.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        profile: Optional[str] = None,
    ) -> None:
        self.clock: Callable[[], float] = clock or time.perf_counter
        if profile is None:
            profile = os.environ.get(PROFILE_ENV, "")
        self.profile_mode = resolve_profile_mode(profile)
        # Collection is per-process, so every span carries this pid.
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._spans: List[Dict[str, Any]] = []
        # Spans finished since the last flush, in completion order.
        self._finished: List[Span] = []
        # next() on a count is atomic, so ids need no lock.
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _thread_state(self) -> Tuple[List[Span], str]:
        """This thread's open-span stack and its name (read once)."""
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = ([], threading.current_thread().name)
            return state

    def _flush(self) -> None:
        """Append the finished spans' payloads (caller holds the lock).

        Spans finishing meanwhile on other threads append past the
        snapshot and wait for the next flush, so order is kept.
        """
        finished = self._finished
        done = finished[:]
        del finished[: len(done)]
        self._spans.extend(span.to_dict() for span in done)

    def span(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> Span:
        return Span(self, name, dict(attrs or {}))

    def __len__(self) -> int:
        with self._lock:
            self._flush()
            return len(self._spans)

    def export(self) -> List[Dict[str, Any]]:
        """Finished spans, in completion order (JSON-safe dicts)."""
        with self._lock:
            self._flush()
            return [dict(payload) for payload in self._spans]

    def absorb(self, spans: Iterable[Dict[str, Any]]) -> None:
        """Fold spans exported elsewhere (another process) into this one."""
        incoming = [dict(payload) for payload in spans]
        with self._lock:
            self._flush()
            self._spans.extend(incoming)

    def dump_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.export(), handle, indent=2, sort_keys=True)
            handle.write("\n")


#: The armed collector, or None.  Read on every span() call, so keep it
#: a plain module global (one LOAD_GLOBAL on the disarmed fast path).
_ACTIVE: Optional[TraceCollector] = None


def span(name: str, **attrs: Any):
    """A context-manager span; free when no collector is armed."""
    collector = _ACTIVE
    if collector is None:
        return _NOOP
    # ``attrs`` is this call's own dict, so it needs no copy.
    return Span(collector, name, attrs)


def start_tracing(
    clock: Optional[Callable[[], float]] = None,
    profile: Optional[str] = None,
) -> TraceCollector:
    """Arm a fresh collector; exactly one may be active per process."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError(
            "a TraceCollector is already active; stop_tracing() first"
        )
    _ACTIVE = TraceCollector(clock=clock, profile=profile)
    return _ACTIVE


def stop_tracing() -> Optional[TraceCollector]:
    """Disarm and return the active collector (None when disarmed)."""
    global _ACTIVE
    collector = _ACTIVE
    _ACTIVE = None
    return collector


def active_collector() -> Optional[TraceCollector]:
    return _ACTIVE


@contextmanager
def tracing(
    clock: Optional[Callable[[], float]] = None,
    profile: Optional[str] = None,
):
    """``with obs.tracing() as collector:`` — arm for the block only."""
    collector = start_tracing(clock=clock, profile=profile)
    try:
        yield collector
    finally:
        stop_tracing()
