"""Request coalescing and the TTL+LRU response cache.

Two small primitives the serving layer composes on its simulate path:

* :class:`SingleFlight` — at most one in-flight backend computation per
  key.  While a computation runs, every arriving request for the same
  key awaits the *same* future instead of spawning its own; the service
  counts those joins as "coalesced" (``/metrics`` exposes the ratio).
  The shared future is handed back shielded, so one impatient caller's
  deadline cannot cancel the computation out from under the others.

* :class:`TTLCache` — a bounded LRU of finished responses with a
  time-to-live.  Responses are deterministic for a fixed service seed,
  so neither bound is about correctness: the TTL ages out entries, the
  LRU bound caps memory.

Neither primitive knows anything about HTTP or the estimators — they
are reusable and separately tested.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from typing import Any, Awaitable, Callable, Dict, Hashable, Optional, Tuple

__all__ = ["SingleFlight", "TTLCache"]


class SingleFlight:
    """Deduplicate concurrent identical computations onto one future.

    ``join(key, factory)`` returns ``(future, leader)``: the first
    caller for a key becomes the leader (its ``factory()`` coroutine is
    scheduled as a task), every concurrent follower gets the same
    underlying future.  The returned awaitable is wrapped in
    :func:`asyncio.shield` so a caller applying ``wait_for`` (the
    service's deadline) abandons only its own wait — the computation
    keeps running and still resolves for the other joiners and the
    response cache.

    Counters: ``started`` leaders, ``coalesced`` followers.

    ``wait_for`` injects the timeout strategy used by :meth:`run` —
    production passes nothing (``asyncio.wait_for``); services on a
    :class:`~repro.faults.clock.VirtualClock` pass ``clock.wait_for`` so
    deadlines fire on virtual time.
    """

    def __init__(
        self,
        wait_for: Optional[
            Callable[[Awaitable[Any], Optional[float]], Awaitable[Any]]
        ] = None,
    ) -> None:
        self._inflight: Dict[Hashable, "asyncio.Future[Any]"] = {}
        self._wait_for = wait_for if wait_for is not None else asyncio.wait_for
        self.started = 0
        self.coalesced = 0

    def __len__(self) -> int:
        return len(self._inflight)

    def join(
        self,
        key: Hashable,
        factory: Callable[[], Awaitable[Any]],
    ) -> Tuple["Awaitable[Any]", bool]:
        """The shared (shielded) awaitable for ``key``, and leadership."""
        task: "Optional[asyncio.Future[Any]]" = self._inflight.get(key)
        if task is not None and not task.done():
            self.coalesced += 1
            return asyncio.shield(task), False
        try:
            task = asyncio.ensure_future(factory())
        except Exception as exc:  # repro-lint: disable=RR004 (re-raised via the stored future)
            # The leader failed synchronously (before a coroutine even
            # existed).  Surface the failure through the same resolved-
            # future path as any other leader error so the caller sees
            # the exception on await and the done-callback below still
            # clears the entry — no leaked in-flight key, no hung
            # waiters; later joiners simply elect a fresh leader.
            task = asyncio.get_running_loop().create_future()
            task.set_exception(exc)
        self._inflight[key] = task
        self.started += 1
        task.add_done_callback(lambda _t: self._forget(key, _t))
        return asyncio.shield(task), True

    def _forget(self, key: Hashable, task: "asyncio.Future[Any]") -> None:
        if self._inflight.get(key) is task:
            del self._inflight[key]

    async def run(
        self,
        key: Hashable,
        factory: Callable[[], Awaitable[Any]],
        timeout: Optional[float] = None,
    ) -> Any:
        """Await the shared computation, optionally bounded by ``timeout``.

        Raises :class:`asyncio.TimeoutError` for this caller only; the
        underlying computation is never cancelled by a timeout.
        """
        shared, _leader = self.join(key, factory)
        if timeout is None:
            return await shared
        return await self._wait_for(shared, timeout)


class TTLCache:
    """Bounded LRU mapping with per-entry expiry.

    ``get`` returns ``default`` for absent *and* expired keys (expired
    entries are dropped on observation); ``put`` refreshes both the
    value and the clock.  ``hits``/``misses`` feed the ``/metrics`` hit
    ratio.  The ``clock`` injection point keeps the TTL tests
    deterministic.
    """

    def __init__(
        self,
        max_entries: int = 1024,
        ttl_seconds: float = 300.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if ttl_seconds <= 0:
            raise ValueError(f"ttl_seconds must be > 0, got {ttl_seconds}")
        self._entries: "OrderedDict[Hashable, Tuple[float, Any]]" = OrderedDict()
        self._max_entries = int(max_entries)
        self._ttl = float(ttl_seconds)
        self._clock = clock
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def max_entries(self) -> int:
        return self._max_entries

    @property
    def ttl_seconds(self) -> float:
        return self._ttl

    def get(self, key: Hashable, default: Any = None) -> Any:
        entry = self._entries.get(key)
        if entry is not None:
            expires, value = entry
            if self._clock() < expires:
                self._entries.move_to_end(key)
                self.hits += 1
                return value
            del self._entries[key]
        self.misses += 1
        return default

    def put(self, key: Hashable, value: Any) -> None:
        self._entries[key] = (self._clock() + self._ttl, value)
        self._entries.move_to_end(key)
        while len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
