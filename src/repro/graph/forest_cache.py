"""An LRU cache of BFS forests keyed by graph content.

The Monte-Carlo drivers repeatedly rebuild structurally identical
topologies (each figure driver constructs its own :class:`Graph` from the
same seed) and then BFS from the same sources.  Because :class:`Graph` is
immutable, a shortest-path forest is a pure function of
``(graph content, source, tie-break policy, tie-break seed)`` — so those
four values key a process-wide cache and the recomputation disappears.

Keying
------
Graphs are identified by :func:`graph_fingerprint`: a SHA-1 over the node
count and the raw CSR arrays.  Two independently built but structurally
identical graphs therefore share cache entries (this is what makes the
cache effective across figure drivers, benches, and the CLI ``all`` run).
The fingerprint is memoized per graph *object*, so the O(E) hash is paid
once per built graph, not once per lookup.

``tie_break="first"`` forests are deterministic and cached under
``seed=None``.  ``tie_break="random"`` forests are only cacheable when the
caller names the randomness: pass an integer ``seed`` and the cached entry
is the forest produced by ``bfs(..., rng=seed)``.  Passing a live
generator is rejected — its state is not a stable key.

Invalidation
------------
Entries never go stale (graphs are immutable; the fingerprint is the
content), so the only eviction is LRU once ``max_entries`` is exceeded.
``clear()`` empties a cache explicitly — tests that count BFS invocations
and long-lived services that churn through many topologies use it.

Write protection
----------------
Cached forests are *shared* — one entry may serve every figure driver in
a process — so :meth:`ForestCache.forest` re-asserts
``writeable=False`` on the ``dist``/``parent`` arrays each time it hands
an entry out.  In-place writes raise ``ValueError`` at the write site
(the runtime backstop for the static rule RR002 in ``repro.lint``);
callers that genuinely need a writable forest take an independent copy
from :meth:`ForestCache.borrow_mutable`.

Reuse
-----
A hit marks the forest :attr:`~repro.graph.paths.ShortestPathForest.reused`.
A sparse tree-counting call on a reused forest builds the forest's
preorder tables and the forest keeps them
(:attr:`~repro.graph.paths.ShortestPathForest.preorder`), so every later
call on it counts without a climb.  Forests handed out once, distance
store rows and plain :func:`~repro.graph.paths.bfs` forests never keep
tables.  :meth:`ForestCache.borrow_mutable` copies carry neither the
mark nor tables.

A module-level default cache (:func:`default_forest_cache`) serves
``distance_matrix``, the experiment runner, and anything else that does
not manage its own; it holds at most :data:`DEFAULT_MAX_ENTRIES` forests
(two int32 arrays each, so ~8 MB per thousand cached 10k-node forests,
plus ~180 KB of kept preorder tables per reused 10k-node forest: ~92 MB
if all 512 are reused and counted sparsely).
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro import faults, obs
from repro.exceptions import GraphError
from repro.graph.core import Graph
from repro.graph.paths import ShortestPathForest, bfs

__all__ = [
    "ForestCache",
    "graph_fingerprint",
    "prime_fingerprint",
    "default_forest_cache",
    "DEFAULT_MAX_ENTRIES",
]

#: Default capacity of a :class:`ForestCache`, in forests.
DEFAULT_MAX_ENTRIES = 512

_FP_COMPUTE = faults.point(
    "forest_cache.compute",
    "In the single-flight leader, before the BFS runs; a failure here "
    "must wake every waiter and leave them free to retry — never an "
    "inherited exception or a hang.",
)
_FP_EVICT_RACE = faults.point(
    "forest_cache.evict_race",
    "In a waiter, right after the leader's completion event fires and "
    "before the cache is re-checked; a 'call' action here scripts an "
    "eviction into the race window the retry loop exists for.",
)

# Process-wide mirrors of every cache instance's counters, incremented
# at the same sites (inside the instance lock) so the obs exposition
# and the per-instance stats can never disagree about an event.
_OBS_HITS = obs.counter(
    "repro_forest_cache_hits_total", "Forest cache lookups served from memory."
)
_OBS_MISSES = obs.counter(
    "repro_forest_cache_misses_total", "Forest cache lookups that ran a BFS."
)
_OBS_EVICTIONS = obs.counter(
    "repro_forest_cache_evictions_total", "Cached forests dropped by LRU."
)
_OBS_COALESCED = obs.counter(
    "repro_forest_cache_coalesced_total",
    "Lookups that waited on another thread's in-flight BFS.",
)

# fingerprint memo: id(graph) -> (weak ref to graph, hex digest).  The
# weak ref tells a live entry from a recycled id without pinning the
# graph — an attached graph's shared mapping must die with its last
# user, not when this bounded memo evicts it.
_FINGERPRINT_MEMO: "OrderedDict[int, Tuple[weakref.ref, str]]" = OrderedDict()
_FINGERPRINT_MEMO_MAX = 64
_FINGERPRINT_LOCK = threading.Lock()


def graph_fingerprint(graph: Graph) -> str:
    """Stable content fingerprint of ``graph`` (SHA-1 hex digest).

    Identical CSR content yields identical fingerprints across processes
    and sessions, which is what lets worker processes and repeated driver
    runs share cache keys.
    """
    with _FINGERPRINT_LOCK:
        memo = _FINGERPRINT_MEMO.get(id(graph))
        if memo is not None and memo[0]() is graph:
            _FINGERPRINT_MEMO.move_to_end(id(graph))
            return memo[1]
    digest = hashlib.sha1()
    digest.update(int(graph.num_nodes).to_bytes(8, "little"))
    digest.update(graph.indptr.tobytes())
    digest.update(graph.indices.tobytes())
    fingerprint = digest.hexdigest()
    with _FINGERPRINT_LOCK:
        _FINGERPRINT_MEMO[id(graph)] = (weakref.ref(graph), fingerprint)
        while len(_FINGERPRINT_MEMO) > _FINGERPRINT_MEMO_MAX:
            _FINGERPRINT_MEMO.popitem(last=False)
    return fingerprint


def prime_fingerprint(graph: Graph, fingerprint: str) -> None:
    """Seed the memo with a fingerprint computed elsewhere.

    Shared-memory attachments (:meth:`repro.graph.core.Graph.from_shared`)
    learn their content fingerprint from the descriptor, so the O(E)
    hash need not be re-paid per worker attachment; priming the memo
    makes the attached graph hit the same :class:`ForestCache` keys as
    the graph it mirrors.  The caller vouches that ``fingerprint`` is
    the digest :func:`graph_fingerprint` would compute.
    """
    with _FINGERPRINT_LOCK:
        _FINGERPRINT_MEMO[id(graph)] = (weakref.ref(graph), str(fingerprint))
        _FINGERPRINT_MEMO.move_to_end(id(graph))
        while len(_FINGERPRINT_MEMO) > _FINGERPRINT_MEMO_MAX:
            _FINGERPRINT_MEMO.popitem(last=False)


class ForestCache:
    """LRU cache of :class:`ShortestPathForest` results.

    Parameters
    ----------
    max_entries:
        Number of forests retained; least-recently-used entries are
        evicted beyond it.

    Thread safety: lookups and inserts hold an internal lock, so one
    cache may serve multiple threads (worker *processes* each have their
    own).  Misses are additionally **single-flight** per key: when many
    threads ask for the same uncached forest at once — the serving
    layer's concurrent simulate handlers do exactly this — one thread
    runs the BFS while the rest wait on its completion event, so the
    O(V+E) work is paid once, not once per caller, and an eviction
    racing the insert simply sends a late waiter back around the
    lookup/compute loop.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise GraphError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self._max_entries = int(max_entries)
        self._entries: "OrderedDict[Tuple[str, int, str, Optional[int]], ShortestPathForest]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        # key -> Event for the in-flight BFS computing that key.
        self._pending: Dict[
            Tuple[str, int, str, Optional[int]], threading.Event
        ] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.coalesced = 0

    @property
    def max_entries(self) -> int:
        """Capacity in forests."""
        return self._max_entries

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry and reset the instance counters.

        The process-wide obs mirrors are cumulative and are *not* reset;
        they describe the process, not one instance's lifetime.
        """
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.coalesced = 0

    def stats(self) -> Dict[str, int]:
        """A consistent snapshot of the counters, taken under the lock.

        Reading ``cache.hits`` and ``cache.misses`` as two attribute
        loads can interleave with a concurrent lookup and report a pair
        that never existed; this is the torn-read-free way to observe
        the cache (and what ``__repr__`` uses).
        """
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "coalesced": self.coalesced,
            }

    @staticmethod
    def _key(
        graph: Graph, source: int, tie_break: str, seed: Optional[int]
    ) -> Tuple[str, int, str, Optional[int]]:
        if tie_break == "random":
            if seed is None:
                raise GraphError(
                    "caching a random-tie-break forest requires an integer "
                    "seed; live generator state is not a stable cache key"
                )
            seed = int(seed)
        elif seed is not None:
            raise GraphError(
                'seed is only meaningful with tie_break="random"'
            )
        return (graph_fingerprint(graph), int(source), tie_break, seed)

    @staticmethod
    def _freeze(forest: ShortestPathForest) -> ShortestPathForest:
        # Re-assert writeable=False on every hand-out, not just at
        # construction: a caller that thawed the arrays via setflags
        # must not leak a writable view to the *next* caller.  Clearing
        # the flag is always legal, so this is a few ns per hit.
        forest.dist.setflags(write=False)
        forest.parent.setflags(write=False)
        return forest

    def forest(
        self,
        graph: Graph,
        source: int,
        tie_break: str = "first",
        seed: Optional[int] = None,
    ) -> ShortestPathForest:
        """The BFS forest for ``(graph, source, tie_break, seed)``.

        Computes and stores the forest on a miss.  Concurrent misses on
        the same key coalesce: the first caller computes, the others
        block on its completion event and then take the cache hit (if
        the entry was evicted before a waiter woke, that waiter loops
        and becomes the new computing thread — a rare, small cache
        pathology, never an error).  Should the computing thread fail,
        waiters retry rather than inherit its exception.

        The returned object is shared between every caller that asks
        for the same key, and its ``dist``/``parent`` arrays are handed
        out with ``writeable=False`` — in-place mutation raises
        ``ValueError`` (numpy's read-only error) instead of silently
        corrupting the forest for all other users.  Callers that
        legitimately need to write use :meth:`borrow_mutable`.

        A hit marks the forest :attr:`~ShortestPathForest.reused` and
        builds nothing; sparse counting calls on a reused forest then
        keep its preorder tables (see the module docstring's memory
        note).
        """
        key = self._key(graph, source, tie_break, seed)
        while True:
            with self._lock:
                cached = self._entries.get(key)
                if cached is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    _OBS_HITS.inc()
                    cached.mark_reused()
                    return self._freeze(cached)
                pending = self._pending.get(key)
                if pending is None:
                    pending = threading.Event()
                    self._pending[key] = pending
                    self.misses += 1
                    _OBS_MISSES.inc()
                    break
                # Someone else is computing this key: we will block on
                # their event.  Counted under the same lock as the
                # hit/miss bookkeeping so snapshots stay consistent.
                self.coalesced += 1
                _OBS_COALESCED.inc()
            pending.wait()
            _FP_EVICT_RACE.fire(key=key)
        try:
            _FP_COMPUTE.fire(key=key)
            forest = bfs(graph, source, tie_break=tie_break, rng=seed)
            with self._lock:
                self._entries[key] = forest
                self._entries.move_to_end(key)
                while len(self._entries) > self._max_entries:
                    self._entries.popitem(last=False)
                    self.evictions += 1
                    _OBS_EVICTIONS.inc()
        finally:
            # Wake waiters even on failure; they re-check and recompute.
            with self._lock:
                self._pending.pop(key, None)
            pending.set()
        return self._freeze(forest)

    #: Alias; ``cache.get(...)`` reads naturally at call sites that
    #: treat the cache as a mapping.
    get = forest

    def borrow_mutable(
        self,
        graph: Graph,
        source: int,
        tie_break: str = "first",
        seed: Optional[int] = None,
    ) -> ShortestPathForest:
        """A privately-owned, writable copy of a cached forest.

        The escape hatch for callers that want to edit ``dist`` or
        ``parent`` (what-if rewiring, damage studies): the returned
        forest's arrays are independent copies with ``writeable=True``,
        so mutations can never reach the shared cache entry.  Costs one
        O(num_nodes) copy per call; the cache entry itself is reused.
        """
        cached = self.forest(graph, source, tie_break=tie_break, seed=seed)
        copy = ShortestPathForest(
            source=cached.source,
            dist=cached.dist.copy(),
            parent=cached.parent.copy(),
        )
        # The copies own their buffers, so re-enabling writes is legal
        # and affects nobody else.
        copy.dist.setflags(write=True)
        copy.parent.setflags(write=True)
        return copy

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"ForestCache(entries={stats['entries']}/{self._max_entries}, "
            f"hits={stats['hits']}, misses={stats['misses']}, "
            f"evictions={stats['evictions']}, coalesced={stats['coalesced']})"
        )


_DEFAULT_CACHE = ForestCache()


def default_forest_cache() -> ForestCache:
    """The process-wide cache used when callers do not supply their own."""
    return _DEFAULT_CACHE
