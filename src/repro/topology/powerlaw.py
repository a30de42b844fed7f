"""Power-law (preferential-attachment) topologies.

Stand-ins for the paper's two direct Internet measurements — the SCAN
router-level map ("Internet") and the NLANR AS-connectivity map ("AS").
Faloutsos, Faloutsos & Faloutsos (the paper's reference [8]) showed these
maps have power-law degree distributions; preferential attachment is the
canonical generative model for that regime, and it reproduces the two
properties the paper actually uses:

* exponential reachability growth ``T(r)`` before saturation (Figure 7),
* a linear ``L̂(n)/(n·ū)`` versus ``ln n`` series (Figure 6).

:func:`preferential_attachment_graph` is a Barabási–Albert process with an
optional *fringe*: a fraction of late-arriving nodes attach with a single
edge, mimicking the degree-1 access routers that dominate router-level
maps.

Seed-stream contract
--------------------
The generator is chunk-streaming: it never materializes a Python
endpoint list or per-node Python sets for the whole graph, emits CSR
directly, and keeps its working set bounded by O(edges) int32 scratch.
Two draw streams are supported, selected by ``stream=``:

``"loop"`` (default)
    Bit-identical replay of the historical per-node attach loop: the
    same ``Generator`` consumes the same sequence of ``integers`` calls
    (one batched call of ``edges_per_node`` draws per node — identical
    to the historical scalar draws — plus scalar top-ups on duplicate
    hits), and duplicate rejection goes through a real Python set so
    even the set-iteration order of the endpoint extension is
    preserved.  Every graph ever built from a seed reproduces exactly.

``"vectorized"``
    A new, documented stream: targets are drawn chunk-at-a-time as
    ``rng.random`` floats scaled to the live endpoint-pool length, with
    in-chunk references resolved by deterministic chain-chasing and
    within-node duplicates repaired by further draws from the same
    stream.  The fixed internal chunk size (``_VECTOR_CHUNK_NODES``) is
    part of the contract.  ~10-100x faster than ``"loop"``; use it for
    million-node builds.

Both streams realize the same repeated-endpoints process: the endpoint
pool after ``t`` edges is, positionally, ``pool[2t] = heads[t]`` and
``pool[2t + 1] = tails[t]``, and because every node attaches only to
already-present nodes, the pool length during a node's draws is the
fixed ``2 * edge_base(node)`` and self-loops are impossible.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import TopologyError
from repro.graph.core import Graph
from repro.utils.rng import RandomState, ensure_rng

__all__ = [
    "preferential_attachment_graph",
    "internet_like_graph",
    "as_like_graph",
]

#: Nodes per draw chunk in the ``"vectorized"`` stream.  Fixed — retry
#: draws interleave differently across chunk boundaries, so the chunk
#: size is part of the seed-stream contract, not a tuning knob.
_VECTOR_CHUNK_NODES = 32_768


def _plan(
    num_nodes: int, edges_per_node: int, fringe_fraction: float
) -> Tuple[int, int, int, int]:
    """Validate parameters and return (num_core, seed_size, seed_edges, total_edges)."""
    if num_nodes < 2:
        raise TopologyError(f"num_nodes must be >= 2, got {num_nodes}")
    if edges_per_node < 1:
        raise TopologyError(f"edges_per_node must be >= 1, got {edges_per_node}")
    if not 0.0 <= fringe_fraction < 1.0:
        raise TopologyError(
            f"fringe_fraction must be in [0, 1), got {fringe_fraction}"
        )
    if edges_per_node >= num_nodes:
        raise TopologyError(
            f"edges_per_node ({edges_per_node}) must be below num_nodes "
            f"({num_nodes})"
        )
    num_fringe = int(round(num_nodes * fringe_fraction))
    num_core = num_nodes - num_fringe
    if num_core < edges_per_node + 1:
        raise TopologyError(
            f"fringe_fraction {fringe_fraction} leaves only {num_core} core "
            f"nodes; need at least edges_per_node + 1 = {edges_per_node + 1}"
        )
    seed_size = edges_per_node + 1
    seed_edges = seed_size * (seed_size - 1) // 2
    total_edges = (
        seed_edges + edges_per_node * (num_core - seed_size) + num_fringe
    )
    return num_core, seed_size, seed_edges, total_edges


def _arc_arrays(
    num_nodes: int, num_core: int, seed_size: int, seed_edges: int, total: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Allocate (heads, tails) with all heads — which are deterministic —
    prefilled, and the seed clique's tails written.

    Edge ``t`` was created by node ``heads[t]`` attaching to the older
    node ``tails[t]``; the endpoint pool is the interleave of the two.
    """
    heads = np.empty(total, dtype=np.int32)
    tails = np.empty(total, dtype=np.int32)
    m = seed_size - 1
    # Seed clique in historical nested order: (0,1), (0,2), ... (u, v>u).
    pos = 0
    for u in range(seed_size):
        for v in range(u + 1, seed_size):
            heads[pos] = u
            tails[pos] = v
            pos += 1
    core = np.arange(seed_size, num_core, dtype=np.int32)
    heads[seed_edges : seed_edges + m * len(core)] = np.repeat(core, m)
    heads[seed_edges + m * len(core) :] = np.arange(
        num_core, num_nodes, dtype=np.int32
    )
    return heads, tails


def _pool_lookup(
    idx: np.ndarray, heads: np.ndarray, tails: np.ndarray
) -> np.ndarray:
    """Resolve endpoint-pool indices: pool[2t] = heads[t], pool[2t+1] = tails[t]."""
    edge = idx >> 1
    return np.where(idx & 1 == 1, tails[edge], heads[edge]).astype(
        np.int32, copy=False
    )


def _fill_loop_stream(
    generator: np.random.Generator,
    heads: np.ndarray,
    tails: np.ndarray,
    node_lo: int,
    node_hi: int,
    per_node: int,
    edge_base: int,
) -> None:
    """Replay the historical attach loop for nodes [node_lo, node_hi).

    Consumes the generator exactly as the per-node loop did: the pool
    length is pinned at ``2 * edge_base(node)`` for all of a node's
    draws (extensions happened after the draws), a batched ``integers``
    call is stream-identical to the historical scalar draws, the
    ``candidate != node`` rejection is kept verbatim (it can never fire
    — the pool only holds older nodes — but fidelity is the point), and
    the accepted targets pass through a real Python set so the endpoint
    pool extends in the same set-iteration order.
    """
    pos = edge_base
    for node in range(node_lo, node_hi):
        pool_len = 2 * pos
        targets: set = set()
        drawn = _pool_lookup(
            generator.integers(0, pool_len, size=per_node), heads, tails
        )
        for candidate in drawn.tolist():
            if candidate != node:
                targets.add(candidate)
        while len(targets) < per_node:
            idx = int(generator.integers(0, pool_len))
            candidate = int(tails[idx >> 1] if idx & 1 else heads[idx >> 1])
            if candidate != node:
                targets.add(candidate)
        tails[pos : pos + per_node] = list(targets)
        pos += per_node


def _fill_vectorized_stream(
    generator: np.random.Generator,
    heads: np.ndarray,
    tails: np.ndarray,
    node_lo: int,
    node_hi: int,
    per_node: int,
    edge_base: int,
) -> None:
    """Chunked vectorized draws for nodes [node_lo, node_hi).

    Each draw is one float in [0, 1) scaled by the drawing node's pool
    length ``2 * edge_base(node)``.  Draw ``p`` of a chunk materializes
    edge ``chunk_base + p``, so an odd pool index landing on an in-chunk
    edge is resolved by chasing to that draw's own (strictly earlier)
    index until it exits the chunk or lands on a head — the chain is
    strictly decreasing in edge number, so it terminates.  Within-node
    duplicate rows are then repaired with further whole-row draws from
    the same stream against the now-materialized chunk.
    """
    for chunk_lo in range(node_lo, node_hi, _VECTOR_CHUNK_NODES):
        chunk_hi = min(chunk_lo + _VECTOR_CHUNK_NODES, node_hi)
        nodes = np.arange(chunk_lo, chunk_hi, dtype=np.int64)
        chunk_base = edge_base + (chunk_lo - node_lo) * per_node
        bases = edge_base + (nodes - node_lo) * per_node
        bounds = np.repeat(2 * bases, per_node).astype(np.float64)

        draws = generator.random(len(nodes) * per_node)
        idx = (draws * bounds).astype(np.int64)
        edge = idx >> 1
        while True:
            pending = ((idx & 1) == 1) & (edge >= chunk_base)
            if not pending.any():
                break
            idx[pending] = idx[edge[pending] - chunk_base]
            edge = idx >> 1
        vals = _pool_lookup(idx, heads, tails)
        tails[chunk_base : chunk_base + len(vals)] = vals

        if per_node > 1:
            rows = vals.reshape(-1, per_node)
            bad = _duplicate_rows(rows)
            while len(bad):
                redraw = generator.random(len(bad) * per_node)
                rebounds = np.repeat(
                    2 * bases[bad], per_node
                ).astype(np.float64)
                ridx = (redraw * rebounds).astype(np.int64)
                # Every earlier edge is materialized now, and a node's
                # pool predates its own row, so no chase is needed.
                rvals = _pool_lookup(ridx, heads, tails).reshape(
                    -1, per_node
                )
                starts = chunk_base + bad * per_node
                for k, start in enumerate(starts.tolist()):
                    tails[start : start + per_node] = rvals[k]
                still = _duplicate_rows(rvals)
                bad = bad[still]


def _duplicate_rows(rows: np.ndarray) -> np.ndarray:
    """Indices of rows containing a repeated value."""
    srt = np.sort(rows, axis=1)
    return np.flatnonzero((srt[:, 1:] == srt[:, :-1]).any(axis=1))


def _csr_from_arcs(
    num_nodes: int, heads: np.ndarray, tails: np.ndarray
) -> Graph:
    """Emit a canonical CSR graph straight from (head, tail) edge arrays.

    Both streams guarantee no self-loops (the pool only holds older
    nodes) and no parallel edges (an edge's head is always its newer
    endpoint and per-node targets are distinct), so one int64 key sort
    yields sorted, duplicate-free adjacency rows without a builder pass.
    """
    h = heads.astype(np.int64)
    t = tails.astype(np.int64)
    key = np.concatenate([h * num_nodes + t, t * num_nodes + h])
    key.sort()
    indices = (key % num_nodes).astype(np.int32)
    counts = np.bincount(key // num_nodes, minlength=num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return Graph(num_nodes, indptr, indices, check=False)


def preferential_attachment_graph(
    num_nodes: int,
    edges_per_node: int = 2,
    fringe_fraction: float = 0.0,
    rng: RandomState = None,
    *,
    stream: str = "loop",
) -> Graph:
    """Grow a graph by preferential attachment.

    Parameters
    ----------
    num_nodes:
        Final node count.
    edges_per_node:
        Edges each arriving core node creates (the BA ``m``).
    fringe_fraction:
        Fraction of nodes (the last arrivals) that attach with exactly one
        edge instead of ``edges_per_node`` — the degree-1 fringe of
        router-level maps.  0 disables the fringe.
    rng:
        Randomness source.
    stream:
        Seed-stream contract: ``"loop"`` bit-identically replays the
        historical per-node draw stream, ``"vectorized"`` is the fast
        documented chunk stream (see module docstring).

    Notes
    -----
    Target selection uses the standard repeated-endpoints trick: every
    edge endpoint ever created is appended to a (conceptual) pool, and
    new targets are drawn uniformly from that pool, which realizes
    degree-proportional attachment in O(1) per draw.  The pool is never
    materialized — draws index positionally into the (heads, tails)
    edge arrays — so the working set is bounded by O(edges) int32.
    """
    if stream not in ("loop", "vectorized"):
        raise TopologyError(
            f'stream must be "loop" or "vectorized", got {stream!r}'
        )
    num_core, seed_size, seed_edges, total = _plan(
        num_nodes, edges_per_node, fringe_fraction
    )
    generator = ensure_rng(rng)
    heads, tails = _arc_arrays(num_nodes, num_core, seed_size, seed_edges, total)
    fill = _fill_loop_stream if stream == "loop" else _fill_vectorized_stream
    core_edges = seed_edges + edges_per_node * (num_core - seed_size)
    fill(generator, heads, tails, seed_size, num_core, edges_per_node, seed_edges)
    fill(generator, heads, tails, num_core, num_nodes, 1, core_edges)
    return _csr_from_arcs(num_nodes, heads, tails)


def internet_like_graph(
    num_nodes: int = 10_000,
    rng: RandomState = None,
    *,
    stream: str = "loop",
) -> Graph:
    """Router-level-map stand-in (the paper's "Internet" topology).

    Preferential attachment with a large degree-1 fringe: roughly 35% of
    nodes are single-homed access routers, pulling the average degree down
    toward the ~2.8 of the SCAN map while keeping a well-connected core.
    The paper's map has 56k nodes; the default here is 10k for tractable
    experiment times — pass ``num_nodes=56_000`` to match the paper scale,
    or go to ``num_nodes=1_000_000`` (with ``stream="vectorized"`` for
    speed) to probe the Eq. 22-30 regime boundaries beyond it.
    """
    return preferential_attachment_graph(
        num_nodes, edges_per_node=2, fringe_fraction=0.35, rng=rng,
        stream=stream,
    )


def as_like_graph(
    num_nodes: int = 4_500,
    rng: RandomState = None,
    *,
    stream: str = "loop",
) -> Graph:
    """AS-connectivity-map stand-in (the paper's "AS" topology).

    Pure preferential attachment with ``m = 2``: power-law degrees,
    average degree just under 4, matching the March-1999 NLANR AS map era
    (~4.5k ASes).
    """
    return preferential_attachment_graph(
        num_nodes, edges_per_node=2, fringe_fraction=0.0, rng=rng,
        stream=stream,
    )
