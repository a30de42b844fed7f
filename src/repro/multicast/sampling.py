"""Receiver-set sampling.

Two sampling modes mirror the paper's two tree-size functions:

* ``L(m)`` — ``m`` **distinct** sites chosen uniformly
  (:func:`sample_distinct_receivers`), the Chuang-Sirbu methodology of
  Section 2.
* ``L̂(n)`` — ``n`` sites chosen uniformly **with replacement**
  (:func:`sample_receivers_with_replacement`), the analytically tractable
  variant of Section 3; Equation 1 converts between the two.

Both modes exclude the source when one is given (a receiver co-located
with the source adds nothing to the tree; Section 3.4 explicitly
excludes the root).  Pass ``source=None`` to allow receivers anywhere.

Each mode also has a **sweep** form that draws one ``(num_sets, size)``
matrix of receiver sets per group size, from one RNG call per size
(:func:`sample_distinct_receivers_sweep`,
:func:`sample_receivers_with_replacement_sweep`).  The sweep and scalar
forms consume the *same* random stream: the ``num_sets`` rows of each
size are exactly the sets that sequential scalar calls on the same
generator would produce, size after size.  The Monte-Carlo engine
relies on this to keep its vectorized and reference paths bit-identical.

Both modes draw pool *positions* ``0..N-1``, where ``N`` is the number
of eligible sites, and map position ``p`` to site ``p + (p >= source)``,
so no O(num_nodes) pool is built for the mapping.  A distinct set is a
partial Fisher-Yates shuffle of the positions: step ``i`` swaps slot
``i`` with slot ``j_i >= i``.  Two computations give its output:

* the **shuffle** runs the swaps on per-set copies of the pool,
  vectorized across sets: O(num_sets * N) memory, and a Python step
  per receiver of a set;
* the **swap chains** never build the pool.  Slot ``i`` receives
  position ``j_i`` if no earlier step targeted ``j_i``, and otherwise
  ``R(t)`` for the last earlier step ``t`` that did, where ``R(k)`` is
  ``k`` unless an earlier step targeted ``k``, and then ``R(t')`` for
  the last such step ``t'``.  One sort of the targets finds every
  "last earlier step"; pointer doubling follows the chains to their
  roots.  It costs O(num_sets * m log m) per size, whatever ``N``.

The chains run when a sweep draws at most :data:`_CHAIN_MAX_DENSITY`
receivers per pool site, which includes every single-set draw; the
shuffle runs otherwise.  Both return the same
matrices for the same generator.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro import obs
from repro.exceptions import SamplingError
from repro.utils.rng import RandomState, ensure_rng

__all__ = [
    "sample_distinct_receivers",
    "sample_distinct_receivers_sweep",
    "sample_receivers_with_replacement",
    "sample_receivers_with_replacement_sweep",
    "eligible_sites",
]

# One inc per sweep call (not per set), so the counter costs nothing
# against the O(num_sets x size) draw it describes.  The distinct scalar
# draw routes through the sweep and is counted there.
_OBS_SETS = obs.counter(
    "repro_sampling_receiver_sets_total",
    "Receiver sets drawn, by sampling convention.",
    labelnames=("mode",),
)
# One inc per distinct sweep call, labelled with the computation that
# drew it, so a trace or /metrics shows which one a sweep took.
_OBS_DRAWS = obs.counter(
    "repro_sampling_draws_total",
    "Distinct-receiver sweep calls, by drawing strategy.",
    labelnames=("strategy",),
)

#: The swap chains draw a distinct sweep when ``num_sets * M <=
#: _CHAIN_MAX_DENSITY * (N + M)``, for ``M`` receivers per set over all
#: sizes and ``N`` eligible sites; the shuffle draws it otherwise.  The
#: shuffle pays O(num_sets * N) for the pool copies and a Python step
#: per receiver of a set; the chains pay a sort per size, dearer per
#: drawn receiver.  Timed over 203 sweep shapes (N from 1k to 1M, 2-100
#: sets, one or six sizes; 2-vCPU VM), the chains were faster on 144 of
#: the 178 shapes at up to 6 receivers per site (each loss a sweep of
#: at most 4,900 receivers, by at most 0.13 ms), and the shuffle on 22
#: of the 25 above.  At 1M sites and 8 x 1,334 receivers the chains
#: take 1.1 ms against 9.5 ms; at 10k sites and 100 x 11,882 (54 per
#: site), 208 ms against 108 ms.  Every single-set draw falls on the
#: chains' side.
_CHAIN_MAX_DENSITY = 6


def eligible_sites(
    num_nodes: int, exclude: Sequence[int] = ()
) -> np.ndarray:
    """The receiver population: all nodes minus ``exclude``."""
    if num_nodes < 0:
        raise SamplingError(f"num_nodes must be non-negative, got {num_nodes}")
    if not len(exclude):
        return np.arange(num_nodes, dtype=np.int64)
    excluded = np.unique(np.asarray(list(exclude), dtype=np.int64))
    if excluded.size and (excluded.min() < 0 or excluded.max() >= num_nodes):
        raise SamplingError(
            f"excluded nodes {excluded.tolist()} out of range for "
            f"{num_nodes} nodes"
        )
    return np.setdiff1d(
        np.arange(num_nodes, dtype=np.int64), excluded, assume_unique=True
    )


def _pool_size(num_nodes: int, source: Optional[int]) -> int:
    """How many sites :func:`eligible_sites` would return for ``source``.

    Raises exactly its errors, but builds no O(num_nodes) array.
    """
    if num_nodes < 0:
        raise SamplingError(f"num_nodes must be non-negative, got {num_nodes}")
    if source is None:
        return num_nodes
    if not 0 <= source < num_nodes:
        raise SamplingError(
            f"excluded nodes [{int(source)}] out of range for "
            f"{num_nodes} nodes"
        )
    return num_nodes - 1


def _to_sites(positions: np.ndarray, source: Optional[int]) -> np.ndarray:
    """Turn pool positions into site ids in place, and return them.

    The pool lists every site but ``source`` in id order, so position
    ``p`` holds site ``p + (p >= source)``: exactly
    ``eligible_sites(num_nodes, (source,))[p]``, without that array.
    """
    if source is not None:
        positions += positions >= source
    return positions


def sample_distinct_receivers(
    num_nodes: int,
    m: int,
    source: Optional[int] = None,
    rng: RandomState = None,
) -> np.ndarray:
    """Draw ``m`` distinct receiver sites uniformly (the ``L(m)`` mode).

    Parameters
    ----------
    num_nodes:
        Number of sites in the network.
    m:
        Number of distinct receivers wanted.
    source:
        When given, this site is excluded from the draw.
    rng:
        Randomness source.

    Raises
    ------
    SamplingError
        If fewer than ``m`` eligible sites exist.
    """
    return sample_distinct_receivers_sweep(
        num_nodes, [m], 1, source=source, rng=rng
    )[0][0]


def _swap_targets(u: np.ndarray, size: int) -> np.ndarray:
    """Partial Fisher-Yates swap targets from uniforms ``u`` (``(..., m)``).

    Step ``i`` swaps slot ``i`` with ``i + floor(u_i * (size - i))``,
    uniform on the untouched suffix; the minimum guards the ``u -> 1.0``
    rounding edge.
    """
    steps = np.arange(u.shape[-1], dtype=np.int64)
    remaining = size - steps
    swap = np.minimum((u * remaining).astype(np.int64), remaining - 1)
    swap += steps
    return swap


def sample_distinct_receivers_sweep(
    num_nodes: int,
    sizes: Sequence[int],
    num_sets: int,
    source: Optional[int] = None,
    rng: RandomState = None,
) -> List[np.ndarray]:
    """Distinct-receiver matrices for a whole sweep of group sizes.

    Returns one ``(num_sets, m)`` int32 matrix per size, in order, whose
    rows are uniform ``m``-subsets of the eligible sites in random
    order.  Each size takes one ``rng.random((num_sets, m))`` draw and
    runs a partial Fisher-Yates shuffle on it, so row ``r`` of each
    matrix equals the matching sequential :func:`sample_distinct_receivers`
    call on the same generator.

    :data:`_CHAIN_MAX_DENSITY` picks how the shuffle's output is
    computed (see the module docstring): by the swap chains
    (:func:`_chain_positions`), which build no pool, or by running the
    swaps on per-set pool copies (:func:`_shuffle_positions`).  Both
    return the same matrices.
    """
    if num_sets < 1:
        raise SamplingError(f"num_sets must be >= 1, got {num_sets}")
    size_list = [int(m) for m in sizes]
    if not size_list:
        return []
    for m in size_list:
        if m < 1:
            raise SamplingError(f"m must be >= 1, got {m}")
    size = _pool_size(num_nodes, source)
    if max(size_list) > size:
        raise SamplingError(
            f"cannot draw {max(size_list)} distinct receivers from "
            f"{size} eligible sites"
        )
    generator = ensure_rng(rng)
    _OBS_SETS.inc(num_sets * len(size_list), mode="distinct")
    draws = sum(size_list)
    if num_sets * draws > _CHAIN_MAX_DENSITY * (size + draws):
        _OBS_DRAWS.inc(strategy="shuffle")
        drawn = _shuffle_positions(generator, size_list, num_sets, size)
    else:
        _OBS_DRAWS.inc(strategy="chains")
        drawn = [
            _chain_positions(
                _swap_targets(generator.random((num_sets, m)), size), size
            )
            for m in size_list
        ]
    return [_to_sites(positions, source) for positions in drawn]


def _shuffle_positions(
    generator: np.random.Generator,
    size_list: Sequence[int],
    num_sets: int,
    size: int,
) -> List[np.ndarray]:
    """Pool positions drawn by running the swaps on per-set pool copies.

    The ``num_sets`` copies of the pool are materialized once for the
    whole sweep; after each size, only the positions it touched are
    restored.
    """
    perm = np.tile(np.arange(size, dtype=np.int32), (num_sets, 1))
    flat = perm.reshape(-1)
    base = np.arange(num_sets, dtype=np.int64) * size
    out = []
    for m in size_list:
        swap = _swap_targets(generator.random((num_sets, m)), size)
        # The shuffle is sequential in i but vectorized across sets;
        # precomputed flat swap indices keep each step to two gathers
        # and two scatters.
        flat_swap = np.ascontiguousarray(swap.T + base)
        flat_prefix = np.ascontiguousarray(
            np.arange(m, dtype=np.int64)[:, np.newaxis] + base
        )
        for i in range(m):
            j = flat_swap[i]
            bi = flat_prefix[i]
            picked = flat[j]
            flat[j] = flat[bi]
            flat[bi] = picked
        # A real copy, never a view: the restore below would otherwise
        # rewrite the appended matrix in place.
        out.append(perm[:, :m].copy())
        # Undo this size's damage: a touched position is one of the
        # first m slots of its row or a swap target, and every untouched
        # pool position holds its own index.
        perm[:, :m] = np.arange(m, dtype=np.int32)
        flat[flat_swap] = swap.T
    return out


def _chain_positions(swap: np.ndarray, size: int) -> np.ndarray:
    """Pool positions drawn by the swap targets ``swap``, without a pool.

    ``swap`` is ``(num_sets, m)``; returns the same-shaped int32 matrix
    the shuffle would leave in each row's first ``m`` slots, by the
    chain identity of the module docstring, in O(num_sets * m log m).
    """
    num_sets, m = swap.shape
    targets = swap.ravel()
    keys = swap + np.arange(num_sets, dtype=np.int64)[:, np.newaxis] * size
    # Sorting (key, step) pairs packed into one distinct int64 orders
    # ties by step, as a stable sort of the keys would, at a third of
    # its cost.  The packed value stays below num_sets * m * size: under
    # 2**63 while sites fit the int32 output and it holds fewer than
    # 2**32 receivers.
    order = np.argsort((keys * m + np.arange(m)).ravel())
    ranked = keys.ravel()[order]
    tied = ranked[1:] == ranked[:-1]
    # prev[s]: the last earlier step of s's row with s's target, or -1.
    prev = np.full(order.size, -1, dtype=np.int64)
    prev[order[1:][tied]] = order[:-1][tied]
    # root[k] starts as the last step that targeted position k (the end
    # of its run in sort order), or k itself.  A chain only ever passes
    # through steps that targeted a position other than their own, and
    # every targeter of such a step's position ran before it; so along
    # a chain this is the link to the last earlier targeter, and the
    # doubling below leaves each step's root.
    run_end = np.append(~tied, True)
    last = order[run_end & (targets[order] < m)]
    root = np.arange(order.size, dtype=np.int64)
    root[last - last % m + targets[last]] = last
    while True:
        hop = root[root]
        if np.array_equal(hop, root):
            break
        root = hop
    positions = swap.astype(np.int32).ravel()
    moved = prev >= 0
    positions[moved] = root[prev[moved]] % m
    return positions.reshape(num_sets, m)


def _replacement_pool_size(
    num_nodes: int, n: int, source: Optional[int]
) -> int:
    if n < 1:
        raise SamplingError(f"n must be >= 1, got {n}")
    size = _pool_size(num_nodes, source)
    if size == 0:
        raise SamplingError("no eligible receiver sites")
    return size


def sample_receivers_with_replacement(
    num_nodes: int,
    n: int,
    source: Optional[int] = None,
    rng: RandomState = None,
) -> np.ndarray:
    """Draw ``n`` receiver sites uniformly with replacement (``L̂(n)``)."""
    size = _replacement_pool_size(num_nodes, n, source)
    generator = ensure_rng(rng)
    _OBS_SETS.inc(mode="replacement")
    return _to_sites(generator.integers(0, size, size=n), source)


def sample_receivers_with_replacement_sweep(
    num_nodes: int,
    sizes: Sequence[int],
    num_sets: int,
    source: Optional[int] = None,
    rng: RandomState = None,
) -> List[np.ndarray]:
    """With-replacement matrices for a whole sweep of group sizes.

    Returns one ``(num_sets, n)`` int32 matrix per size, in order, each
    from one bounded-integer draw of pool positions; numpy fills it
    row-major from the bit stream, so row ``r`` of each matrix equals
    the matching sequential :func:`sample_receivers_with_replacement`
    call on the same generator.  Positions map to sites arithmetically
    (:func:`_to_sites`), so no pool is built.
    """
    if num_sets < 1:
        raise SamplingError(f"num_sets must be >= 1, got {num_sets}")
    size_list = [int(n) for n in sizes]
    if not size_list:
        return []
    size = _replacement_pool_size(num_nodes, max(size_list), source)
    for n in size_list:
        if n < 1:
            raise SamplingError(f"n must be >= 1, got {n}")
    generator = ensure_rng(rng)
    _OBS_SETS.inc(num_sets * len(size_list), mode="replacement")
    return [
        _to_sites(
            generator.integers(0, size, size=(num_sets, n)), source
        ).astype(np.int32)
        for n in size_list
    ]
