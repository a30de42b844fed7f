"""Receiver-set sampling.

Two sampling modes mirror the paper's two tree-size functions:

* ``L(m)`` — ``m`` **distinct** sites chosen uniformly
  (:func:`sample_distinct_receivers`), the Chuang-Sirbu methodology of
  Section 2.
* ``L̂(n)`` — ``n`` sites chosen uniformly **with replacement**
  (:func:`sample_receivers_with_replacement`), the analytically tractable
  variant of Section 3; Equation 1 converts between the two.

Both modes exclude the source by default (a receiver co-located with the
source adds nothing to the tree; Section 3.4 explicitly excludes the
root).  Pass ``exclude=()`` to allow receivers anywhere.

Each mode also has a **sweep** form that draws one ``(num_sets, size)``
matrix of receiver sets per group size, from one RNG call per size
(:func:`sample_distinct_receivers_sweep`,
:func:`sample_receivers_with_replacement_sweep`).  The sweep and scalar
forms consume the *same* random stream: the ``num_sets`` rows of each
size are exactly the sets that sequential scalar calls on the same
generator would produce, size after size.  The Monte-Carlo engine
relies on this to keep its vectorized and reference paths bit-identical.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

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


def _distinct_pool(num_nodes: int, m: int, source: Optional[int]) -> np.ndarray:
    if m < 1:
        raise SamplingError(f"m must be >= 1, got {m}")
    pool = eligible_sites(num_nodes, () if source is None else (source,))
    if m > pool.size:
        raise SamplingError(
            f"cannot draw {m} distinct receivers from {pool.size} eligible sites"
        )
    return pool


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

    With several sets, the shuffle is vectorized across them and the
    ``num_sets`` pool copies are materialized once for the whole sweep:
    after each size, only the O(m) positions it touched are restored
    from the pool.  A single set instead tracks only its displaced
    positions (:func:`_sparse_fisher_yates`), never copying the pool.
    This is the Monte-Carlo engine's per-source fast path.
    """
    if num_sets < 1:
        raise SamplingError(f"num_sets must be >= 1, got {num_sets}")
    size_list = [int(m) for m in sizes]
    if not size_list:
        return []
    for m in size_list:
        if m < 1:
            raise SamplingError(f"m must be >= 1, got {m}")
    pool = _distinct_pool(num_nodes, max(size_list), source)
    generator = ensure_rng(rng)
    _OBS_SETS.inc(num_sets * len(size_list), mode="distinct")
    size = pool.size
    if num_sets == 1:
        return [
            _sparse_fisher_yates(
                pool, _swap_targets(generator.random(m), size), m
            )[np.newaxis, :]
            for m in size_list
        ]
    pool32 = pool.astype(np.int32)
    perm = np.repeat(pool32[np.newaxis, :], num_sets, axis=0)
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
        # A real copy, never a view: np.ascontiguousarray would alias
        # perm when m == size, and the restore below would then wipe the
        # appended matrix in place.
        out.append(perm[:, :m].copy())
        # Undo this size's damage: every touched flat position is either
        # a swap target or one of the first m slots of its row.
        touched = np.concatenate([flat_swap.ravel(), flat_prefix.ravel()])
        flat[touched] = pool32[touched % size]
    return out


def _sparse_fisher_yates(
    pool: np.ndarray, swap: np.ndarray, m: int
) -> np.ndarray:
    """One partial Fisher-Yates row without materializing the pool copy.

    Applies exactly the swap sequence of the vectorized path, but
    tracks only the O(m) displaced positions in a dict — the profitable
    layout when a single row is drawn (the scalar samplers), where the
    per-step numpy dispatch and the O(pool) copy would dominate.
    """
    displaced = {}
    out = np.empty(m, dtype=np.int32)
    for i, j in enumerate(swap.tolist()):
        vj = displaced.get(j)
        if vj is None:
            vj = pool[j]
        vi = displaced.get(i)
        if vi is None:
            vi = pool[i]
        out[i] = vj
        displaced[j] = vi
    return out


def _replacement_pool(num_nodes: int, n: int, source: Optional[int]) -> np.ndarray:
    if n < 1:
        raise SamplingError(f"n must be >= 1, got {n}")
    pool = eligible_sites(num_nodes, () if source is None else (source,))
    if pool.size == 0:
        raise SamplingError("no eligible receiver sites")
    return pool


def sample_receivers_with_replacement(
    num_nodes: int,
    n: int,
    source: Optional[int] = None,
    rng: RandomState = None,
) -> np.ndarray:
    """Draw ``n`` receiver sites uniformly with replacement (``L̂(n)``)."""
    pool = _replacement_pool(num_nodes, n, source)
    generator = ensure_rng(rng)
    _OBS_SETS.inc(mode="replacement")
    return pool[generator.integers(0, pool.size, size=n)]


def sample_receivers_with_replacement_sweep(
    num_nodes: int,
    sizes: Sequence[int],
    num_sets: int,
    source: Optional[int] = None,
    rng: RandomState = None,
) -> List[np.ndarray]:
    """With-replacement matrices for a whole sweep of group sizes.

    Returns one ``(num_sets, n)`` int32 matrix per size, in order, each
    from one bounded-integer draw; numpy fills it row-major from the bit
    stream, so row ``r`` of each matrix equals the matching sequential
    :func:`sample_receivers_with_replacement` call on the same
    generator.  The eligible-site pool is built once for the sweep.
    """
    if num_sets < 1:
        raise SamplingError(f"num_sets must be >= 1, got {num_sets}")
    size_list = [int(n) for n in sizes]
    if not size_list:
        return []
    pool = _replacement_pool(num_nodes, max(size_list), source)
    for n in size_list:
        if n < 1:
            raise SamplingError(f"n must be >= 1, got {n}")
    generator = ensure_rng(rng)
    _OBS_SETS.inc(num_sets * len(size_list), mode="replacement")
    pool32 = pool.astype(np.int32)
    return [
        pool32[generator.integers(0, pool.size, size=(num_sets, n))]
        for n in size_list
    ]
