"""Precomputed ``L(m)`` estimator tables with log-log interpolation.

The serving hot path must never wait on the Monte-Carlo engine.  An
:class:`EstimatorTable` is the layer that makes that possible: for one
``(topology, mode)`` pair it holds the expected tree size ``L`` and mean
unicast path ``ū`` on a **log-spaced grid** of group sizes, built once
(at service startup, or lazily on the first miss), after which every
covered query is answered by interpolation in microseconds.

Interpolation and its error bound
---------------------------------
Between grid knots the table interpolates **linearly in (ln m, ln L)**
— equivalent to fitting a local power law ``L ∝ m^α`` through the two
bracketing knots, which is the natural model here: the whole paper is
about how close ``L(m)`` is to ``m^0.8``.  For a function whose log-log
curvature is bounded by ``C = max |d²(ln L)/d(ln m)²|``, linear
interpolation over a knot spacing of ``h`` in ``ln m`` has log-error at
most ``C·h²/8``, i.e. relative error ``≤ exp(C·h²/8) − 1 ≈ C·h²/8``.

For the paper's k-ary trees the measured curvature of Eq. 4 stays below
``C ≈ 0.6`` over the whole admissible range (the curve bends once, from
slope 1 toward saturation), so at the default
:data:`DEFAULT_POINTS_PER_DECADE` = 16 — ``h = ln 10 / 16 ≈ 0.144`` —
the bound is about ``0.6 · 0.144² / 8 ≈ 1.6e-3``.  The documented
contract is the looser :data:`INTERP_REL_ERROR_BOUND` = 5e-3, and
``tests/test_serve_tables.py`` verifies it against exact Eq. 4 values
on a dense off-knot grid.  Monte-Carlo-built tables add the engine's
sampling noise on top; the interpolation contribution is the same.

Grids are integer group sizes (duplicates from rounding are dropped),
always including both endpoints, so the table covers ``m`` in
``[grid[0], grid[-1]]`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.exceptions import ExperimentError

__all__ = [
    "EstimatorTable",
    "log_spaced_sizes",
    "DEFAULT_POINTS_PER_DECADE",
    "INTERP_REL_ERROR_BOUND",
]

#: Default grid density; see the module docstring for the error budget.
DEFAULT_POINTS_PER_DECADE = 16

#: Documented relative interpolation error bound at the default density
#: (checked against exact Eq. 4 values by the serving test suite).
INTERP_REL_ERROR_BOUND = 5e-3


def log_spaced_sizes(
    lo: int, hi: int, points_per_decade: int = DEFAULT_POINTS_PER_DECADE
) -> np.ndarray:
    """Unique integer sizes, log-spaced from ``lo`` to ``hi`` inclusive.

    Small sizes are denser than requested (every integer below the
    requested spacing survives the rounding), which only tightens the
    interpolation bound there.
    """
    if lo < 1 or hi < lo:
        raise ExperimentError(
            f"need 1 <= lo <= hi, got lo={lo}, hi={hi}"
        )
    if points_per_decade < 1:
        raise ExperimentError(
            f"points_per_decade must be >= 1, got {points_per_decade}"
        )
    decades = np.log10(hi / lo) if hi > lo else 0.0
    count = max(2, int(np.ceil(decades * points_per_decade)) + 1)
    raw = np.logspace(np.log10(lo), np.log10(hi), count)
    sizes = np.unique(np.rint(raw).astype(np.int64))
    sizes[0] = lo
    sizes[-1] = hi
    return np.unique(sizes)


@dataclass(frozen=True)
class EstimatorTable:
    """An ``L(m)`` grid for one topology and receiver convention.

    Attributes
    ----------
    name:
        Topology name (registry key, or ``kary(k,D)`` for closed-form
        tables).
    mode:
        ``"distinct"`` or ``"replacement"`` — which receiver convention
        the grid's sizes count.
    sizes:
        Increasing integer group sizes (the interpolation knots).
    tree_size:
        ``E[L]`` at each knot.
    mean_path:
        Mean unicast path ``ū`` at each knot (used for the normalized
        ``L/ū`` the figures plot).
    source:
        ``"closed-form"`` (exact Eq. 4 values via the Eq. 1 conversion)
        or ``"simulation"`` (the batched Monte-Carlo engine).
    rel_error_bound:
        The interpolation error contract this table was built to.
    algorithm:
        The tree-construction discipline the grid measured (a
        :mod:`repro.multicast.builders` registry key; ``"spt"`` for
        every pre-existing table).
    """

    name: str
    mode: str
    sizes: np.ndarray
    tree_size: np.ndarray
    mean_path: np.ndarray
    source: str
    rel_error_bound: float = INTERP_REL_ERROR_BOUND
    algorithm: str = "spt"
    _log_sizes: np.ndarray = field(init=False, repr=False, compare=False)
    _log_tree: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sizes = np.asarray(self.sizes, dtype=np.int64)
        tree = np.asarray(self.tree_size, dtype=float)
        path = np.asarray(self.mean_path, dtype=float)
        if sizes.ndim != 1 or sizes.size < 2:
            raise ExperimentError("a table needs at least two grid knots")
        if np.any(np.diff(sizes) <= 0):
            raise ExperimentError("table sizes must be strictly increasing")
        if tree.shape != sizes.shape or path.shape != sizes.shape:
            raise ExperimentError(
                "tree_size and mean_path must match the size grid"
            )
        if np.any(tree <= 0):
            raise ExperimentError(
                "tree sizes must be positive (L(m) >= 1 for m >= 1)"
            )
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "tree_size", tree)
        object.__setattr__(self, "mean_path", path)
        object.__setattr__(self, "_log_sizes", np.log(sizes.astype(float)))
        object.__setattr__(self, "_log_tree", np.log(tree))

    # -- queries ---------------------------------------------------------

    @property
    def m_min(self) -> int:
        return int(self.sizes[0])

    @property
    def m_max(self) -> int:
        return int(self.sizes[-1])

    def covers(self, m: float) -> bool:
        """Whether ``m`` lies inside the grid (no extrapolation ever)."""
        return self.m_min <= m <= self.m_max

    def lookup(self, m: float) -> Tuple[float, float]:
        """``(tree_size, mean_path)`` at ``m`` by log-log interpolation.

        Knot queries return the stored values exactly; off-knot queries
        carry the documented ``rel_error_bound``.  Raises for ``m``
        outside the grid — the service falls back to the simulator (or
        the closed form) rather than extrapolate.
        """
        if not self.covers(m):
            raise ExperimentError(
                f"m={m} outside table range [{self.m_min}, {self.m_max}] "
                f"for {self.name}/{self.mode}"
            )
        log_m = float(np.log(m))
        tree = float(np.exp(np.interp(log_m, self._log_sizes, self._log_tree)))
        path = float(np.interp(log_m, self._log_sizes, self.mean_path))
        return tree, path

    def to_dict(self) -> dict:
        """JSON-serializable summary (what ``/healthz`` reports)."""
        return {
            "name": self.name,
            "mode": self.mode,
            "source": self.source,
            "rel_error_bound": self.rel_error_bound,
            "algorithm": self.algorithm,
            "m_min": self.m_min,
            "m_max": self.m_max,
            "knots": int(self.sizes.size),
        }

    # -- builders --------------------------------------------------------

    @staticmethod
    def from_closed_form(
        k: float,
        depth: int,
        points_per_decade: int = DEFAULT_POINTS_PER_DECADE,
        m_max: Optional[int] = None,
    ) -> "EstimatorTable":
        """Exact-Eq.-4 table for a k-ary leaf-receiver tree.

        Knot values are ``L(m) = L̂(n(m))`` (Eq. 4 through the Eq. 1
        conversion), so the only table error is interpolation.  The mean
        unicast path of a leaf receiver is exactly ``D``.  The grid tops
        out just below ``M`` (Eq. 1 has no finite ``n`` at ``m = M``).
        """
        from repro.analysis.kary_asymptotic import lm_exact_via_conversion
        from repro.analysis.kary_exact import num_leaf_sites

        big_m = num_leaf_sites(k, depth)
        ceiling = int(np.floor(big_m)) - 1
        if ceiling < 2:
            raise ExperimentError(
                f"kary({k}, {depth}) has too few leaves for a table"
            )
        hi = ceiling if m_max is None else min(int(m_max), ceiling)
        sizes = log_spaced_sizes(1, hi, points_per_decade)
        tree = lm_exact_via_conversion(k, depth, sizes.astype(float))
        path = np.full(sizes.shape, float(depth))
        return EstimatorTable(
            name=f"kary({k},{depth})",
            mode="distinct",
            sizes=sizes,
            tree_size=tree,
            mean_path=path,
            source="closed-form",
        )

    @staticmethod
    def from_sweep(
        graph,
        name: str,
        mode: str = "distinct",
        config=None,
        rng=None,
        points_per_decade: int = DEFAULT_POINTS_PER_DECADE,
        distance_store=None,
        algorithm: str = "spt",
    ) -> "EstimatorTable":
        """Monte-Carlo table over a whole topology's admissible range.

        One :func:`~repro.experiments.runner.measure_sweep` call covers
        every knot (the batched engine counts a source's entire sweep in
        one call), so building a table costs roughly the same as
        simulating a single dense sweep — the startup price that buys
        interpolation-speed queries forever after.  A table grid brings
        ~140 (distinct) to ~600 (replacement) receivers per node, far
        above the counter's ``_PREORDER_MIN_DENSITY`` of 2, so each
        source is counted from preorder ranks: ``L = Σ depth(rᵢ) +
        (m − 1) − Σ min depth over (rᵢ₋₁, rᵢ]`` on the sorted ranks, one
        range-min read per adjacent pair.  Such a dense call builds the
        tables for itself and drops them, so a fit leaves no tables on
        the cached forests it counted.

        Pass a :class:`~repro.graph.distance_store.DistanceStore` (or
        its descriptor) to serve source forests from precomputed mmap
        rows instead of per-source BFS — how million-node grids become
        buildable; a *complete* store leaves the table bit-identical to
        the storeless build.

        ``algorithm`` selects the tree builder the grid measures (a
        :mod:`repro.multicast.builders` registry key); ``"spt"`` keeps
        the batched counting path and every pre-existing table byte.
        """
        from repro.experiments.runner import measure_sweep

        hi = graph.num_nodes - 1 if mode == "distinct" else 4 * graph.num_nodes
        if hi < 2:
            raise ExperimentError(
                f"topology {name!r} is too small for an estimator table"
            )
        sizes = log_spaced_sizes(1, hi, points_per_decade)
        measurement = measure_sweep(
            graph,
            sizes.tolist(),
            mode=mode,
            config=config,
            topology=name,
            rng=rng,
            distance_store=distance_store,
            algorithm=algorithm,
        )
        return EstimatorTable(
            name=name,
            mode=mode,
            sizes=sizes,
            tree_size=np.asarray(measurement.mean_tree_size, dtype=float),
            mean_path=np.asarray(measurement.mean_unicast_path, dtype=float),
            source="simulation",
            algorithm=algorithm,
        )
