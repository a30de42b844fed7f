"""Golden-result computation + regeneration for ``tests/golden/*.json``.

The golden suite (``tests/test_golden_results.py``) pins the paper's
reproduced numbers — Table 1 slopes, Eq. 4 ``L̂(n)``, Eq. 21 all-nodes
placement, the Section 4 ``S(r)`` regimes, and a seeded Monte-Carlo
tree-size table — against drift.  The ``compute_*`` functions below
are the *single* source of those values: the tests call them to
recompute, and :func:`main` calls them to (re)write the JSON files.

Regeneration is deliberately guarded: ``make regen-golden`` refuses to
run on a dirty working tree, so a golden refresh is always its own
reviewable commit — you can never silently fold "the numbers moved"
into an unrelated change.  ``--force`` overrides for local spelunking.

Every quantity is produced by seeded, bit-deterministic code (spawned
per-source RNG streams; the batched engine is stream-identical to the
scalar reference), so tolerances are tight: closed forms at 1e-9,
Monte-Carlo results at 1e-7 relative (identical bits on one platform;
the margin absorbs BLAS/libm variation across platforms).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Seed for every stochastic golden quantity; never reuse run seeds.
GOLDEN_SEED = 20260805


def compute_kary_lhat() -> Dict:
    """Eq. 4 (leaf placement) and Eq. 21 (all-nodes placement) grids."""
    from repro.analysis.kary_exact import lhat_leaf, lhat_throughout

    n_grid = [1, 2, 4, 8, 16, 64, 256, 1024, 4096]
    cases = []
    for k, depth in ((2, 10), (3, 7), (5, 5)):
        n = np.asarray(n_grid, dtype=float)
        cases.append(
            {
                "k": k,
                "depth": depth,
                "n": n_grid,
                "lhat_leaf": [float(v) for v in lhat_leaf(k, depth, n)],
                "lhat_throughout": [
                    float(v) for v in lhat_throughout(k, depth, n)
                ],
            }
        )
    return {"tolerance": {"rtol": 1e-9, "atol": 0.0}, "cases": cases}


def compute_table1_slopes() -> Dict:
    """Fitted L(m) exponents per topology (the ≈0.8 Chuang-Sirbu law).

    Small, fixed Monte-Carlo settings: the golden pins reproducibility
    of the pipeline, not the paper-scale estimate (the tier-1 law-range
    tests cover that); sources x sets is chosen to keep the suite fast.
    """
    from repro.experiments.config import MonteCarloConfig
    from repro.experiments.runner import measure_sweep
    from repro.topology.registry import build_topology

    config = MonteCarloConfig(
        num_sources=6, num_receiver_sets=8, seed=GOLDEN_SEED
    )
    sizes = [2, 4, 8, 16, 32]
    entries = []
    for name in ("arpa", "mbone", "r100"):
        graph = build_topology(name, scale=1.0, rng=GOLDEN_SEED)
        measurement = measure_sweep(
            graph, sizes, mode="distinct", config=config, topology=name
        )
        fit = measurement.fit_exponent()
        entries.append(
            {
                "topology": name,
                "num_nodes": graph.num_nodes,
                "sizes": sizes,
                "slope": float(fit.slope),
                "r_squared": float(fit.r_squared),
                "mean_tree_size": [float(v) for v in measurement.mean_tree_size],
            }
        )
    return {
        "seed": GOLDEN_SEED,
        "config": {"num_sources": 6, "num_receiver_sets": 8},
        "tolerance": {"rtol": 1e-7, "atol": 0.0},
        "topologies": entries,
    }


def compute_reachability_regimes() -> Dict:
    """One ``S(r)``/``T(r)`` profile per Section 4 growth regime."""
    from repro.graph.reachability import average_profile, classify_growth
    from repro.topology.registry import build_topology

    entries = []
    for name, regime in (
        ("r100", "exponential"),
        ("arpa", "sub-exponential"),
        ("mbone", "sub-exponential"),
    ):
        graph = build_topology(name, scale=1.0, rng=GOLDEN_SEED)
        profile = average_profile(graph, num_sources=12, rng=GOLDEN_SEED)
        entries.append(
            {
                "topology": name,
                "regime": regime,
                "classified": classify_growth(profile),
                "mean_ring_sizes": [
                    float(v) for v in profile.mean_ring_sizes
                ],
            }
        )
    return {
        "seed": GOLDEN_SEED,
        "num_sources": 12,
        "tolerance": {"rtol": 1e-9, "atol": 0.0},
        "profiles": entries,
    }


def compute_mc_tree_sizes() -> Dict:
    """Seeded mean tree sizes on a k-ary tree, via ``tree_sizes_batch``.

    This golden deliberately runs through
    :meth:`~repro.multicast.tree.MulticastTreeCounter.tree_sizes_batch`
    — the vectorized walk every engine result depends on — so a
    perturbation there (the failure-detection demo in the test suite)
    is caught by the comparison.
    """
    from repro.graph.paths import bfs
    from repro.multicast.sampling import (
        sample_receivers_with_replacement_sweep,
    )
    from repro.multicast.tree import MulticastTreeCounter
    from repro.topology.kary import kary_tree

    tree = kary_tree(3, 5)
    counter = MulticastTreeCounter(bfs(tree.graph, 0))
    rng = np.random.default_rng(GOLDEN_SEED)
    n_values = [1, 4, 16, 64, 256]
    means = []
    for n in n_values:
        matrix = sample_receivers_with_replacement_sweep(
            tree.num_nodes, [n], 32, source=0, rng=rng
        )[0]
        means.append(float(counter.tree_sizes_batch(matrix).mean()))
    return {
        "seed": GOLDEN_SEED,
        "k": 3,
        "depth": 5,
        "num_sets": 32,
        "n": n_values,
        "tolerance": {"rtol": 1e-7, "atol": 0.0},
        "mean_tree_size": means,
    }


def compute_scale_regimes() -> Dict:
    """Section 4 regimes beyond the 56k map: ``S(r)`` classification and
    the Eq. 18 log-correction fit at n ∈ {56k, 250k}.

    Built on the vectorized generator stream (the loop replay would
    dominate regeneration time) — the stream is part of the golden
    identity, so these values pin the vectorized seed-stream contract
    at scale as well as the physics: exponential ``T(r)`` growth, and a
    linear ``L̂(n)/(n·ū)`` versus ``ln n`` series (Figure 6 / Eq. 18)
    whose slope and intercept must not drift.
    """
    from repro.analysis.general import normalized_series
    from repro.graph.reachability import average_profile, classify_growth
    from repro.topology.powerlaw import internet_like_graph
    from repro.utils.stats import linear_fit

    entries = []
    for num_nodes in (56_000, 250_000):
        graph = internet_like_graph(
            num_nodes, rng=GOLDEN_SEED, stream="vectorized"
        )
        profile = average_profile(graph, num_sources=6, rng=GOLDEN_SEED)
        n_values = np.logspace(1, np.log10(num_nodes), 12)
        series = normalized_series(
            profile.mean_ring_sizes, n_values, receivers="throughout"
        )
        fit = linear_fit(np.log(n_values), series)
        entries.append(
            {
                "num_nodes": num_nodes,
                "regime": classify_growth(profile),
                "mean_ring_sizes": [
                    float(v) for v in profile.mean_ring_sizes
                ],
                "log_fit": {
                    "slope": float(fit.slope),
                    "intercept": float(fit.intercept),
                    "r_squared": float(fit.r_squared),
                },
            }
        )
    return {
        "seed": GOLDEN_SEED,
        "stream": "vectorized",
        "num_sources": 6,
        "tolerance": {"rtol": 1e-9, "atol": 0.0},
        "profiles": entries,
    }


def compute_algorithm_regimes() -> Dict:
    """``L_alg(m)/L_SPT(m)`` ratios and fitted exponents per tree builder.

    Runs every non-SPT builder from the
    :mod:`repro.multicast.builders` registry against the 56k-node tier
    on the vectorized generator stream and pins the ratio curves plus
    the fitted ``L(m) ∝ m^k`` exponents.  The config seed is an *int*,
    so every sweep re-derives the identical receiver draws — the ratios
    compare the same trees under different construction rules, nothing
    else.  Sample counts are deliberately tiny (the tier-1 sweep tests
    own the statistics); this golden pins bit-reproducibility of the
    builders at scale.
    """
    from repro.experiments.config import MonteCarloConfig
    from repro.experiments.runner import measure_sweep
    from repro.multicast.builders import BUILDER_NAMES
    from repro.topology.powerlaw import internet_like_graph

    graph = internet_like_graph(56_000, rng=GOLDEN_SEED, stream="vectorized")
    config = MonteCarloConfig(
        num_sources=2, num_receiver_sets=1, seed=GOLDEN_SEED
    )
    sizes = [4, 16, 64]
    spt = measure_sweep(graph, sizes, config=config)
    entries = []
    for algorithm in BUILDER_NAMES:
        if algorithm == "spt":
            continue
        measurement = measure_sweep(
            graph, sizes, config=config, algorithm=algorithm
        )
        fit = measurement.fit_exponent()
        entries.append(
            {
                "algorithm": algorithm,
                "mean_tree_size": [
                    float(v) for v in measurement.mean_tree_size
                ],
                "ratio_to_spt": [
                    float(alg / base)
                    for alg, base in zip(
                        measurement.mean_tree_size, spt.mean_tree_size
                    )
                ],
                "exponent": float(fit.slope),
                "r_squared": float(fit.r_squared),
            }
        )
    spt_fit = spt.fit_exponent()
    return {
        "seed": GOLDEN_SEED,
        "num_nodes": 56_000,
        "stream": "vectorized",
        "config": {"num_sources": 2, "num_receiver_sets": 1},
        "sizes": sizes,
        "tolerance": {"rtol": 1e-7, "atol": 0.0},
        "spt": {
            "mean_tree_size": [float(v) for v in spt.mean_tree_size],
            "exponent": float(spt_fit.slope),
        },
        "algorithms": entries,
    }


#: filename -> compute function; the test suite iterates this too.
GOLDEN_FILES = {
    "kary_lhat.json": compute_kary_lhat,
    "table1_slopes.json": compute_table1_slopes,
    "reachability_regimes.json": compute_reachability_regimes,
    "mc_tree_sizes.json": compute_mc_tree_sizes,
    "scale_regimes.json": compute_scale_regimes,
    "algorithm_regimes.json": compute_algorithm_regimes,
}


def load_golden(filename: str) -> Dict:
    with open(GOLDEN_DIR / filename, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _tree_is_dirty() -> bool:
    result = subprocess.run(
        ["git", "status", "--porcelain"],
        cwd=str(GOLDEN_DIR.parent.parent),
        capture_output=True,
        text=True,
        check=True,
    )
    return bool(result.stdout.strip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--force",
        action="store_true",
        help="regenerate even on a dirty working tree (local use only)",
    )
    args = parser.parse_args(argv)
    if not args.force and _tree_is_dirty():
        print(
            "regen-golden: refusing to run on a dirty tree — golden "
            "refreshes must be their own reviewable commit.  Commit or "
            "stash first (or pass --force locally).",
            file=sys.stderr,
        )
        return 1
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for filename, compute in GOLDEN_FILES.items():
        payload = compute()
        path = GOLDEN_DIR / filename
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())
