"""Lint smoke: incremental-cache effectiveness and warm-run budget.

Three gates, all fast enough for ``make test``:

1. **Clean tree** — ``src`` + ``benchmarks`` + ``examples`` must be
   finding-free under every rule (the same assertion as
   ``tests/test_lint_clean.py``, repeated here so the smoke is
   self-contained when run standalone).
2. **Warm budget** — a warm cached run must finish within
   :data:`WARM_BUDGET_SECONDS`.  The warm path does no parsing at all
   (hash sources, replay findings), so the budget has an order of
   magnitude of headroom; tripping it means the cache stopped hitting.
3. **Speedup** — warm must beat cold by at least
   :data:`MIN_SPEEDUP`x, the acceptance floor for the incremental
   engine.  Measured against a throwaway cache file so the developer's
   own ``.lint-cache.json`` is never touched.

Usage::

    python benchmarks/lint_smoke.py
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.lint import lint_paths, render_text  # noqa: E402

#: Wall-clock ceiling for a warm (fully cached) run over the tree.
WARM_BUDGET_SECONDS = 1.0

#: Required cold-vs-warm speedup for the incremental cache.
MIN_SPEEDUP = 5.0

ROOT = Path(__file__).resolve().parent.parent
TREES = [ROOT / "src", ROOT / "benchmarks", ROOT / "examples"]


def main() -> int:
    paths = [tree for tree in TREES if tree.is_dir()]
    with tempfile.TemporaryDirectory(prefix="lint-smoke-") as scratch:
        cache = str(Path(scratch) / "cache.json")

        start = time.perf_counter()
        cold_findings = lint_paths(paths, cache=cache)
        cold = time.perf_counter() - start

        start = time.perf_counter()
        warm_findings = lint_paths(paths, cache=cache)
        warm = time.perf_counter() - start

    speedup = cold / warm if warm > 0 else float("inf")
    print(
        f"lint smoke: cold {cold:.2f}s, warm {warm * 1000:.0f}ms "
        f"(budget {WARM_BUDGET_SECONDS * 1000:.0f}ms), "
        f"speedup {speedup:.1f}x (floor {MIN_SPEEDUP:.0f}x)"
    )

    if cold_findings or warm_findings:
        print(render_text(cold_findings or warm_findings))
        print("lint smoke FAIL: the tree is not lint-clean")
        return 1
    if cold_findings != warm_findings:
        print("lint smoke FAIL: warm run disagrees with cold run")
        return 1
    if warm >= WARM_BUDGET_SECONDS:
        print("lint smoke FAIL: warm cached lint exceeded its budget")
        return 1
    if speedup < MIN_SPEEDUP:
        print("lint smoke FAIL: incremental cache speedup below floor")
        return 1
    print("lint smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
