"""Tier-1 gate: the shipped tree is lint-finding-free under every rule.

``repro.lint`` encodes the repo's determinism, cache-aliasing, dtype,
blocking, shared-memory-lifetime, obs-series, and fault-seam invariants;
this test keeps the tree honest — src, benchmarks, and examples are all
linted together so the cross-file rules (RR011-RR014) see the whole
program.  Fix the code (or add a justified ``# repro-lint:
disable=RRnnn`` pragma) rather than weakening this assertion.
"""

from pathlib import Path

from repro.lint import lint_paths, render_text

ROOT = Path(__file__).resolve().parents[1]
LINTED_TREES = [ROOT / "src", ROOT / "benchmarks", ROOT / "examples"]


def test_shipped_tree_is_finding_free():
    findings = lint_paths([tree for tree in LINTED_TREES if tree.is_dir()])
    assert not findings, "\n" + render_text(findings)
