"""Tests for the cross-file analysis layer (repro.lint.project).

The seeded-bug classes below are the whole point of the project layer:
each tmp tree injects a defect that spans a module boundary, asserts
the per-file engine (``project=False`` — the pre-RR011 rule set's view)
misses it, and asserts the project rules catch it.  A separate class
covers the incremental cache's skip/invalidate behavior.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint import lint_paths
from repro.lint.cache import LintCache
from repro.lint.engine import ruleset_signature
from repro.lint.project import ModuleSummary, module_name_for_path

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def _write_tree(root: Path, files: dict) -> Path:
    for rel, source in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return root


def _rule_ids(findings):
    return sorted({f.rule_id for f in findings})


class TestSeededBugs:
    """Each defect spans files; the per-file engine must miss it."""

    def test_rr011_blocking_chain_across_modules(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/core/tables.py": (
                "import time\n"
                "def settle():\n"
                "    time.sleep(0.5)\n"
                "def rebuild():\n"
                "    return settle()\n"
            ),
            "repro/serve/app.py": (
                "from repro.core.tables import rebuild\n"
                "async def refresh_handler():\n"
                "    rebuild()\n"
                "    return 'ok'\n"
            ),
        })
        assert _rule_ids(lint_paths([tmp_path], project=False)) == []
        findings = lint_paths([tmp_path])
        assert _rule_ids(findings) == ["RR011"]
        (finding,) = findings
        assert finding.path.endswith("repro/serve/app.py")
        assert finding.line == 3
        assert "time.sleep" in finding.message
        assert "rebuild" in finding.message

    def test_rr012_use_after_unlink_through_wrapper(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/experiments/maker.py": (
                "def make_shared(graph):\n"
                "    return graph.to_shared()\n"
            ),
            "repro/experiments/sweep.py": (
                "from repro.experiments.maker import make_shared\n"
                "def broken(graph):\n"
                "    handle = make_shared(graph)\n"
                "    handle.unlink()\n"
                "    return handle.descriptor\n"
            ),
        })
        assert _rule_ids(lint_paths([tmp_path], project=False)) == []
        findings = lint_paths([tmp_path])
        assert _rule_ids(findings) == ["RR012"]
        assert any(
            f.line == 5 and "used after unlink" in f.message for f in findings
        )

    def test_rr013_conflicting_declarations_across_modules(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/runner.py": (
                "from repro import obs\n"
                "CHUNKS = obs.counter('demo_chunks_total', 'chunks', ('path',))\n"
            ),
            "repro/pool.py": (
                "from repro import obs\n"
                "CHUNKS = obs.counter('demo_chunks_total', 'chunks', ('path', 'worker'))\n"
            ),
        })
        assert _rule_ids(lint_paths([tmp_path], project=False)) == []
        findings = lint_paths([tmp_path])
        assert _rule_ids(findings) == ["RR013"]
        (finding,) = findings
        assert "demo_chunks_total" in finding.message
        assert "first declared at" in finding.message

    def test_rr014_spec_for_seam_declared_nowhere(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/seams.py": (
                "from repro import faults\n"
                "_FP = faults.point('demo.compute', 'compute seam')\n"
                "def compute():\n"
                "    _FP.fire()\n"
            ),
            "repro/plans.py": (
                "from repro.faults import FaultSpec\n"
                "GOOD = FaultSpec('demo.compute')\n"
                "TYPO = FaultSpec('demo.comptue')\n"
            ),
        })
        assert _rule_ids(lint_paths([tmp_path], project=False)) == []
        findings = lint_paths([tmp_path])
        assert _rule_ids(findings) == ["RR014"]
        (finding,) = findings
        assert finding.path.endswith("plans.py")
        assert "demo.comptue" in finding.message

    def test_rr014_orphaned_seam_after_fire_site_removed(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/seams.py": (
                "from repro import faults\n"
                "_FP_LIVE = faults.point('demo.live', 'still fired')\n"
                "_FP_DEAD = faults.point('demo.dead', 'fire site refactored away')\n"
                "def work():\n"
                "    _FP_LIVE.fire()\n"
            ),
        })
        findings = lint_paths([tmp_path])
        assert _rule_ids(findings) == ["RR014"]
        (finding,) = findings
        assert finding.line == 3
        assert "demo.dead" in finding.message

    def test_partial_tree_without_seam_decls_stays_silent(self, tmp_path):
        # Linting just the plan file (make lint-changed style) must not
        # produce unknown-seam noise: the index has no declarations.
        _write_tree(tmp_path, {
            "repro/plans.py": (
                "from repro.faults import FaultSpec\n"
                "SPEC = FaultSpec('serve.backend.simulate')\n"
            ),
        })
        assert lint_paths([tmp_path]) == []

    def test_suppression_pragma_applies_to_project_findings(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/seams.py": (
                "from repro import faults\n"
                "_FP = faults.point('demo.quiet', 'known orphan')  # repro-lint: disable=RR014\n"
            ),
        })
        assert lint_paths([tmp_path]) == []


class TestIncrementalCache:
    def _tree(self, tmp_path):
        return _write_tree(tmp_path / "tree", {
            "repro/alpha.py": "import numpy as np\nX = np.random.random()\n",
            "repro/beta.py": "VALUE = 3\n",
        })

    def test_warm_run_skips_analysis_entirely(self, tmp_path, monkeypatch):
        tree = self._tree(tmp_path)
        cache = tmp_path / "cache.json"
        cold = lint_paths([tree], cache=cache)
        assert _rule_ids(cold) == ["RR001"]

        import repro.lint.engine as engine

        def exploding_analyze(source, path):
            raise AssertionError(f"re-analyzed {path} on a warm cache")

        monkeypatch.setattr(engine, "_analyze_source", exploding_analyze)
        warm = lint_paths([tree], cache=cache)
        assert warm == cold

    def test_edited_file_is_the_only_one_reanalyzed(self, tmp_path, monkeypatch):
        tree = self._tree(tmp_path)
        cache = tmp_path / "cache.json"
        lint_paths([tree], cache=cache)

        import repro.lint.engine as engine

        analyzed = []
        real = engine._analyze_source

        def counting_analyze(source, path):
            analyzed.append(path)
            return real(source, path)

        monkeypatch.setattr(engine, "_analyze_source", counting_analyze)
        (tree / "repro/beta.py").write_text("VALUE = 4\n")
        lint_paths([tree], cache=cache)
        assert [Path(p).name for p in analyzed] == ["beta.py"]

    def test_cache_survives_roundtrip_and_keys_on_content(self, tmp_path):
        tree = self._tree(tmp_path)
        cache = tmp_path / "cache.json"
        cold = lint_paths([tree], cache=cache)
        document = json.loads(cache.read_text())
        assert document["signature"] == ruleset_signature()
        assert len(document["files"]) == 2
        for entry in document["files"].values():
            assert entry["digest"]
            if entry["summary"] is not None:
                ModuleSummary.from_dict(entry["summary"])
        # Content moves back -> digests match again, findings replay.
        assert lint_paths([tree], cache=cache) == cold

    def test_stale_signature_drops_the_document(self, tmp_path):
        tree = self._tree(tmp_path)
        cache = tmp_path / "cache.json"
        lint_paths([tree], cache=cache)
        document = json.loads(cache.read_text())
        document["signature"] = "0" * 16
        cache.write_text(json.dumps(document))
        assert LintCache.load(cache)._files == {}

    def test_corrupt_cache_is_treated_as_cold(self, tmp_path):
        tree = self._tree(tmp_path)
        cache = tmp_path / "cache.json"
        cache.write_text("{not json")
        findings = lint_paths([tree], cache=cache)
        assert _rule_ids(findings) == ["RR001"]


class TestIndexerInternals:
    def test_module_name_derivation(self):
        assert module_name_for_path("src/repro/serve/app.py") == "repro.serve.app"
        assert module_name_for_path("src/repro/lint/__init__.py") == "repro.lint"
        assert (
            module_name_for_path("tests/lint_fixtures/repro/serve/x.py")
            == "repro.serve.x"
        )
        assert module_name_for_path("benchmarks/lint_smoke.py") == "lint_smoke"
        assert module_name_for_path("README.md") is None

    def test_summaries_are_json_roundtrippable(self, tmp_path):
        tree = _write_tree(tmp_path, {
            "repro/sample.py": (
                "import time\n"
                "from repro import faults, obs\n"
                "_FP = faults.point('sample.seam', 'seam')\n"
                "HITS = obs.counter('sample_hits_total', 'hits')\n"
                "def helper(graph):\n"
                "    _FP.fire()\n"
                "    handle = graph.to_shared()\n"
                "    try:\n"
                "        return len(handle.descriptor)\n"
                "    finally:\n"
                "        handle.unlink()\n"
            ),
        })
        import ast

        from repro.lint.engine import parse_suppressions
        from repro.lint.project import build_summary

        path = "repro/sample.py"
        source = (tree / path).read_text()
        summary = build_summary(path, ast.parse(source), parse_suppressions(source))
        restored = ModuleSummary.from_dict(
            json.loads(json.dumps(summary.to_dict()))
        )
        assert restored.to_dict() == summary.to_dict()
        assert restored.seams[0].name == "sample.seam"
        assert restored.seam_fires == ["repro.sample._FP"]
        assert restored.metrics[0].name == "sample_hits_total"
        (fn,) = restored.functions
        kinds = [event[0] for event in fn.handle_events]
        assert kinds == ["create", "use", "kill"]
        assert fn.handle_events[-1][4] is True  # unlink inside finally
