"""Contract tests for repro.lint reporting and the CLI.

The JSON document shape and the exit-code contract (0 clean / 1
findings / 2 usage error) are consumed by tooling outside this
repository's test suite, so each is pinned explicitly here.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint.__main__ import main as lint_main
from repro.lint.reporting import render_json
from repro.lint.engine import lint_file

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def _sample_findings():
    return lint_file(FIXTURES / "rr001_positive.py")


class TestJsonSnapshot:
    def test_document_shape_is_stable(self):
        report = json.loads(render_json(_sample_findings()))
        assert sorted(report) == [
            "clean", "counts", "findings", "rules", "version",
        ]
        assert report["version"] == 1
        assert sorted(report["counts"]) == ["by_rule", "by_severity", "total"]
        for finding in report["findings"]:
            assert sorted(finding) == [
                "col", "line", "message", "path", "rule_id", "severity",
            ]
        for doc in report["rules"].values():
            assert sorted(doc) == ["rationale", "severity", "summary"]


class TestExitCodes:
    def test_zero_on_clean(self, capsys):
        assert lint_main([str(FIXTURES / "rr001_negative.py")]) == 0

    def test_one_on_findings(self, capsys):
        assert lint_main([str(FIXTURES / "rr001_positive.py")]) == 1

    def test_two_on_missing_path(self, capsys):
        assert lint_main([str(FIXTURES / "no_such_file.py")]) == 2

    def test_two_on_unknown_format_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            lint_main(["--format", "xml", str(FIXTURES)])
        assert excinfo.value.code == 2

    def test_sarif_format_flag(self, capsys):
        # Only text and JSON reports exist; sarif is a usage error on
        # both entry points.
        from repro.cli import main as cli_main

        target = str(FIXTURES / "rr001_positive.py")
        for entry in (lint_main, lambda argv: cli_main(["lint", *argv])):
            with pytest.raises(SystemExit) as excinfo:
                entry(["--format", "sarif", target])
            assert excinfo.value.code == 2
            assert "invalid choice: 'sarif'" in capsys.readouterr().err
