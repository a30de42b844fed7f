"""Fixture-driven tests for the repro.lint engine and rule set.

Each rule RR001-RR010 has a positive fixture (violation lines carry a
trailing ``# expect: RRnnn`` marker) and a negative fixture that must
lint clean.  The expected (line -> rule ids) map is parsed out of the
fixture itself, so fixtures stay self-documenting.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.lint import (
    Finding,
    lint_file,
    lint_paths,
    lint_source,
    render_json,
    render_text,
    rule_docs,
    run_lint,
)
from repro.lint.__main__ import main as lint_main

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
_EXPECT = re.compile(r"#\s*expect:\s*(?P<ids>[A-Z0-9, ]+)")

RULE_IDS = (
    "RR001", "RR002", "RR003", "RR004", "RR005", "RR006", "RR007", "RR008",
    "RR009", "RR010", "RR011", "RR012", "RR013", "RR014", "RR015",
    "RR016",
)

RULE_FIXTURES = [
    ("RR001", "rr001_positive.py", "rr001_negative.py"),
    ("RR002", "rr002_positive.py", "rr002_negative.py"),
    ("RR003", "rr003_positive.py", "rr003_negative.py"),
    (
        "RR005",
        "experiments/figures/rr005_positive.py",
        "experiments/figures/rr005_negative.py",
    ),
    ("RR004", "rr004_positive.py", "rr004_negative.py"),
    ("RR006", "rr006_positive.py", "rr006_negative.py"),
    (
        "RR007",
        "repro/serve/rr007_positive.py",
        "repro/serve/rr007_negative.py",
    ),
    (
        "RR008",
        "repro/serve/rr008_positive.py",
        "repro/serve/rr008_negative.py",
    ),
    (
        "RR009",
        "repro/experiments/rr009_positive.py",
        "repro/experiments/rr009_negative.py",
    ),
    (
        "RR010",
        "repro/experiments/rr010_positive.py",
        "repro/experiments/rr010_negative.py",
    ),
    (
        "RR011",
        "repro/serve/rr011_positive.py",
        "repro/serve/rr011_negative.py",
    ),
    (
        "RR012",
        "repro/experiments/rr012_positive.py",
        "repro/experiments/rr012_negative.py",
    ),
    ("RR013", "rr013_positive.py", "rr013_negative.py"),
    ("RR014", "rr014_positive.py", "rr014_negative.py"),
    (
        "RR015",
        "repro/serve/rr015_positive.py",
        "repro/serve/rr015_negative.py",
    ),
    (
        "RR016",
        "repro/experiments/rr016_positive.py",
        "repro/experiments/rr016_negative.py",
    ),
]


def expected_markers(path: Path) -> dict:
    """Parse ``# expect: RRnnn`` markers into a line -> {rule ids} map."""
    expected = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        match = _EXPECT.search(line)
        if match:
            ids = {part.strip() for part in match.group("ids").split(",") if part.strip()}
            expected[lineno] = ids
    return expected


def findings_by_line(path: Path) -> dict:
    found = {}
    for finding in lint_file(path):
        found.setdefault(finding.line, set()).add(finding.rule_id)
    return found


@pytest.mark.parametrize(
    "rule_id,positive,negative", RULE_FIXTURES, ids=[row[0] for row in RULE_FIXTURES]
)
class TestRuleFixtures:
    def test_positive_fixture_flags_exactly_the_marked_lines(
        self, rule_id, positive, negative
    ):
        path = FIXTURES / positive
        expected = expected_markers(path)
        assert expected, f"fixture {positive} has no '# expect:' markers"
        assert all(rule_id in ids for ids in expected.values())
        assert findings_by_line(path) == expected

    def test_negative_fixture_is_clean(self, rule_id, positive, negative):
        assert lint_file(FIXTURES / negative) == []


def test_rr003_is_gated_on_int32_declarations():
    # Bare np.arange is only a hazard in modules that actually declare
    # int32 scratch; a module without any must stay clean.
    assert lint_file(FIXTURES / "rr003_negative_no_scratch.py") == []


class TestSuppression:
    def test_suppressed_fixture_is_clean(self):
        assert lint_file(FIXTURES / "suppressed.py") == []

    def test_stripping_the_pragma_restores_the_finding(self):
        source = FIXTURES.joinpath("suppressed.py").read_text()
        unsuppressed = re.sub(r"#\s*repro-lint:.*", "", source)
        rule_ids = {f.rule_id for f in lint_source(unsuppressed, "suppressed.py")}
        assert {"RR001", "RR004", "RR006"} <= rule_ids

    def test_pragma_inside_string_literal_is_inert(self):
        source = (
            "import numpy as np\n"
            'PRAGMA = "# repro-lint: disable=RR001"\n'
            "x = np.random.random()\n"
        )
        findings = lint_source(source, "inert.py")
        assert [f.rule_id for f in findings] == ["RR001"]

    def test_unrelated_rule_id_does_not_suppress(self):
        source = "import numpy as np\nx = np.random.random()  # repro-lint: disable=RR006\n"
        findings = lint_source(source, "wrong_id.py")
        assert [f.rule_id for f in findings] == ["RR001"]

    def test_multiple_rule_ids_in_one_pragma(self):
        source = (
            "import numpy as np\n"
            "def f(bucket=[], x=None):  # repro-lint: disable=RR001,RR006\n"
            "    return np.random.random()\n"
        )
        # RR006 fires on the def line; RR001 fires inside the body, on a
        # different logical line, so only RR006 is silenced here.
        findings = lint_source(source, "multi.py")
        assert [f.rule_id for f in findings] == ["RR001"]
        both = source.replace(
            "return np.random.random()",
            "return np.random.random()  # repro-lint: disable=RR001,RR006",
        )
        assert lint_source(both, "multi.py") == []

    def test_disable_file_pragma_silences_listed_rules_everywhere(self):
        source = (
            "# repro-lint: disable-file=RR001\n"
            "import numpy as np\n"
            "def f(bucket=[]):\n"
            "    return np.random.random()\n"
        )
        findings = lint_source(source, "filewide.py")
        assert [f.rule_id for f in findings] == ["RR006"]

    def test_bare_disable_file_pragma_silences_everything(self):
        source = (
            "# repro-lint: disable-file\n"
            "import numpy as np\n"
            "def f(bucket=[]):\n"
            "    return np.random.random()\n"
        )
        assert lint_source(source, "filewide.py") == []

    def test_pragma_on_continuation_line_covers_the_statement(self):
        source = (
            "import numpy as np\n"
            "x = np.random.random(\n"
            "    7,  # repro-lint: disable=RR001\n"
            ")\n"
        )
        assert lint_source(source, "continuation.py") == []

    def test_pragma_on_call_line_covers_multiline_call(self):
        source = (
            "import numpy as np\n"
            "x = np.random.random(  # repro-lint: disable=RR001\n"
            "    7,\n"
            ")\n"
        )
        assert lint_source(source, "multiline.py") == []

    def test_pragma_on_decorated_def_signature(self):
        source = (
            "import functools\n"
            "@functools.lru_cache\n"
            "def f(\n"
            "    bucket=[],  # repro-lint: disable=RR006\n"
            "):\n"
            "    return bucket\n"
        )
        assert lint_source(source, "decorated.py") == []

    def test_decorator_pragma_does_not_leak_to_the_def(self):
        source = (
            "import functools\n"
            "@functools.lru_cache  # repro-lint: disable=RR006\n"
            "def f(bucket=[]):\n"
            "    return bucket\n"
        )
        # The decorator is its own logical line; the violation sits on
        # the def's logical line and must survive.
        findings = lint_source(source, "decorated.py")
        assert [f.rule_id for f in findings] == ["RR006"]


class TestEngine:
    def test_syntax_error_yields_parse_error_finding(self):
        findings = lint_source("def broken(:\n", "broken.py")
        assert len(findings) == 1
        assert findings[0].rule_id == "RR000"
        assert findings[0].severity == "error"

    def test_finding_render_format(self):
        finding = Finding(
            path="src/x.py", line=3, col=4, rule_id="RR001", severity="error", message="m"
        )
        assert finding.render() == "src/x.py:3:4: RR001 [error] m"

    def test_lint_paths_walks_directories_and_sorts(self):
        findings = lint_paths([FIXTURES])
        assert findings == sorted(findings)
        flagged_paths = {f.path for f in findings}
        assert any(p.endswith("rr001_positive.py") for p in flagged_paths)
        assert not any(p.endswith("_negative.py") for p in flagged_paths)


class TestReporting:
    def test_json_report_contract(self):
        findings = lint_file(FIXTURES / "rr001_positive.py")
        report = json.loads(render_json(findings))
        assert report["version"] == 1
        assert report["clean"] is False
        assert report["counts"]["total"] == len(findings)
        assert report["counts"]["by_rule"]["RR001"] == len(findings)
        assert set(RULE_IDS) <= set(report["rules"])
        for doc in report["rules"].values():
            assert doc["summary"] and doc["rationale"] and doc["severity"]
        first = report["findings"][0]
        assert {"path", "line", "col", "rule_id", "severity", "message"} <= set(first)

    def test_json_report_clean_tree(self):
        report = json.loads(render_json([]))
        assert report["clean"] is True
        assert report["counts"]["total"] == 0
        assert report["findings"] == []

    def test_text_report_mentions_rule_counts(self):
        findings = lint_file(FIXTURES / "rr006_positive.py")
        text = render_text(findings)
        assert "RR006 x4" in text
        assert render_text([]).startswith("repro.lint: clean")

    def test_rule_docs_cover_all_rules(self):
        assert set(RULE_IDS) <= set(rule_docs())


class TestCli:
    def test_exit_one_on_findings(self, capsys):
        code = run_lint([str(FIXTURES / "rr001_positive.py")])
        assert code == 1
        assert "RR001" in capsys.readouterr().out

    def test_exit_zero_on_clean_path(self, capsys):
        assert run_lint([str(FIXTURES / "rr001_negative.py")]) == 0

    def test_exit_two_on_missing_path(self, capsys):
        assert run_lint([str(FIXTURES / "does_not_exist.py")]) == 2

    def test_main_json_output(self, capsys):
        code = lint_main(
            ["--format", "json", str(FIXTURES / "rr004_positive.py")]
        )
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["counts"]["by_rule"] == {"RR004": 3}

    def test_main_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULE_IDS:
            assert rule_id in out

    def test_repro_mcast_lint_subcommand(self, capsys):
        from repro.cli import main as cli_main

        code = cli_main(["lint", str(FIXTURES / "rr006_positive.py")])
        assert code == 1
        assert "RR006" in capsys.readouterr().out

    def test_repro_mcast_lint_list_rules_matches_module(self, capsys):
        from repro.cli import main as cli_main

        assert lint_main(["--list-rules"]) == 0
        expected = capsys.readouterr().out
        assert cli_main(["lint", "--list-rules"]) == 0
        assert capsys.readouterr().out == expected

    def test_repro_mcast_lint_help_matches_module(self, capsys):
        from repro.cli import main as cli_main

        helps = []
        for entry in (lambda: lint_main(["--help"]),
                      lambda: cli_main(["lint", "--help"])):
            with pytest.raises(SystemExit) as excinfo:
                entry()
            assert excinfo.value.code == 0
            # Everything past the usage block (which names the program).
            helps.append(capsys.readouterr().out.split("\n\n", 1)[1])
        assert helps[0] == helps[1]
        for option in ("--format {text,json}", "--cache", "--no-project",
                       "--list-rules"):
            assert option in helps[0]
