"""Rendering lint findings as text or JSON.

The JSON document is a stable contract for downstream tooling
(pre-commit hooks, the benchmark dirty-tree guard, re-anchor reviews):
it carries the findings *and* the rule documentation and per-rule
counts, so a consumer never has to parse the text format or import the
rule classes to explain a finding.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, Sequence

from repro.lint.engine import Finding, registered_rules

__all__ = [
    "render_text",
    "render_json",
    "rule_docs",
    "JSON_SCHEMA_VERSION",
]

#: Bumped whenever the JSON document shape changes incompatibly.
JSON_SCHEMA_VERSION = 1


def rule_docs() -> Dict[str, Dict[str, str]]:
    """Rule-id -> {summary, severity, rationale} for every known rule."""
    return {
        cls.rule_id: {
            "summary": cls.summary,
            "severity": cls.severity,
            "rationale": cls.rationale,
        }
        for cls in registered_rules()
    }


def render_text(findings: Sequence[Finding]) -> str:
    """Human-readable report, one ``path:line:col: RRnnn`` line each."""
    if not findings:
        return "repro.lint: clean (0 findings)"
    lines = [finding.render() for finding in findings]
    counts = Counter(finding.rule_id for finding in findings)
    breakdown = ", ".join(
        f"{rule_id} x{count}" for rule_id, count in sorted(counts.items())
    )
    lines.append(
        f"repro.lint: {len(findings)} finding"
        f"{'s' if len(findings) != 1 else ''} ({breakdown})"
    )
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """The machine-readable report (see module docstring)."""
    by_rule = Counter(finding.rule_id for finding in findings)
    by_severity = Counter(finding.severity for finding in findings)
    document = {
        "version": JSON_SCHEMA_VERSION,
        "clean": not findings,
        "counts": {
            "total": len(findings),
            "by_rule": dict(sorted(by_rule.items())),
            "by_severity": dict(sorted(by_severity.items())),
        },
        "rules": rule_docs(),
        "findings": [finding.to_dict() for finding in findings],
    }
    return json.dumps(document, indent=2, sort_keys=False)
