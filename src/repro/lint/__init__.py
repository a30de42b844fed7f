"""``repro.lint`` — static invariant checks for the reproduction.

The reproduction's central claims (batched == scalar bit-identity,
worker-count invariance, cacheable forests) rest on code conventions —
seeded RNG streams, immutable cached arrays, int32 hot-path discipline —
that no test can fully enforce.  This package checks them statically:

* :mod:`repro.lint.engine` — the AST walker, rule registry,
  :class:`~repro.lint.engine.Finding`, and ``# repro-lint: disable=RRnnn``
  suppression handling;
* :mod:`repro.lint.rules` — the per-file rules (RR001–RR010, RR015,
  RR016);
* :mod:`repro.lint.project` — the project indexer, call graph, and the
  cross-file RR011–RR014 rules;
* :mod:`repro.lint.cache` — the content-hash incremental cache;
* :mod:`repro.lint.reporting` — text and JSON rendering.

Run it as ``python -m repro.lint [paths]`` or ``repro-mcast lint`` (one
argument parser, :func:`repro.lint.__main__.build_parser`, serves both);
``make lint`` gates the test suite and the fleet and scale smokes on a
clean tree.  See ``docs/static-analysis.md`` for the rule catalogue.
"""

from repro.lint.engine import (
    Finding,
    Rule,
    lint_file,
    lint_paths,
    lint_source,
    register_rule,
    registered_rules,
)
from repro.lint.reporting import render_json, render_text, rule_docs

__all__ = [
    "Finding",
    "Rule",
    "lint_file",
    "lint_paths",
    "lint_source",
    "register_rule",
    "registered_rules",
    "render_json",
    "render_text",
    "rule_docs",
    "run_lint",
]

_RENDERERS = {"text": render_text, "json": render_json}


def run_lint(
    paths=None,
    *,
    output_format: str = "text",
    cache: str = None,
    project: bool = True,
) -> int:
    """Lint ``paths`` (default ``src``/cwd), print a report, return exit code.

    Shared by ``python -m repro.lint`` and ``repro-mcast lint``: exit
    status 0 means no findings, 1 means findings, 2 means a usage/IO
    error (unreadable path, unknown format).
    """
    import os
    import sys

    if not paths:
        paths = ["src"] if os.path.isdir("src") else ["."]
    for path in paths:
        if not os.path.exists(path):
            print(f"repro.lint: no such path: {path}", file=sys.stderr)
            return 2
    renderer = _RENDERERS.get(output_format)
    if renderer is None:
        print(f"repro.lint: unknown format: {output_format}", file=sys.stderr)
        return 2
    findings = lint_paths(paths, cache=cache, project=project)
    print(renderer(findings))
    return 1 if findings else 0
