"""``python -m repro.lint`` — command-line entry point.

Usage::

    python -m repro.lint                     # lint ./src (or . if no src/)
    python -m repro.lint src tests           # lint specific paths
    python -m repro.lint --format json src   # machine-readable report
    python -m repro.lint --cache .lint-cache.json src   # incremental
    python -m repro.lint --no-project file.py           # per-file rules only
    python -m repro.lint --list-rules        # print the rule catalogue

``repro-mcast lint`` takes exactly these arguments: its subcommand is
filled in by :func:`build_parser` and executed by :func:`run`.

Exit status: 0 clean, 1 findings, 2 usage/IO error.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.lint import run_lint
from repro.lint.reporting import rule_docs


def build_parser(
    parser: Optional[argparse.ArgumentParser] = None,
) -> argparse.ArgumentParser:
    """The lint argument parser; pass a parser (a subcommand) to fill it."""
    if parser is None:
        parser = argparse.ArgumentParser(prog="python -m repro.lint")
    parser.description = (
        "AST-based invariant checker: per-file rules over each module "
        "plus cross-file rules over the whole program's call graph.  "
        "--list-rules prints the catalogue."
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/, else .)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default text)",
    )
    parser.add_argument(
        "--cache",
        metavar="PATH",
        default=None,
        help="incremental cache file: unchanged files (by content hash) "
        "skip re-analysis entirely",
    )
    parser.add_argument(
        "--no-project",
        action="store_true",
        help="per-file rules only; use when linting a partial file set "
        "where the cross-file rules would lack context",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule id with its summary and exit",
    )
    return parser


def run(args: argparse.Namespace) -> int:
    """Execute parsed lint arguments; returns the exit status."""
    if args.list_rules:
        for rule_id, doc in sorted(rule_docs().items()):
            print(f"{rule_id} [{doc['severity']}] {doc['summary']}")
        return 0
    return run_lint(
        args.paths,
        output_format=args.format,
        cache=args.cache,
        project=not args.no_project,
    )


def main(argv: Optional[List[str]] = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
