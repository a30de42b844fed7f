"""The ``repro.lint`` engine: per-file AST rules plus whole-program analysis.

The linter exists because the Monte-Carlo engine's guarantees — seeded,
stream-identical randomness; shared immutable BFS forests; an int32 hot
path — are *conventions*, and conventions rot.  Each convention is
encoded as a rule that reports :class:`Finding` objects.  Two rule
layers share this module's machinery:

* **Per-file rules** (:class:`Rule`) inspect one module's AST: the
  engine walks each file once and hands every node to the rules that
  declared a ``visit_<NodeType>`` method, maintaining a lexical scope
  stack the rules can consult.
* **Project rules** (:class:`~repro.lint.project.ProjectRule`,
  ``is_project = True``) run after every file has been summarized into
  a picklable :class:`~repro.lint.project.ModuleSummary`; they see the
  cross-file call graph, metric/seam declarations, and shared-memory
  handle flows that no single file can prove anything about.

Suppression comments are tokenize-parsed (inert inside string
literals): ``# repro-lint: disable=RR001,RR006`` anywhere on a logical
line suppresses those rules for every physical line the statement
spans, and a module-level ``# repro-lint: disable-file[=RRnnn,...]``
pragma silences the whole file.  The engine has no configuration file
on purpose: the rule set is the project's invariants, not a style
preference, and the only sanctioned opt-out is a pragma reviewers can
see.

:func:`lint_paths` is the production entry point: it runs the per-file
layer, feeds the summaries to the project layer, and — given a cache
path — skips every file whose content hash is unchanged since the last
run.  Findings are fully sorted, so cold and warm runs are
byte-identical.
"""

from __future__ import annotations

import ast
import hashlib
import io
import json
import os
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type

__all__ = [
    "Finding",
    "Rule",
    "SuppressionIndex",
    "register_rule",
    "registered_rules",
    "lint_source",
    "lint_file",
    "lint_paths",
    "source_digest",
    "ruleset_signature",
    "PARSE_ERROR_RULE_ID",
]

#: Findings about unparseable files carry this pseudo rule id.
PARSE_ERROR_RULE_ID = "RR000"

_SEVERITIES = ("error", "warning")
_RULE_ID_PATTERN = re.compile(r"^RR\d{3}$")
_SUPPRESS_PATTERN = re.compile(
    r"#\s*repro-lint:\s*disable(?P<scope>-file)?(?:=(?P<ids>[A-Z0-9,\s]+))?"
)

#: Scope-introducing AST nodes tracked on ``FileContext.scope_stack``.
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    col: int
    rule_id: str
    severity: str
    message: str

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def render(self) -> str:
        return f"{self.location}: {self.rule_id} [{self.severity}] {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule_id": self.rule_id,
            "severity": self.severity,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Finding":
        return cls(
            path=str(data["path"]),
            line=int(data["line"]),
            col=int(data["col"]),
            rule_id=str(data["rule_id"]),
            severity=str(data["severity"]),
            message=str(data["message"]),
        )


class Rule:
    """Base class for lint rules.

    Subclasses set the class attributes below and implement any number of
    ``visit_<NodeType>`` methods (``visit_Call``, ``visit_Assign``, ...);
    the engine calls each exactly once per matching node, in source
    order, before descending into the node's children.  ``begin_file``
    runs before the walk, ``end_file`` after — rules that need
    whole-module context accumulate candidates during the walk and emit
    them from ``end_file``.

    Rules with ``is_project = True`` (see
    :class:`repro.lint.project.ProjectRule`) skip the per-file walk
    entirely and instead implement ``check(index, report)`` over the
    whole-program index.
    """

    #: Stable identifier, ``RRnnn``.
    rule_id: str = ""
    #: ``"error"`` or ``"warning"`` (both fail the lint gate).
    severity: str = "error"
    #: One-line description shown in ``--json`` output and docs.
    summary: str = ""
    #: Why the invariant matters (shown in ``--json`` rule docs).
    rationale: str = ""
    #: Project rules run over the cross-file index, not per-file ASTs.
    is_project: bool = False

    def applies_to(self, path: str) -> bool:
        """Whether this rule runs on ``path`` (posix-normalized)."""
        return True

    def begin_file(self, ctx: "FileContext") -> None:  # pragma: no cover
        pass

    def end_file(self, ctx: "FileContext") -> None:  # pragma: no cover
        pass


_RULES: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding ``cls`` to the global rule registry."""
    if not _RULE_ID_PATTERN.match(cls.rule_id or ""):
        raise ValueError(
            f"rule id must match RRnnn, got {cls.rule_id!r} on {cls.__name__}"
        )
    if cls.severity not in _SEVERITIES:
        raise ValueError(
            f"severity must be one of {_SEVERITIES}, got {cls.severity!r}"
        )
    existing = _RULES.get(cls.rule_id)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"rule id {cls.rule_id} already registered by {existing.__name__}"
        )
    _RULES[cls.rule_id] = cls
    return cls


def registered_rules() -> List[Type[Rule]]:
    """All registered rule classes (per-file and project), by rule id."""
    _load_builtin_rules()
    return [_RULES[rule_id] for rule_id in sorted(_RULES)]


def _load_builtin_rules() -> None:
    # Imported lazily so engine <-> rules is not a hard import cycle.
    from repro.lint import project, rules  # noqa: F401


def ruleset_signature() -> str:
    """Digest identifying the active rule set (cache invalidation key)."""
    from repro.lint import project

    parts = [
        f"{cls.rule_id}:{cls.__name__}:{cls.severity}:{int(cls.is_project)}"
        for cls in registered_rules()
    ]
    parts.append(f"summary-v{project.SUMMARY_VERSION}")
    return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()[:16]


def source_digest(source: str) -> str:
    """Content hash keying the incremental cache."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Suppression pragmas
# ---------------------------------------------------------------------------


class SuppressionIndex:
    """Parsed ``# repro-lint:`` pragmas for one file.

    ``lines`` maps a physical line number to ``"all"`` or a set of rule
    ids; a pragma anywhere on a logical line covers every physical line
    the statement spans (so a pragma after the closing paren of a
    multi-line call suppresses a finding reported at the call's first
    line).  ``file_scope`` holds a module-wide ``disable-file`` pragma:
    ``None`` (no pragma), ``"all"``, or a set of rule ids.
    """

    __slots__ = ("lines", "file_scope")

    def __init__(
        self,
        lines: Optional[Dict[int, object]] = None,
        file_scope: Optional[object] = None,
    ) -> None:
        self.lines: Dict[int, object] = lines if lines is not None else {}
        self.file_scope = file_scope

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        scope = self.file_scope
        if scope is not None and (scope == "all" or rule_id in scope):
            return True
        entry = self.lines.get(line)
        return entry is not None and (entry == "all" or rule_id in entry)

    def to_dict(self) -> Dict[str, object]:
        return {
            "lines": {
                str(line): sorted(entry) if isinstance(entry, set) else entry
                for line, entry in self.lines.items()
            },
            "file_scope": (
                sorted(self.file_scope)
                if isinstance(self.file_scope, set)
                else self.file_scope
            ),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SuppressionIndex":
        lines: Dict[int, object] = {}
        for line, entry in dict(data.get("lines", {})).items():
            lines[int(line)] = entry if entry == "all" else set(entry)
        scope = data.get("file_scope")
        if isinstance(scope, list):
            scope = set(scope)
        return cls(lines, scope)


def _logical_spans(tokens: Sequence) -> List[Tuple[int, int]]:
    """(first, last) physical-line pairs of each logical source line."""
    spans: List[Tuple[int, int]] = []
    start: Optional[int] = None
    skip = (
        tokenize.NL,
        tokenize.COMMENT,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENCODING,
        tokenize.ENDMARKER,
    )
    for token in tokens:
        if token.type == tokenize.NEWLINE:
            if start is not None:
                spans.append((start, token.end[0]))
            start = None
        elif token.type in skip:
            continue
        elif start is None:
            start = token.start[0]
    return spans


def parse_suppressions(source: str) -> SuppressionIndex:
    """Extract the pragma index from ``source``.

    Comments are found with :mod:`tokenize` rather than string scanning,
    so ``# repro-lint: disable`` inside a string literal is inert.
    """
    index = SuppressionIndex()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # The AST parse will report the real problem.
        return index
    spans = _logical_spans(tokens)

    def add_line(line: int, wanted: object) -> None:
        existing = index.lines.get(line)
        if existing == "all":
            return
        if wanted == "all":
            index.lines[line] = "all"
        elif isinstance(existing, set):
            existing.update(wanted)
        else:
            index.lines[line] = set(wanted)

    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_PATTERN.search(token.string)
        if not match:
            continue
        ids = match.group("ids")
        wanted: object = (
            "all"
            if ids is None
            else {part.strip() for part in ids.split(",") if part.strip()}
        )
        if match.group("scope"):
            if wanted == "all" or index.file_scope == "all":
                index.file_scope = "all"
            else:
                scope = index.file_scope if isinstance(index.file_scope, set) else set()
                scope.update(wanted)
                index.file_scope = scope
            continue
        line = token.start[0]
        lo, hi = line, line
        for span_lo, span_hi in spans:
            if span_lo <= line <= span_hi:
                lo, hi = span_lo, span_hi
                break
        for covered in range(lo, hi + 1):
            add_line(covered, wanted)
    return index


# ---------------------------------------------------------------------------
# Per-file analysis
# ---------------------------------------------------------------------------


class FileContext:
    """Per-file state shared between the engine and the rules."""

    def __init__(self, path: str, source: str) -> None:
        #: Posix-normalized path, as shown in findings.
        self.path = path.replace(os.sep, "/")
        self.source = source
        #: Lexical scope stack of *enclosing* nodes.  When a visitor runs
        #: on a node, the stack holds the scopes around it (not the node
        #: itself), so ``not ctx.scope_stack`` means "module top level".
        self.scope_stack: List[ast.AST] = []
        self.suppressions = parse_suppressions(source)
        self._findings: Set[Finding] = set()

    @property
    def function_stack(self) -> List[ast.AST]:
        """Enclosing function scopes only (classes filtered out)."""
        return [
            node
            for node in self.scope_stack
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        ]

    def at_module_level(self) -> bool:
        return not self.scope_stack

    def report(
        self,
        rule: Rule,
        node: ast.AST,
        message: str,
        line: Optional[int] = None,
    ) -> None:
        """Record a finding at ``node`` unless suppressed on that line."""
        lineno = int(line if line is not None else getattr(node, "lineno", 1))
        col = int(getattr(node, "col_offset", 0))
        if self.suppressions.is_suppressed(rule.rule_id, lineno):
            return
        self._findings.add(
            Finding(
                path=self.path,
                line=lineno,
                col=col,
                rule_id=rule.rule_id,
                severity=rule.severity,
                message=message,
            )
        )

    def findings(self) -> List[Finding]:
        return sorted(self._findings)


def _active_rules(path: str) -> List[Rule]:
    normalized = path.replace(os.sep, "/")
    active = []
    for cls in registered_rules():
        if cls.is_project:
            continue
        rule = cls()
        if rule.applies_to(normalized):
            active.append(rule)
    return active


def _analyze_source(source: str, path: str):
    """Per-file findings plus the module summary for the project layer.

    Returns ``(findings, summary)``; ``summary`` is None for files that
    do not parse (the findings then carry the RR000 parse error).
    """
    from repro.lint import project

    ctx = FileContext(path, source)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return (
            [
                Finding(
                    path=ctx.path,
                    line=int(exc.lineno or 1),
                    col=int(exc.offset or 0),
                    rule_id=PARSE_ERROR_RULE_ID,
                    severity="error",
                    message=f"file does not parse: {exc.msg}",
                )
            ],
            None,
        )
    rules = _active_rules(path)
    dispatch: Dict[type, List] = {}
    for rule in rules:
        rule.begin_file(ctx)
        for name in dir(rule):
            if not name.startswith("visit_"):
                continue
            node_type = getattr(ast, name[len("visit_"):], None)
            if node_type is None:
                raise ValueError(
                    f"{type(rule).__name__}.{name} names no ast node type"
                )
            dispatch.setdefault(node_type, []).append(getattr(rule, name))
    _walk(tree, ctx, dispatch)
    for rule in rules:
        rule.end_file(ctx)
    summary = project.build_summary(ctx.path, tree, ctx.suppressions)
    return ctx.findings(), summary


def lint_source(
    source: str, path: str = "<string>", *, project: bool = True
) -> List[Finding]:
    """Lint python ``source``; ``path`` labels the findings.

    With ``project=True`` (the default) the cross-file rules also run,
    seeing this single file as the whole program — self-contained
    violations (an obs-series conflict within the file, a leaked
    shared-memory handle) are caught even without a full tree.
    """
    from repro.lint import project as project_mod

    findings, summary = _analyze_source(source, path)
    if project and summary is not None:
        index = project_mod.ProjectIndex([summary])
        findings = sorted(set(findings) | set(project_mod.run_project_rules(index)))
    return findings


def _walk(node: ast.AST, ctx: FileContext, dispatch: Dict[type, List]) -> None:
    for handler in dispatch.get(type(node), ()):
        handler(node, ctx)
    scoped = isinstance(node, _SCOPE_NODES)
    if scoped:
        ctx.scope_stack.append(node)
    for child in ast.iter_child_nodes(node):
        _walk(child, ctx, dispatch)
    if scoped:
        ctx.scope_stack.pop()


def lint_file(path, *, project: bool = True) -> List[Finding]:
    """Lint one file on disk."""
    path = os.fspath(path)
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return lint_source(source, path, project=project)


def _iter_python_files(paths: Sequence) -> Iterable[str]:
    for path in paths:
        path = os.fspath(path)
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if d not in ("__pycache__", ".git") and not d.endswith(".egg-info")
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        yield os.path.join(root, name)
        else:
            yield path


def lint_paths(
    paths: Sequence,
    *,
    cache: Optional[str] = None,
    project: bool = True,
) -> List[Finding]:
    """Lint every ``*.py`` under ``paths`` (files or directories).

    Findings are sorted by (path, line, col, rule id); an empty list
    means the tree is clean.

    ``cache`` names a JSON file keyed by content hash so warm runs skip
    unchanged files entirely (including the parse).  ``project=False``
    disables the cross-file rules — the right trade for partial-tree
    runs like ``make lint-changed``, where the index would be missing
    most of the program.
    """
    from repro.lint import project as project_mod
    from repro.lint.cache import LintCache

    files: List[Tuple[str, str, str]] = []  # (normalized, source, digest)
    for file_path in _iter_python_files(paths):
        with open(file_path, "r", encoding="utf-8") as handle:
            source = handle.read()
        normalized = os.fspath(file_path).replace(os.sep, "/")
        files.append((normalized, source, source_digest(source)))

    store = LintCache.load(cache) if cache else None
    findings: Set[Finding] = set()
    summaries: List = []
    for normalized, source, digest in files:
        hit = store.lookup(normalized, digest) if store is not None else None
        if hit is not None:
            file_findings, summary = hit
        else:
            file_findings, summary = _analyze_source(source, normalized)
            if store is not None:
                store.store(normalized, digest, file_findings, summary)
        findings.update(file_findings)
        if summary is not None:
            summaries.append(summary)

    if project and summaries:
        project_key = hashlib.sha256(
            json.dumps(
                sorted((normalized, digest) for normalized, _, digest in files)
            ).encode("utf-8")
        ).hexdigest()
        cached_project = (
            store.project_findings(project_key) if store is not None else None
        )
        if cached_project is not None:
            findings.update(cached_project)
        else:
            index = project_mod.ProjectIndex(summaries)
            project_findings = project_mod.run_project_rules(index)
            findings.update(project_findings)
            if store is not None:
                store.store_project(project_key, project_findings)

    if store is not None:
        store.save()
    return sorted(findings)
