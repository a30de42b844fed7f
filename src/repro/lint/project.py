"""Whole-program analysis: the project indexer and cross-file rules.

The per-file rules in :mod:`repro.lint.rules` under-approximate by
construction — they cannot see a helper that blocks three modules below
a serve coroutine, a shared-memory segment unlinked while a worker
still holds a view, or two modules declaring the same obs series with
different label sets.  This module closes that gap in two passes:

1. **Index.**  Every linted file is distilled into a plain-data
   :class:`ModuleSummary`: resolved imports, a per-function call list
   (targets resolved to dotted qualnames where the imports allow it),
   direct blocking-primitive calls, shared-memory handle events,
   obs-metric declarations, and fault-seam declarations/firings.
   Summaries carry no AST nodes, so they travel through the incremental
   cache unchanged — a warm run re-runs the project rules without
   re-parsing a single file.
2. **Analyze.**  :class:`ProjectRule` subclasses (RR011–RR014) run over
   the :class:`ProjectIndex` built from all summaries, walking the call
   graph and the declaration tables.  Findings land on concrete
   file/line locations and respect that file's suppression pragmas,
   exactly like per-file findings.

Everything here stays deliberately under-approximating: an unresolvable
call edge is dropped, not guessed at, so a cross-file finding is always
worth reading.  The cost is soundness on *partial* indexes — linting a
lone file cannot see callees or seam declarations elsewhere — which is
why ``make lint`` feeds the whole tree at once and ``make lint-changed``
disables this layer (``--no-project``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.engine import (
    Finding,
    Rule,
    SuppressionIndex,
    register_rule,
    registered_rules,
)
from repro.lint.rules import BlockingCallDetector, _attr_chain

__all__ = [
    "SUMMARY_VERSION",
    "ModuleSummary",
    "FunctionSummary",
    "MetricDecl",
    "SeamDecl",
    "SpecRef",
    "ProjectIndex",
    "ProjectRule",
    "build_summary",
    "module_name_for_path",
    "run_project_rules",
    "TransitiveBlockingRule",
    "SharedHandleLifetimeRule",
    "ObsSeriesDriftRule",
    "FaultSeamConsistencyRule",
]

#: Bumped whenever the summary shape changes; part of the cache key.
SUMMARY_VERSION = 1

_METRIC_KINDS = ("counter", "gauge", "histogram")
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)

#: Method names that take ownership of a handle argument (container
#: stores and registries); plain function arguments are borrows.
_TRANSFER_METHODS = frozenset(
    {"append", "add", "put", "push", "register", "store", "setdefault"}
)


def module_name_for_path(path: str) -> Optional[str]:
    """Dotted module name for a posix-normalized ``*.py`` path.

    ``src/repro/serve/app.py`` -> ``repro.serve.app``; trees without a
    ``src`` component anchor on the first ``repro`` component (fixture
    and scratch trees), and bare files fall back to their stem.
    """
    parts = path.split("/")
    if not parts or not parts[-1].endswith(".py"):
        return None
    parts = parts[:-1] + [parts[-1][: -len(".py")]]
    if parts[-1] == "__init__":
        parts = parts[:-1]
        if not parts:
            return None
    if "src" in parts[:-1]:
        anchor = len(parts) - 1 - parts[::-1].index("src")
        module_parts = parts[anchor + 1 :]
    elif "repro" in parts:
        module_parts = parts[parts.index("repro") :]
    else:
        module_parts = parts[-1:]
    return ".".join(module_parts) if module_parts else None


# ---------------------------------------------------------------------------
# Summaries (picklable, cacheable)
# ---------------------------------------------------------------------------


@dataclass
class CallSite:
    """One resolved call edge out of a function."""

    target: str
    line: int
    col: int

    def to_dict(self):
        return {"target": self.target, "line": self.line, "col": self.col}

    @classmethod
    def from_dict(cls, data):
        return cls(str(data["target"]), int(data["line"]), int(data["col"]))


@dataclass
class BlockingCall:
    """A direct call to an event-loop-blocking primitive."""

    described: str
    line: int
    col: int

    def to_dict(self):
        return {"described": self.described, "line": self.line, "col": self.col}

    @classmethod
    def from_dict(cls, data):
        return cls(str(data["described"]), int(data["line"]), int(data["col"]))


@dataclass
class FunctionSummary:
    """Call-graph node: one module-level function or class method."""

    qualname: str
    name: str
    line: int
    col: int
    is_async: bool
    calls: List[CallSite] = field(default_factory=list)
    blocking: List[BlockingCall] = field(default_factory=list)
    #: Returns a ``.to_shared()`` result directly.
    returns_handle: bool = False
    #: Call targets whose results this function returns (for propagating
    #: "returns a shared handle" through wrappers).
    return_targets: List[str] = field(default_factory=list)
    #: Source-ordered shared-memory handle events:
    #: ``[kind, name, line, col, extra]`` with kind in {create, maybe,
    #: rebind, kill, use, submit, escape, return}.
    handle_events: List[list] = field(default_factory=list)

    def to_dict(self):
        return {
            "qualname": self.qualname,
            "name": self.name,
            "line": self.line,
            "col": self.col,
            "is_async": self.is_async,
            "calls": [c.to_dict() for c in self.calls],
            "blocking": [b.to_dict() for b in self.blocking],
            "returns_handle": self.returns_handle,
            "return_targets": list(self.return_targets),
            "handle_events": [list(e) for e in self.handle_events],
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            qualname=str(data["qualname"]),
            name=str(data["name"]),
            line=int(data["line"]),
            col=int(data["col"]),
            is_async=bool(data["is_async"]),
            calls=[CallSite.from_dict(c) for c in data["calls"]],
            blocking=[BlockingCall.from_dict(b) for b in data["blocking"]],
            returns_handle=bool(data["returns_handle"]),
            return_targets=[str(t) for t in data["return_targets"]],
            handle_events=[list(e) for e in data["handle_events"]],
        )


@dataclass
class MetricDecl:
    """One ``obs.counter/gauge/histogram`` (or registry) declaration."""

    name: str
    kind: str
    #: Label names, or None when not statically known.
    labels: Optional[Tuple[str, ...]]
    #: Canonical bucket repr, "?" when present but not literal, None
    #: when the declaration relies on the default buckets.
    buckets: Optional[str]
    line: int
    col: int

    def to_dict(self):
        return {
            "name": self.name,
            "kind": self.kind,
            "labels": list(self.labels) if self.labels is not None else None,
            "buckets": self.buckets,
            "line": self.line,
            "col": self.col,
        }

    @classmethod
    def from_dict(cls, data):
        labels = data["labels"]
        return cls(
            name=str(data["name"]),
            kind=str(data["kind"]),
            labels=tuple(labels) if labels is not None else None,
            buckets=data["buckets"],
            line=int(data["line"]),
            col=int(data["col"]),
        )


@dataclass
class SeamDecl:
    """One ``faults.point(name, ...)`` declaration."""

    name: str
    #: Qualified name of the variable holding the point (fire matching),
    #: or None for a bare expression declaration.
    var: Optional[str]
    line: int
    col: int

    def to_dict(self):
        return {
            "name": self.name,
            "var": self.var,
            "line": self.line,
            "col": self.col,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            str(data["name"]),
            data["var"],
            int(data["line"]),
            int(data["col"]),
        )


@dataclass
class SpecRef:
    """A literal fault-seam name inside a ``FaultSpec(...)`` call."""

    name: str
    line: int
    col: int

    def to_dict(self):
        return {"name": self.name, "line": self.line, "col": self.col}

    @classmethod
    def from_dict(cls, data):
        return cls(str(data["name"]), int(data["line"]), int(data["col"]))


@dataclass
class ModuleSummary:
    """Everything the project rules need to know about one file."""

    path: str
    module: Optional[str]
    functions: List[FunctionSummary] = field(default_factory=list)
    metrics: List[MetricDecl] = field(default_factory=list)
    seams: List[SeamDecl] = field(default_factory=list)
    #: Qualified variable names receiving a ``.fire()`` call.
    seam_fires: List[str] = field(default_factory=list)
    spec_refs: List[SpecRef] = field(default_factory=list)
    suppressions: SuppressionIndex = field(default_factory=SuppressionIndex)

    def to_dict(self):
        return {
            "version": SUMMARY_VERSION,
            "path": self.path,
            "module": self.module,
            "functions": [f.to_dict() for f in self.functions],
            "metrics": [m.to_dict() for m in self.metrics],
            "seams": [s.to_dict() for s in self.seams],
            "seam_fires": list(self.seam_fires),
            "spec_refs": [r.to_dict() for r in self.spec_refs],
            "suppressions": self.suppressions.to_dict(),
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            path=str(data["path"]),
            module=data["module"],
            functions=[FunctionSummary.from_dict(f) for f in data["functions"]],
            metrics=[MetricDecl.from_dict(m) for m in data["metrics"]],
            seams=[SeamDecl.from_dict(s) for s in data["seams"]],
            seam_fires=[str(f) for f in data["seam_fires"]],
            spec_refs=[SpecRef.from_dict(r) for r in data["spec_refs"]],
            suppressions=SuppressionIndex.from_dict(data["suppressions"]),
        )


# ---------------------------------------------------------------------------
# The summary builder
# ---------------------------------------------------------------------------


class _ModuleResolver:
    """Resolve attribute chains to dotted qualnames via the import table."""

    def __init__(self, module: Optional[str], tree: ast.Module) -> None:
        self.module = module
        self.aliases: Dict[str, str] = {}
        self.import_roots: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.aliases[alias.asname] = alias.name
                    else:
                        self.import_roots.add(alias.name.split(".", 1)[0])
            elif isinstance(node, ast.ImportFrom):
                base = self._from_base(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.aliases[alias.asname or alias.name] = f"{base}.{alias.name}"

    def _from_base(self, node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module
        if self.module is None:
            return None
        parts = self.module.split(".")
        if node.level > len(parts):
            return None
        base_parts = parts[: len(parts) - node.level]
        if node.module:
            base_parts.append(node.module)
        return ".".join(base_parts) if base_parts else None

    def resolve(
        self, chain: Sequence[str], class_name: Optional[str] = None
    ) -> Optional[str]:
        """Dotted qualname for ``chain``, or None when unresolvable.

        Unknown heads are qualified into this module (``helper()`` ->
        ``pkg.mod.helper``); bogus results simply never match a real
        function table entry, keeping the analysis under-approximating.
        """
        if not chain:
            return None
        head = chain[0]
        rest = ".".join(chain[1:])
        if head == "self":
            if class_name is not None and len(chain) == 2 and self.module:
                return f"{self.module}.{class_name}.{chain[1]}"
            return None
        if head in self.aliases:
            base = self.aliases[head]
            return f"{base}.{rest}" if rest else base
        if head in self.import_roots:
            return ".".join(chain)
        if self.module is not None:
            return f"{self.module}." + ".".join(chain)
        return None


def _str_const(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _str_tuple(node: ast.AST) -> Optional[Tuple[str, ...]]:
    if isinstance(node, (ast.Tuple, ast.List)):
        values = [_str_const(elt) for elt in node.elts]
        if all(v is not None for v in values):
            return tuple(values)  # type: ignore[arg-type]
    return None


def _bucket_repr(node: ast.AST) -> str:
    if isinstance(node, (ast.Tuple, ast.List)):
        values = []
        for elt in node.elts:
            if isinstance(elt, ast.Constant) and isinstance(
                elt.value, (int, float)
            ):
                values.append(float(elt.value))
            else:
                return "?"
        return repr(tuple(values))
    return "?"


def _is_to_shared_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    chain = _attr_chain(node.func)
    return chain is not None and chain[-1] == "to_shared"


def _metric_decl(
    call: ast.Call, chain: Tuple[str, ...], resolver: _ModuleResolver
) -> Optional[MetricDecl]:
    kind = chain[-1]
    if kind not in _METRIC_KINDS:
        return None
    if len(chain) == 1:
        # Bare counter()/gauge() names count only when they were
        # imported from repro.obs — a local helper of the same name is
        # not a metric declaration.
        resolved = resolver.resolve(chain)
        if resolved is None or not resolved.startswith("repro.obs"):
            return None
    if not call.args:
        return None
    name = _str_const(call.args[0])
    if name is None:
        return None
    labels_node: Optional[ast.AST] = call.args[2] if len(call.args) >= 3 else None
    buckets_node: Optional[ast.AST] = call.args[3] if len(call.args) >= 4 else None
    for keyword in call.keywords:
        if keyword.arg == "labelnames":
            labels_node = keyword.value
        elif keyword.arg == "buckets":
            buckets_node = keyword.value
    labels: Optional[Tuple[str, ...]]
    if labels_node is None:
        labels = ()
    else:
        labels = _str_tuple(labels_node)
    buckets = None
    if kind == "histogram" and buckets_node is not None:
        buckets = _bucket_repr(buckets_node)
    return MetricDecl(name, kind, labels, buckets, call.lineno, call.col_offset)


def _is_seam_decl(chain: Tuple[str, ...], resolver: _ModuleResolver) -> bool:
    if chain[-1] != "point":
        return False
    if len(chain) >= 2 and chain[-2] in ("faults", "points"):
        return True
    resolved = resolver.resolve(chain)
    return resolved is not None and resolved.startswith("repro.faults")


def _summarize_function(
    fn: ast.AST,
    qualname: str,
    class_name: Optional[str],
    resolver: _ModuleResolver,
    detector: BlockingCallDetector,
) -> FunctionSummary:
    summary = FunctionSummary(
        qualname=qualname,
        name=fn.name,
        line=fn.lineno,
        col=fn.col_offset,
        is_async=isinstance(fn, ast.AsyncFunctionDef),
    )
    candidates: Set[str] = set()
    events = summary.handle_events

    def call_target(value: ast.AST) -> Optional[str]:
        if not isinstance(value, ast.Call):
            return None
        chain = _attr_chain(value.func)
        if chain is None:
            return None
        return resolver.resolve(chain, class_name)

    def scan(node: ast.AST, in_finally: bool) -> None:
        if isinstance(node, _SCOPE_NODES):
            # Nested defs are separate control flow: defining one
            # neither calls nor blocks (mirrors RR007's choice).
            return
        if isinstance(node, ast.Try):
            for sub in node.body:
                scan(sub, in_finally)
            for handler in node.handlers:
                for sub in handler.body:
                    scan(sub, in_finally)
            for sub in node.orelse:
                scan(sub, in_finally)
            for sub in node.finalbody:
                scan(sub, True)
            return
        if isinstance(node, ast.Return):
            value = node.value
            if value is None:
                return
            if isinstance(value, ast.Name):
                if value.id in candidates:
                    events.append(
                        ["return", value.id, value.lineno, value.col_offset, None]
                    )
                return
            if _is_to_shared_call(value):
                summary.returns_handle = True
            else:
                target = call_target(value)
                if target is not None:
                    summary.return_targets.append(target)
            scan(value, in_finally)
            return
        if isinstance(node, ast.Assign):
            value = node.value
            single = (
                node.targets[0]
                if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)
                else None
            )
            if isinstance(value, ast.Name) and value.id in candidates:
                # Storing the bare handle anywhere transfers ownership.
                events.append(
                    ["escape", value.id, value.lineno, value.col_offset, None]
                )
            else:
                scan(value, in_finally)
            for target in node.targets:
                if not isinstance(target, ast.Name):
                    scan(target, in_finally)
            if single is not None:
                if _is_to_shared_call(value):
                    candidates.add(single.id)
                    events.append(
                        ["create", single.id, node.lineno, node.col_offset, None]
                    )
                else:
                    target_name = call_target(value)
                    if target_name is not None:
                        candidates.add(single.id)
                        events.append(
                            [
                                "maybe",
                                single.id,
                                node.lineno,
                                node.col_offset,
                                target_name,
                            ]
                        )
                    elif single.id in candidates:
                        events.append(
                            ["rebind", single.id, node.lineno, node.col_offset, None]
                        )
            return
        if isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            described = detector.describe(node)
            if described is not None:
                summary.blocking.append(
                    BlockingCall(described, node.lineno, node.col_offset)
                )
            if chain is not None:
                target = resolver.resolve(chain, class_name)
                if target is not None:
                    summary.calls.append(
                        CallSite(target, node.lineno, node.col_offset)
                    )
                if (
                    len(chain) == 2
                    and chain[0] in candidates
                    and chain[1] in ("unlink", "release")
                ):
                    events.append(
                        [
                            "kill",
                            chain[0],
                            node.lineno,
                            node.col_offset,
                            bool(in_finally),
                        ]
                    )
                    for arg in list(node.args) + [k.value for k in node.keywords]:
                        scan(arg, in_finally)
                    return
            tail = chain[-1] if chain else None
            if tail == "submit":
                arg_kind = "submit"
            elif tail in _TRANSFER_METHODS and len(chain) >= 2:
                arg_kind = "escape"
            else:
                arg_kind = "use"
            for arg in list(node.args) + [k.value for k in node.keywords]:
                if isinstance(arg, ast.Name) and arg.id in candidates:
                    events.append(
                        [arg_kind, arg.id, arg.lineno, arg.col_offset, None]
                    )
                else:
                    scan(arg, in_finally)
            if isinstance(node.func, ast.Attribute):
                scan(node.func.value, in_finally)
            return
        if isinstance(node, ast.Name):
            if node.id in candidates:
                events.append(
                    ["use", node.id, node.lineno, node.col_offset, None]
                )
            return
        for child in ast.iter_child_nodes(node):
            scan(child, in_finally)

    for statement in fn.body:
        scan(statement, False)
    return summary


def build_summary(
    path: str, tree: ast.Module, suppressions: SuppressionIndex
) -> ModuleSummary:
    """Distill one parsed module into its :class:`ModuleSummary`."""
    module = module_name_for_path(path)
    resolver = _ModuleResolver(module, tree)
    detector = BlockingCallDetector()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            detector.see_import(node)
        elif isinstance(node, ast.ImportFrom):
            detector.see_import_from(node)

    # value-call -> assigned name, for tying `X = faults.point(...)` to
    # the later `X.fire()` sites.
    assigned_calls: Dict[int, str] = {}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
        ):
            assigned_calls[id(node.value)] = node.targets[0].id

    summary = ModuleSummary(path=path, module=module, suppressions=suppressions)
    fires: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "fire":
            # Covers X.fire() and bound-method aliases (f = X.fire).
            fire_chain = _attr_chain(node)
            if fire_chain is not None and len(fire_chain) >= 2:
                base = resolver.resolve(fire_chain[:-1])
                if base is not None:
                    fires.add(base)
            continue
        if not isinstance(node, ast.Call):
            continue
        chain = _attr_chain(node.func)
        if chain is None:
            continue
        metric = _metric_decl(node, chain, resolver)
        if metric is not None:
            summary.metrics.append(metric)
            continue
        if _is_seam_decl(chain, resolver):
            seam_name = _str_const(node.args[0]) if node.args else None
            if seam_name is not None:
                local = assigned_calls.get(id(node))
                var = resolver.resolve((local,)) if local else None
                summary.seams.append(
                    SeamDecl(seam_name, var, node.lineno, node.col_offset)
                )
            continue
        if chain[-1] == "FaultSpec":
            ref_name = _str_const(node.args[0]) if node.args else None
            if ref_name is None:
                for keyword in node.keywords:
                    if keyword.arg == "point":
                        ref_name = _str_const(keyword.value)
            if ref_name is not None:
                summary.spec_refs.append(
                    SpecRef(ref_name, node.lineno, node.col_offset)
                )
            continue
    summary.seam_fires = sorted(fires)

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{module}.{node.name}" if module else node.name
            summary.functions.append(
                _summarize_function(node, qualname, None, resolver, detector)
            )
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = (
                        f"{module}.{node.name}.{sub.name}"
                        if module
                        else f"{node.name}.{sub.name}"
                    )
                    summary.functions.append(
                        _summarize_function(
                            sub, qualname, node.name, resolver, detector
                        )
                    )
    return summary


# ---------------------------------------------------------------------------
# The project index and rule base
# ---------------------------------------------------------------------------


class ProjectIndex:
    """All module summaries of one lint run, with derived tables."""

    def __init__(self, summaries: Iterable[ModuleSummary]) -> None:
        self.modules: Dict[str, ModuleSummary] = {}
        for summary in summaries:
            self.modules[summary.path] = summary
        self.functions: Dict[str, FunctionSummary] = {}
        self.function_paths: Dict[str, str] = {}
        for path in sorted(self.modules):
            for fn in self.modules[path].functions:
                self.functions[fn.qualname] = fn
                self.function_paths[fn.qualname] = path


class ProjectRule(Rule):
    """Base class for cross-file rules.

    Subclasses implement :meth:`check`, calling ``report(path, line,
    col, message)`` for each finding; suppression pragmas of the target
    file are applied by the engine-side reporter.
    """

    is_project = True

    def check(self, index: ProjectIndex, report) -> None:
        raise NotImplementedError


def run_project_rules(index: ProjectIndex) -> List[Finding]:
    """Run every registered project rule over ``index``."""
    findings: Set[Finding] = set()
    for cls in registered_rules():
        if not cls.is_project:
            continue
        rule = cls()

        def report(path: str, line: int, col: int, message: str, _rule=rule) -> None:
            summary = index.modules.get(path)
            if summary is not None and summary.suppressions.is_suppressed(
                _rule.rule_id, line
            ):
                return
            findings.add(
                Finding(
                    path=path,
                    line=int(line),
                    col=int(col),
                    rule_id=_rule.rule_id,
                    severity=_rule.severity,
                    message=message,
                )
            )

        rule.check(index, report)
    return sorted(findings)


# ---------------------------------------------------------------------------
# RR011 — transitive blocking-call propagation
# ---------------------------------------------------------------------------


@register_rule
class TransitiveBlockingRule(ProjectRule):
    """Serve coroutines must not reach blocking primitives through helpers."""

    rule_id = "RR011"
    severity = "error"
    summary = (
        "serve coroutine calls a sync helper that transitively reaches a "
        "blocking primitive (full call chain in the finding)"
    )
    rationale = (
        "RR007 catches time.sleep() written inside a coroutine; it is "
        "blind to the same call three frames down a sync helper, which "
        "stalls the event loop just as completely.  The project call "
        "graph propagates 'may block' from the primitives up through "
        "every resolved sync call edge and flags the coroutine's call "
        "site with the witness chain, so the fix location (hand the "
        "helper to run_in_executor, or break the chain) is obvious.  "
        "Unresolvable edges (dynamic dispatch, callables passed as "
        "values) are dropped, not guessed at — the rule "
        "under-approximates like every other repro.lint rule."
    )

    def check(self, index: ProjectIndex, report) -> None:
        table = index.functions
        # qualname -> ("prim", description, path, line) | ("call", callee)
        witness: Dict[str, tuple] = {}
        changed = True
        while changed:
            changed = False
            for qualname, fn in table.items():
                if fn.is_async or qualname in witness:
                    continue
                if fn.blocking:
                    first = fn.blocking[0]
                    witness[qualname] = (
                        "prim",
                        first.described,
                        index.function_paths[qualname],
                        first.line,
                    )
                    changed = True
                    continue
                for call in fn.calls:
                    callee = table.get(call.target)
                    if (
                        callee is not None
                        and not callee.is_async
                        and call.target in witness
                    ):
                        witness[qualname] = ("call", call.target)
                        changed = True
                        break
        for path in sorted(index.modules):
            if "repro/serve/" not in path:
                continue
            for fn in index.modules[path].functions:
                if not fn.is_async:
                    continue
                for call in fn.calls:
                    callee = table.get(call.target)
                    if (
                        callee is None
                        or callee.is_async
                        or call.target not in witness
                    ):
                        continue
                    report(
                        path,
                        call.line,
                        call.col,
                        f"coroutine {fn.name}() calls {callee.name}(), "
                        "which blocks the event loop transitively: "
                        f"{self._chain(call.target, witness)}; run the "
                        "helper in the executor or break the chain",
                    )

    @staticmethod
    def _chain(start: str, witness: Dict[str, tuple]) -> str:
        parts = [start]
        seen = {start}
        current = start
        while True:
            entry = witness[current]
            if entry[0] == "prim":
                parts.append(f"{entry[1]} ({entry[2]}:{entry[3]})")
                break
            current = entry[1]
            if current in seen:
                parts.append("<cycle>")
                break
            seen.add(current)
            parts.append(current)
        return " -> ".join(parts)


# ---------------------------------------------------------------------------
# RR012 — shared-memory handle lifetimes
# ---------------------------------------------------------------------------


@register_rule
class SharedHandleLifetimeRule(ProjectRule):
    """``to_shared()`` handles are released exactly once, by their owner."""

    rule_id = "RR012"
    severity = "error"
    summary = (
        "shared-memory handle misuse: use-after-unlink, raw handle "
        "across submit(), segment leaked or released without "
        "exception safety"
    )
    rationale = (
        "A Graph.to_shared() handle owns a POSIX shared-memory segment: "
        "reading it after unlink() hands workers a name that no longer "
        "resolves, pickling the handle itself through submit() ships "
        "the wrong object (workers attach via the descriptor, which the "
        "SharedGraphRegistry owns), and a handle that is neither "
        "released nor handed off leaks the segment past process exit "
        "intent.  The escape analysis follows handles through "
        "wrapper functions project-wide (a helper that returns "
        "to_shared() is itself a handle source) and trusts ownership "
        "transfers — storing or returning a handle ends local "
        "responsibility — so every finding is a genuine lifetime bug."
    )

    def check(self, index: ProjectIndex, report) -> None:
        returners: Set[str] = {
            qualname
            for qualname, fn in index.functions.items()
            if fn.returns_handle
        }
        changed = True
        while changed:
            changed = False
            for qualname, fn in index.functions.items():
                if qualname in returners:
                    continue
                if any(target in returners for target in fn.return_targets):
                    returners.add(qualname)
                    changed = True
        for path in sorted(index.modules):
            for fn in index.modules[path].functions:
                self._check_function(fn, path, returners, report)

    @staticmethod
    def _check_function(
        fn: FunctionSummary, path: str, returners: Set[str], report
    ) -> None:
        live: Dict[str, Tuple[int, int]] = {}
        killed: Dict[str, Tuple[int, int, bool]] = {}
        escaped: Set[str] = set()
        used_while_live: Dict[str, int] = {}
        for kind, name, line, col, extra in fn.handle_events:
            creates = kind == "create" or (kind == "maybe" and extra in returners)
            if creates:
                if name in live and name not in killed and name not in escaped:
                    report(
                        path,
                        line,
                        col,
                        f"shared-memory handle {name!r} is rebound before "
                        "unlink(); the previous segment leaks",
                    )
                live[name] = (line, col)
                killed.pop(name, None)
                escaped.discard(name)
                used_while_live[name] = 0
            elif kind in ("maybe", "rebind"):
                if name in live and name not in killed and name not in escaped:
                    report(
                        path,
                        line,
                        col,
                        f"shared-memory handle {name!r} is rebound before "
                        "unlink(); the previous segment leaks",
                    )
                live.pop(name, None)
                killed.pop(name, None)
                escaped.discard(name)
            elif kind == "kill":
                if name in live and name not in killed:
                    killed[name] = (line, col, bool(extra))
            elif kind == "use":
                if name in killed:
                    report(
                        path,
                        line,
                        col,
                        f"shared-memory handle {name!r} is used after "
                        f"unlink() (line {killed[name][0]}); the segment "
                        "name no longer resolves for new attachments",
                    )
                elif name in live:
                    used_while_live[name] = used_while_live.get(name, 0) + 1
            elif kind == "submit":
                if name in killed:
                    report(
                        path,
                        line,
                        col,
                        f"shared-memory handle {name!r} crosses submit() "
                        f"after unlink() (line {killed[name][0]})",
                    )
                elif name in live:
                    report(
                        path,
                        line,
                        col,
                        f"shared-memory handle {name!r} crosses a submit() "
                        "boundary; ship the picklable descriptor "
                        "(SharedGraphRegistry.descriptor) and keep the "
                        "handle with its owner",
                    )
            elif kind == "escape":
                if name in killed:
                    report(
                        path,
                        line,
                        col,
                        f"shared-memory handle {name!r} escapes after "
                        f"unlink() (line {killed[name][0]}); the receiver "
                        "gets a dead segment name",
                    )
                elif name in live:
                    escaped.add(name)
            elif kind == "return":
                if name in killed:
                    report(
                        path,
                        line,
                        col,
                        f"returns shared-memory handle {name!r} after "
                        f"unlink() (line {killed[name][0]})",
                    )
                elif name in live:
                    escaped.add(name)
        for name, (line, col) in sorted(live.items()):
            if name in escaped:
                continue
            kill = killed.get(name)
            if kill is None:
                report(
                    path,
                    line,
                    col,
                    f"shared-memory handle {name!r} is neither unlinked "
                    "nor handed off on this path; the segment leaks past "
                    f"{fn.name}()",
                )
            elif not kill[2] and used_while_live.get(name, 0) > 0:
                report(
                    path,
                    kill[0],
                    kill[1],
                    f"unlink() of shared-memory handle {name!r} is not "
                    "exception-safe: work happens between to_shared() and "
                    "the release — move the unlink into a finally block",
                )


# ---------------------------------------------------------------------------
# RR013 — obs-series declaration drift
# ---------------------------------------------------------------------------


@register_rule
class ObsSeriesDriftRule(ProjectRule):
    """One metric name, one spec, everywhere in the tree."""

    rule_id = "RR013"
    severity = "error"
    summary = (
        "obs metric name re-declared with a conflicting type, label "
        "set, or buckets elsewhere in the tree"
    )
    rationale = (
        "obs metrics are get-or-create and process-wide: the runner and "
        "the pool deliberately declare repro_runner_chunks_total with "
        "one spec and share the series.  A second declaration with a "
        "different type or label set raises ValueError only when both "
        "modules happen to be imported together — typically in a worker "
        "hand-back or a cron-driven figure run, far from the edit that "
        "caused it.  The index sees every declaration at once and turns "
        "the latent import-order crash into a lint finding at the "
        "conflicting site."
    )

    def check(self, index: ProjectIndex, report) -> None:
        by_name: Dict[str, List[Tuple[MetricDecl, str]]] = {}
        for path in sorted(index.modules):
            for decl in index.modules[path].metrics:
                by_name.setdefault(decl.name, []).append((decl, path))
        for name in sorted(by_name):
            group = sorted(
                by_name[name], key=lambda item: (item[1], item[0].line, item[0].col)
            )
            base, base_path = group[0]
            for decl, path in group[1:]:
                conflicts = []
                if decl.kind != base.kind:
                    conflicts.append(f"type {decl.kind} vs {base.kind}")
                if (
                    decl.labels is not None
                    and base.labels is not None
                    and decl.labels != base.labels
                ):
                    conflicts.append(
                        f"labels {list(decl.labels)} vs {list(base.labels)}"
                    )
                if (
                    decl.buckets is not None
                    and base.buckets is not None
                    and "?" not in (decl.buckets, base.buckets)
                    and decl.buckets != base.buckets
                ):
                    conflicts.append("buckets differ")
                if conflicts:
                    report(
                        path,
                        decl.line,
                        decl.col,
                        f"metric {name!r} re-declared with a conflicting "
                        f"spec ({'; '.join(conflicts)}); first declared at "
                        f"{base_path}:{base.line} — the obs registry "
                        "raises ValueError when both modules load",
                    )


# ---------------------------------------------------------------------------
# RR014 — fault-seam consistency
# ---------------------------------------------------------------------------


@register_rule
class FaultSeamConsistencyRule(ProjectRule):
    """Every referenced seam exists; every declared seam fires."""

    rule_id = "RR014"
    severity = "error"
    summary = (
        "FaultSpec references an undeclared fault seam, or a declared "
        "seam has no .fire() site (orphan)"
    )
    rationale = (
        "Fault plans match seams by exact string name: a FaultSpec "
        "naming a seam nobody declares simply never fires, so the chaos "
        "test it belongs to silently stops testing anything.  The "
        "reverse is as bad — a faults.point() whose fire() call was "
        "refactored away keeps appearing in the catalog and in "
        "generated chaos plans, giving coverage reports a seam that "
        "can no longer inject.  Both directions need the whole tree at "
        "once (declaration, firing, and reference usually live in three "
        "different files); the check stays silent on indexes with no "
        "seam declarations at all, so partial-tree runs do not produce "
        "spurious unknown-seam findings."
    )

    def check(self, index: ProjectIndex, report) -> None:
        declared: Dict[str, List[Tuple[SeamDecl, str]]] = {}
        fired_vars: Set[str] = set()
        for path in sorted(index.modules):
            summary = index.modules[path]
            fired_vars.update(summary.seam_fires)
            for decl in summary.seams:
                declared.setdefault(decl.name, []).append((decl, path))
        if not declared:
            return
        for path in sorted(index.modules):
            for ref in index.modules[path].spec_refs:
                if ref.name not in declared:
                    report(
                        path,
                        ref.line,
                        ref.col,
                        f"FaultSpec names unknown fault seam {ref.name!r}; "
                        "no faults.point() in the linted tree declares it, "
                        "so this spec can never fire",
                    )
        for name in sorted(declared):
            sites = declared[name]
            if any(
                decl.var is not None and decl.var in fired_vars
                for decl, _path in sites
            ):
                continue
            decl, path = sorted(sites, key=lambda item: (item[1], item[0].line))[0]
            report(
                path,
                decl.line,
                decl.col,
                f"fault seam {name!r} is declared but never fired "
                "(no .fire() site in the linted tree); orphaned seams "
                "give chaos plans false coverage",
            )
