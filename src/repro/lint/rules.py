"""The built-in ``repro.lint`` per-file rules (RR001–RR010, RR015, RR016).

Each rule encodes one invariant the Monte-Carlo engine's correctness
arguments rest on; `docs/static-analysis.md` is the narrative version.
Rules are deliberately narrow: they under-approximate (an alias the
tracker loses is missed, not guessed at) so that a finding is always
worth reading — the lint gate treats every finding as fatal.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.engine import FileContext, Rule, register_rule

__all__ = [
    "BlockingCallDetector",
    "UnseededRandomRule",
    "CachedForestMutationRule",
    "DtypeDisciplineRule",
    "OverbroadExceptRule",
    "UnregisteredFigureRule",
    "MutableDefaultRule",
    "BlockingAsyncCallRule",
    "RawClockReadRule",
    "ObsClockReadRule",
    "AdHocProcessPoolRule",
    "UnregisteredTreeBuilderRule",
]

_INT32_MAX = 2**31 - 1


def _attr_chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` as ``("a", "b", "c")``; None for non-name chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _pre_order(nodes: Sequence[ast.AST], skip_scopes: bool = True):
    """Source-ordered walk of ``nodes`` and their descendants.

    With ``skip_scopes`` the walk does not descend into nested
    function/class definitions — their bodies are separate scopes and
    are analyzed on their own visit.
    """
    for node in nodes:
        yield node
        if skip_scopes and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            continue
        yield from _pre_order(list(ast.iter_child_nodes(node)), skip_scopes)


# ---------------------------------------------------------------------------
# RR001 — unseeded / global randomness
# ---------------------------------------------------------------------------


@register_rule
class UnseededRandomRule(Rule):
    """Every random draw must flow through ``repro.utils.rng``."""

    rule_id = "RR001"
    severity = "error"
    summary = (
        "global/np.random usage outside utils/rng.py — route randomness "
        "through ensure_rng()/spawn_rngs()"
    )
    rationale = (
        "Batched/scalar engine equivalence and worker-count invariance "
        "are proved stream-by-stream: every draw comes from a seeded "
        "per-source generator.  One np.random.* or stdlib-random call "
        "taps hidden global state and silently breaks reproducibility."
    )

    #: Files allowed to touch numpy's generator constructors directly.
    _ALLOWED_SUFFIXES = ("repro/utils/rng.py",)
    #: Deterministic seed containers / types, not draw sources.
    _STATELESS = {
        "SeedSequence",
        "Generator",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }

    def applies_to(self, path: str) -> bool:
        return not path.endswith(self._ALLOWED_SUFFIXES)

    def begin_file(self, ctx: FileContext) -> None:
        self._random_modules: Set[str] = set()
        self._random_names: Set[str] = set()

    def visit_Import(self, node: ast.Import, ctx: FileContext) -> None:
        for alias in node.names:
            if alias.name == "random":
                self._random_modules.add(alias.asname or "random")

    def visit_ImportFrom(self, node: ast.ImportFrom, ctx: FileContext) -> None:
        if node.module not in ("random", "numpy.random"):
            return
        for alias in node.names:
            if alias.name in self._STATELESS:
                continue
            self._random_names.add(alias.asname or alias.name)

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        chain = _attr_chain(node.func)
        if chain is None:
            return
        if (
            len(chain) == 3
            and chain[0] in ("np", "numpy")
            and chain[1] == "random"
            and chain[2] not in self._STATELESS
        ):
            ctx.report(
                self,
                node,
                f"call to {'.'.join(chain)}() bypasses the seeded-stream "
                "helpers; use repro.utils.rng.ensure_rng/spawn_rngs",
            )
        elif len(chain) == 2 and chain[0] in self._random_modules:
            ctx.report(
                self,
                node,
                f"stdlib random call {'.'.join(chain)}() uses hidden global "
                "state; use a numpy Generator from repro.utils.rng",
            )
        elif len(chain) == 1 and (
            chain[0] == "default_rng" or chain[0] in self._random_names
        ):
            ctx.report(
                self,
                node,
                f"bare {chain[0]}() constructs an unmanaged generator; use "
                "repro.utils.rng.ensure_rng",
            )


# ---------------------------------------------------------------------------
# RR002 — cached forests are shared immutable state
# ---------------------------------------------------------------------------

#: ndarray methods that mutate in place.
_MUTATING_METHODS = {"sort", "resize", "fill", "partition", "put", "itemset"}
#: ShortestPathForest array attributes (the cached state itself); the
#: kept preorder tables are a tuple of arrays, so a subscript of it is
#: one of them.
_FOREST_ARRAYS = ("dist", "parent", "preorder")


@register_rule
class CachedForestMutationRule(Rule):
    """Arrays obtained from a forest cache must never be written."""

    rule_id = "RR002"
    severity = "error"
    summary = (
        "ForestCache-returned array mutated, thawed, or returned as a "
        "view from a public function"
    )
    rationale = (
        "A cached forest is shared by every driver, bench, and worker "
        "that ever asks for the same (graph, source) pair.  Writing "
        "through it — or handing a writable view across a public API — "
        "corrupts every later reader; the runtime writeable=False guard "
        "catches this late, the rule catches it at review time."
    )

    def visit_FunctionDef(self, node: ast.FunctionDef, ctx: FileContext) -> None:
        self._analyze(node, ctx)

    def visit_AsyncFunctionDef(
        self, node: ast.AsyncFunctionDef, ctx: FileContext
    ) -> None:
        self._analyze(node, ctx)

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _mentions_cache(node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and "cache" in sub.id.lower():
                return True
            if isinstance(sub, ast.Attribute) and "cache" in sub.attr.lower():
                return True
        return False

    @classmethod
    def _is_cache_getter(cls, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("forest", "get")
            and cls._mentions_cache(node.func.value)
        )

    @classmethod
    def _is_view(
        cls, node: ast.AST, forests: Set[str], views: Set[str]
    ) -> bool:
        """Whether ``node`` evaluates to an array aliasing cached state."""
        if isinstance(node, ast.Name):
            return node.id in views
        if isinstance(node, ast.Attribute) and node.attr in _FOREST_ARRAYS:
            value = node.value
            if isinstance(value, ast.Name) and value.id in forests:
                return True
            return cls._is_cache_getter(value)
        if isinstance(node, ast.Subscript):
            return cls._is_view(node.value, forests, views)
        return False

    @staticmethod
    def _thaws(node: ast.Call) -> bool:
        """``x.setflags(...)`` calls that re-enable writing."""
        for keyword in node.keywords:
            if keyword.arg == "write" and isinstance(keyword.value, ast.Constant):
                return bool(keyword.value.value)
        if node.args and isinstance(node.args[0], ast.Constant):
            return bool(node.args[0].value)
        return False

    def _analyze(self, fn: ast.AST, ctx: FileContext) -> None:
        forests: Set[str] = set()
        views: Set[str] = set()
        public = not fn.name.startswith("_")
        for node in _pre_order(fn.body):
            if isinstance(node, ast.Assign):
                self._handle_assign(node, ctx, forests, views)
            elif isinstance(node, ast.AugAssign):
                if self._is_view(node.target, forests, views):
                    ctx.report(
                        self,
                        node,
                        "augmented assignment writes through a cached "
                        "forest array; use borrow_mutable() for a copy",
                    )
            elif isinstance(node, ast.Call):
                self._handle_call(node, ctx, forests, views)
            elif isinstance(node, ast.Return) and node.value is not None:
                if public and self._is_view(node.value, forests, views):
                    ctx.report(
                        self,
                        node,
                        f"public function {fn.name}() returns a view of a "
                        "cached forest array; return a copy instead",
                    )

    def _handle_assign(
        self,
        node: ast.Assign,
        ctx: FileContext,
        forests: Set[str],
        views: Set[str],
    ) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript) and self._is_view(
                target.value, forests, views
            ):
                ctx.report(
                    self,
                    node,
                    "item assignment writes through a cached forest array; "
                    "use borrow_mutable() for a copy",
                )
        if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
            return
        name = node.targets[0].id
        value = node.value
        if self._is_cache_getter(value):
            forests.add(name)
            views.discard(name)
        elif self._is_view(value, forests, views):
            views.add(name)
            forests.discard(name)
        else:
            # Rebinding (including to an explicit .copy()) ends tracking.
            forests.discard(name)
            views.discard(name)

    def _handle_call(
        self,
        node: ast.Call,
        ctx: FileContext,
        forests: Set[str],
        views: Set[str],
    ) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if not self._is_view(func.value, forests, views):
            return
        if func.attr in _MUTATING_METHODS:
            ctx.report(
                self,
                node,
                f".{func.attr}() mutates a cached forest array in place; "
                "use borrow_mutable() for a copy",
            )
        elif func.attr == "setflags" and self._thaws(node):
            ctx.report(
                self,
                node,
                "setflags(write=True) thaws a cached forest array shared "
                "with other callers",
            )


# ---------------------------------------------------------------------------
# RR003 — int32 hot-path dtype discipline
# ---------------------------------------------------------------------------


@register_rule
class DtypeDisciplineRule(Rule):
    """No implicit dtypes where int32 scratch is in play."""

    rule_id = "RR003"
    severity = "error"
    summary = (
        "dtype-mixing hazard near declared-int32 scratch (np.arange "
        "without dtype, float/oversized stores into int32 arrays)"
    )
    rationale = (
        "The BFS kernel's dist/parent, the tree counter's int32 views "
        "of them and a forest's preorder tables stay int32 to halve memory "
        "traffic; np.arange defaults to the platform int and a float or "
        "wide store silently upcasts or wraps, so the engines drift apart on "
        "exactly the large instances the equivalence suite cannot "
        "afford to cover."
    )

    def begin_file(self, ctx: FileContext) -> None:
        # Local declarations are per function scope (two functions may
        # reuse a name like ``dist`` for different dtypes); ``self.x``
        # attribute declarations are file-wide (set in __init__, used in
        # other methods).  Scope key: id() of the innermost function
        # node, or None at module level.
        self._locals: Dict[Optional[int], Set[str]] = {}
        self._attrs: Set[str] = set()
        self._aliases: List[Tuple[Optional[int], str, Tuple[str, str]]] = []
        self._arange_candidates: List[ast.Call] = []
        self._store_candidates: List[
            Tuple[Optional[int], Tuple[str, str], ast.AST, str]
        ] = []

    @staticmethod
    def _scope(ctx: FileContext) -> Optional[int]:
        stack = ctx.function_stack
        return id(stack[-1]) if stack else None

    # -- dtype spelling --------------------------------------------------

    @staticmethod
    def _is_int32_dtype(node: ast.AST) -> bool:
        if isinstance(node, ast.Constant) and node.value == "int32":
            return True
        chain = _attr_chain(node)
        return chain is not None and chain[-1] == "int32"

    @classmethod
    def _declares_int32(cls, value: ast.AST) -> bool:
        """``np.zeros(..., dtype=np.int32)`` / ``x.astype(np.int32)``."""
        if not isinstance(value, ast.Call):
            return False
        for keyword in value.keywords:
            if keyword.arg == "dtype" and cls._is_int32_dtype(keyword.value):
                return True
        if (
            isinstance(value.func, ast.Attribute)
            and value.func.attr == "astype"
            and value.args
            and cls._is_int32_dtype(value.args[0])
        ):
            return True
        return False

    @staticmethod
    def _target_key(target: ast.AST) -> Optional[Tuple[str, str]]:
        """``("local", name)`` for ``x``, ``("attr", name)`` for ``o.x``."""
        if isinstance(target, ast.Name):
            return ("local", target.id)
        if isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ):
            return ("attr", target.attr)
        return None

    # -- visitors --------------------------------------------------------

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        chain = _attr_chain(node.func)
        if chain is None or chain[-1] != "arange":
            return
        if len(chain) == 2 and chain[0] not in ("np", "numpy"):
            return
        if not any(keyword.arg == "dtype" for keyword in node.keywords):
            self._arange_candidates.append(node)

    def visit_Assign(self, node: ast.Assign, ctx: FileContext) -> None:
        scope = self._scope(ctx)
        if len(node.targets) == 1:
            key = self._target_key(node.targets[0])
            if key is not None:
                if self._declares_int32(node.value):
                    if key[0] == "attr":
                        self._attrs.add(key[1])
                    else:
                        self._locals.setdefault(scope, set()).add(key[1])
                elif key[0] == "local" and isinstance(
                    node.value, (ast.Name, ast.Attribute)
                ):
                    source = self._target_key(node.value)
                    if source is not None:
                        self._aliases.append((scope, key[1], source))
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                base = self._target_key(target.value)
                if base is not None:
                    self._record_store(scope, base, node.value, node)

    def visit_AugAssign(self, node: ast.AugAssign, ctx: FileContext) -> None:
        if isinstance(node.target, ast.Subscript):
            base = self._target_key(node.target.value)
        else:
            base = self._target_key(node.target)
        if base is not None:
            self._record_store(self._scope(ctx), base, node.value, node)

    def _record_store(
        self,
        scope: Optional[int],
        base: Tuple[str, str],
        value: ast.AST,
        node: ast.AST,
    ) -> None:
        for sub in ast.walk(value):
            if isinstance(sub, ast.Constant):
                if isinstance(sub.value, float):
                    self._store_candidates.append(
                        (scope, base, node, "a float value")
                    )
                    return
                if (
                    isinstance(sub.value, int)
                    and not isinstance(sub.value, bool)
                    and abs(sub.value) > _INT32_MAX
                ):
                    self._store_candidates.append(
                        (scope, base, node, "an int32-overflowing constant")
                    )
                    return
            if isinstance(sub, ast.Call):
                chain = _attr_chain(sub.func)
                if (
                    chain is not None
                    and chain[-1] in ("zeros", "empty", "ones", "full")
                    and chain[0] in ("np", "numpy")
                    and not any(k.arg == "dtype" for k in sub.keywords)
                ):
                    self._store_candidates.append(
                        (scope, base, node,
                         f"np.{chain[-1]}() with the default dtype")
                    )
                    return

    def _declared(self, scope: Optional[int], key: Tuple[str, str]) -> bool:
        if key[0] == "attr":
            return key[1] in self._attrs
        return key[1] in self._locals.get(scope, ())

    def end_file(self, ctx: FileContext) -> None:
        # Close declared-int32 over simple aliases within each scope
        # (``parent = self._parent32``).
        changed = True
        while changed:
            changed = False
            for scope, alias, source in self._aliases:
                if self._declared(scope, source):
                    local = self._locals.setdefault(scope, set())
                    if alias not in local:
                        local.add(alias)
                        changed = True
        if not self._attrs and not any(self._locals.values()):
            return
        for node in self._arange_candidates:
            ctx.report(
                self,
                node,
                "np.arange without an explicit dtype in a module with "
                "int32 scratch (the platform default poisons int32 math)",
            )
        for scope, base, node, what in self._store_candidates:
            if self._declared(scope, base):
                ctx.report(
                    self,
                    node,
                    f"stores {what} into declared-int32 scratch {base[1]!r}",
                )


# ---------------------------------------------------------------------------
# RR004 — swallowed exceptions
# ---------------------------------------------------------------------------

_LOGGING_NAMES = {"logging", "logger", "log", "warnings"}


@register_rule
class OverbroadExceptRule(Rule):
    """Overbroad handlers must re-raise or at least log."""

    rule_id = "RR004"
    severity = "warning"
    summary = "bare/overbroad except that neither re-raises nor logs"
    rationale = (
        "A swallowed exception in a Monte-Carlo sweep turns a crash "
        "into a silently skewed estimate — exactly the sampling "
        "artifact the paper's critics warn about.  Catch the narrow "
        "exception, or re-raise/log in the handler."
    )

    def visit_ExceptHandler(
        self, node: ast.ExceptHandler, ctx: FileContext
    ) -> None:
        described = self._overbroad(node.type)
        if described is None:
            return
        for sub in _pre_order(node.body, skip_scopes=True):
            if isinstance(sub, ast.Raise):
                return
            if isinstance(sub, ast.Call):
                chain = _attr_chain(sub.func)
                if chain is not None and (
                    chain[0] in _LOGGING_NAMES or chain[-1] == "print"
                ):
                    return
        ctx.report(
            self,
            node,
            f"{described} swallows errors without re-raise or logging; "
            "catch the specific exception or handle it visibly",
        )

    @staticmethod
    def _overbroad(type_node: Optional[ast.AST]) -> Optional[str]:
        if type_node is None:
            return "bare except:"
        names = []
        nodes = (
            list(type_node.elts)
            if isinstance(type_node, ast.Tuple)
            else [type_node]
        )
        for sub in nodes:
            chain = _attr_chain(sub)
            if chain is not None and chain[-1] in ("Exception", "BaseException"):
                names.append(chain[-1])
        if names:
            return f"except {'/'.join(names)}"
        return None


# ---------------------------------------------------------------------------
# RR005 — figure modules must register their drivers
# ---------------------------------------------------------------------------


@register_rule
class UnregisteredFigureRule(Rule):
    """Figure modules must register with the figure registry."""

    rule_id = "RR005"
    severity = "warning"
    summary = (
        "module under experiments/figures/ defines run_* drivers but "
        "never calls register_figure"
    )
    rationale = (
        "The figure registry is how `repro-mcast all`, the report "
        "builder, and future tooling enumerate what can be reproduced; "
        "an unregistered driver is invisible to all of them and decays "
        "unexercised."
    )

    _EXEMPT_BASENAMES = ("__init__.py", "base.py", "registry.py")

    def applies_to(self, path: str) -> bool:
        if "experiments/figures/" not in path:
            return False
        return path.rsplit("/", 1)[-1] not in self._EXEMPT_BASENAMES

    def begin_file(self, ctx: FileContext) -> None:
        self._first_driver: Optional[ast.FunctionDef] = None
        self._registers = False

    def visit_FunctionDef(self, node: ast.FunctionDef, ctx: FileContext) -> None:
        if (
            ctx.at_module_level()
            and node.name.startswith("run_")
            and self._first_driver is None
        ):
            self._first_driver = node

    def visit_Name(self, node: ast.Name, ctx: FileContext) -> None:
        if node.id == "register_figure":
            self._registers = True

    def visit_Attribute(self, node: ast.Attribute, ctx: FileContext) -> None:
        if node.attr == "register_figure":
            self._registers = True

    def end_file(self, ctx: FileContext) -> None:
        if self._first_driver is not None and not self._registers:
            ctx.report(
                self,
                self._first_driver,
                f"figure module defines {self._first_driver.name}() but "
                "never registers a driver with "
                "repro.experiments.figures.registry.register_figure",
            )


# ---------------------------------------------------------------------------
# RR006 — mutable default arguments
# ---------------------------------------------------------------------------

_MUTABLE_CONSTRUCTORS = {"list", "dict", "set", "bytearray", "defaultdict"}


@register_rule
class MutableDefaultRule(Rule):
    """No mutable default arguments."""

    rule_id = "RR006"
    severity = "warning"
    summary = "mutable default argument (list/dict/set literal or call)"
    rationale = (
        "A mutable default is evaluated once and shared across calls — "
        "state leaks between supposedly independent experiment runs, "
        "the same bug class the forest-cache guards exist for.  Default "
        "to None (or an immutable tuple) and construct inside."
    )

    def visit_FunctionDef(self, node: ast.FunctionDef, ctx: FileContext) -> None:
        self._check(node, ctx)

    def visit_AsyncFunctionDef(
        self, node: ast.AsyncFunctionDef, ctx: FileContext
    ) -> None:
        self._check(node, ctx)

    def visit_Lambda(self, node: ast.Lambda, ctx: FileContext) -> None:
        self._check(node, ctx)

    def _check(self, node: ast.AST, ctx: FileContext) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            described = self._mutable(default)
            if described is not None:
                name = getattr(node, "name", "<lambda>")
                ctx.report(
                    self,
                    default,
                    f"{name}() uses {described} as a default argument; "
                    "shared across calls — default to None instead",
                )

    @staticmethod
    def _mutable(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.List):
            return "a list literal"
        if isinstance(node, ast.Dict):
            return "a dict literal"
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            if chain is not None and chain[-1] in _MUTABLE_CONSTRUCTORS:
                return f"{chain[-1]}()"
        return None


# ---------------------------------------------------------------------------
# RR007 — no blocking calls inside the serving layer's coroutines
# ---------------------------------------------------------------------------

#: Modules whose direct calls block the event loop.
_BLOCKING_MODULES = {"time", "subprocess", "socket"}
#: Blocking functions importable by bare name, keyed by home module.
_BLOCKING_FROM_IMPORTS = {
    ("time", "sleep"): "time.sleep",
    ("subprocess", "run"): "subprocess.run",
    ("subprocess", "call"): "subprocess.call",
    ("subprocess", "check_call"): "subprocess.check_call",
    ("subprocess", "check_output"): "subprocess.check_output",
    ("subprocess", "Popen"): "subprocess.Popen",
    ("socket", "create_connection"): "socket.create_connection",
    ("socket", "getaddrinfo"): "socket.getaddrinfo",
    ("urllib.request", "urlopen"): "urllib.request.urlopen",
}
#: ``time`` attributes that do NOT block (clock reads are fine).
_TIME_NONBLOCKING = {
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
    "time",
    "time_ns",
    "thread_time",
    "thread_time_ns",
    "gmtime",
    "localtime",
    "strftime",
    "strptime",
    "mktime",
    "ctime",
    "asctime",
}


class BlockingCallDetector:
    """Import-aware recognition of event-loop-blocking calls.

    Shared by RR007 (direct blocking calls in serve coroutines) and the
    project indexer behind RR011 (the same primitives reached
    transitively through sync helpers) so both layers agree on what
    "blocking" means.  Feed it every Import/ImportFrom in the file, then
    ask :meth:`describe` about each call.
    """

    def __init__(self) -> None:
        # module alias -> canonical module ("import time as t")
        self._modules: Dict[str, str] = {}
        # bare name -> dotted description ("from time import sleep")
        self._names: Dict[str, str] = {}

    def see_import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "urllib.request":
                # Unaliased dotted imports are matched on the full
                # ``urllib.request.urlopen`` chain in describe().
                if alias.asname is not None:
                    self._modules[alias.asname] = "urllib.request"
                continue
            root = alias.name.split(".", 1)[0]
            if root in _BLOCKING_MODULES:
                self._modules[alias.asname or root] = root

    def see_import_from(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            described = _BLOCKING_FROM_IMPORTS.get((node.module, alias.name))
            if described is not None:
                self._names[alias.asname or alias.name] = described

    def describe(self, node: ast.Call) -> Optional[str]:
        """Human-readable name of the blocking primitive, or None."""
        chain = _attr_chain(node.func)
        if chain is None:
            return None
        if len(chain) == 1:
            if chain[0] == "open":
                return "built-in open()"
            described = self._names.get(chain[0])
            return f"{described}()" if described else None
        # ``urllib.request.urlopen`` via plain ``import urllib.request``.
        if chain[:2] == ("urllib", "request") and len(chain) == 3:
            return f"urllib.request.{chain[2]}()"
        module = self._modules.get(chain[0])
        if module is None:
            return None
        if module == "time":
            if chain[-1] in _TIME_NONBLOCKING:
                return None
            return f"time.{chain[-1]}()"
        return f"{module}.{chain[-1]}()"


@register_rule
class BlockingAsyncCallRule(Rule):
    """No synchronous sleeps, sockets, files, or subprocesses in handlers."""

    rule_id = "RR007"
    severity = "error"
    summary = (
        "blocking call (time.sleep, sync socket/file I/O, subprocess) "
        "inside an async def in repro/serve/"
    )
    rationale = (
        "The serving layer is one event loop; a single blocking call in "
        "a coroutine stalls every in-flight request at once — the "
        "tail-latency failure the EstimatorTable/coalescing design "
        "exists to prevent.  Blocking work belongs on the executor "
        "(loop.run_in_executor) or behind an awaitable.  Helpers that "
        "block only transitively are RR011's whole-program territory; "
        "this rule flags the direct calls."
    )

    def applies_to(self, path: str) -> bool:
        return "repro/serve/" in path

    def begin_file(self, ctx: FileContext) -> None:
        self._detector = BlockingCallDetector()

    def visit_Import(self, node: ast.Import, ctx: FileContext) -> None:
        self._detector.see_import(node)

    def visit_ImportFrom(self, node: ast.ImportFrom, ctx: FileContext) -> None:
        self._detector.see_import_from(node)

    def visit_AsyncFunctionDef(
        self, node: ast.AsyncFunctionDef, ctx: FileContext
    ) -> None:
        # Nested sync defs are skipped: defining one does not block, and
        # whether it is ever called from the coroutine is beyond an
        # under-approximating rule.  Nested async defs get their own
        # visit.
        for sub in _pre_order(node.body, skip_scopes=True):
            if isinstance(sub, ast.Call):
                described = self._detector.describe(sub)
                if described is not None:
                    ctx.report(
                        self,
                        sub,
                        f"{described} blocks the event loop inside "
                        f"coroutine {node.name}(); await an async "
                        "equivalent or use loop.run_in_executor",
                    )


# ---------------------------------------------------------------------------
# RR008 — no raw clock reads in the serving layer
# ---------------------------------------------------------------------------

#: ``time`` attributes that read a clock (and so bypass the injected one).
_CLOCK_READS = {
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "time",
    "time_ns",
}


@register_rule
class RawClockReadRule(Rule):
    """Serving code reads the injected clock, never ``time.*`` directly."""

    rule_id = "RR008"
    severity = "error"
    summary = (
        "raw time.monotonic()/time.time()/perf_counter() call in "
        "repro/serve/ — read the service's injected clock instead"
    )
    rationale = (
        "Every timing decision in the serving layer (TTL expiry, "
        "deadlines, table staleness, latency histograms) flows through "
        "one injected clock so VirtualClock tests control time "
        "deterministically.  A direct time.* read is invisible to that "
        "clock: the code works in production and silently diverges "
        "under virtual time — exactly the flakiness the seam removes.  "
        "References (e.g. a ``clock=time.monotonic`` default) are fine; "
        "only calls are flagged."
    )

    def applies_to(self, path: str) -> bool:
        return "repro/serve/" in path

    def begin_file(self, ctx: FileContext) -> None:
        # module alias -> "time" ("import time as t")
        self._time_aliases: Set[str] = set()
        # bare name -> original time attribute ("from time import monotonic")
        self._clock_names: Dict[str, str] = {}

    def visit_Import(self, node: ast.Import, ctx: FileContext) -> None:
        for alias in node.names:
            if alias.name == "time":
                self._time_aliases.add(alias.asname or "time")

    def visit_ImportFrom(self, node: ast.ImportFrom, ctx: FileContext) -> None:
        if node.module != "time":
            return
        for alias in node.names:
            if alias.name in _CLOCK_READS:
                self._clock_names[alias.asname or alias.name] = alias.name

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        chain = _attr_chain(node.func)
        if chain is None:
            return
        if len(chain) == 1:
            read = self._clock_names.get(chain[0])
        elif len(chain) == 2 and chain[0] in self._time_aliases:
            read = chain[1] if chain[1] in _CLOCK_READS else None
        else:
            read = None
        if read is not None:
            ctx.report(
                self,
                node,
                f"time.{read}() bypasses the injected clock; call the "
                "service clock (self._clock() / the clock= hook) so "
                "virtual-time tests stay deterministic",
            )


# ---------------------------------------------------------------------------
# RR009 — instrumented modules time through repro.obs, not time.*
# ---------------------------------------------------------------------------

#: Path fragments of the modules instrumented by the observability
#: layer.  ``repro/obs/`` itself is the sanctioned owner of the clock
#: (its collector seam is how VirtualClock reaches every span) and
#: ``repro/serve/`` stays under RR008's injected-clock contract.
_OBS_INSTRUMENTED = ("repro/experiments/", "repro/multicast/", "repro/graph/")


@register_rule
class ObsClockReadRule(Rule):
    """Instrumented modules read time through repro.obs spans only."""

    rule_id = "RR009"
    severity = "error"
    summary = (
        "raw time.*/perf_counter() call in an obs-instrumented module "
        "(repro/experiments, repro/multicast, repro/graph) — wrap the "
        "work in a repro.obs span instead"
    )
    rationale = (
        "The observability layer gives the runner, samplers, caches, "
        "and figure drivers exactly one timing seam: spans read the "
        "collector's injectable clock, so chaos tests swap in a "
        "VirtualClock and traces stay deterministic, and the "
        "samples/sec gauges always agree with the spans they summarize. "
        " A raw time.* read reintroduces an invisible second clock — "
        "timings that drift from the trace and flake under virtual "
        "time.  References (storing ``time.perf_counter`` as a default "
        "clock callable) are fine; only calls are flagged."
    )

    def applies_to(self, path: str) -> bool:
        if "repro/obs/" in path:
            return False
        return any(fragment in path for fragment in _OBS_INSTRUMENTED)

    def begin_file(self, ctx: FileContext) -> None:
        self._time_aliases: Set[str] = set()
        self._clock_names: Dict[str, str] = {}

    def visit_Import(self, node: ast.Import, ctx: FileContext) -> None:
        for alias in node.names:
            if alias.name == "time":
                self._time_aliases.add(alias.asname or "time")

    def visit_ImportFrom(self, node: ast.ImportFrom, ctx: FileContext) -> None:
        if node.module != "time":
            return
        for alias in node.names:
            if alias.name in _CLOCK_READS:
                self._clock_names[alias.asname or alias.name] = alias.name

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        chain = _attr_chain(node.func)
        if chain is None:
            return
        if len(chain) == 1:
            read = self._clock_names.get(chain[0])
        elif len(chain) == 2 and chain[0] in self._time_aliases:
            read = chain[1] if chain[1] in _CLOCK_READS else None
        else:
            read = None
        if read is not None:
            ctx.report(
                self,
                node,
                f"time.{read}() is a second, untraceable clock; bracket "
                "the timed work in repro.obs.span(...) (its collector "
                "clock is the injectable seam) and read span.duration",
            )


# ---------------------------------------------------------------------------
# RR010 — process fan-out goes through the persistent pool
# ---------------------------------------------------------------------------


@register_rule
class AdHocProcessPoolRule(Rule):
    """Hot paths use repro.experiments.pool, not ad-hoc executors."""

    rule_id = "RR010"
    severity = "error"
    summary = (
        "per-call ProcessPoolExecutor construction or a Graph pickled "
        "across a submit() boundary — route fan-out through "
        "repro.experiments.pool"
    )
    rationale = (
        "Process fan-out pays its fixed costs once per *pool* and once "
        "per *topology*: the persistent WorkerPool amortizes worker "
        "spawn across sweeps, and shared-memory descriptors replace "
        "per-task CSR pickling.  An executor constructed inside a "
        "function resurrects the per-sweep spin-up that once made four "
        "workers slower than one, and a graph argument to submit() "
        "re-ships the whole topology on every task.  Both belong behind "
        "repro.experiments.pool (get_pool / SharedGraphRegistry).  The "
        "graph check is a name heuristic: only submit() arguments whose "
        "terminal identifier contains 'graph' are flagged."
    )

    #: The one module allowed to own executors: the pool itself.
    _POOL_OWNERS = ("repro/experiments/pool.py",)

    def applies_to(self, path: str) -> bool:
        return "repro/" in path and not path.endswith(self._POOL_OWNERS)

    def begin_file(self, ctx: FileContext) -> None:
        self._executor_names: Set[str] = set()

    def visit_ImportFrom(self, node: ast.ImportFrom, ctx: FileContext) -> None:
        if node.module == "concurrent.futures":
            for alias in node.names:
                if alias.name == "ProcessPoolExecutor":
                    self._executor_names.add(alias.asname or alias.name)

    @staticmethod
    def _terminal_name(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return None

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        chain = _attr_chain(node.func)
        if chain is None:
            return
        constructs_executor = chain[-1] == "ProcessPoolExecutor" and (
            len(chain) > 1 or chain[0] in self._executor_names
        )
        if constructs_executor and not ctx.at_module_level():
            ctx.report(
                self,
                node,
                "ProcessPoolExecutor constructed per call — workers "
                "re-spawn on every invocation; use the persistent "
                "repro.experiments.pool.get_pool() instead",
            )
            return
        if chain[-1] != "submit" or len(chain) < 2:
            return
        # args[0] is the callable; only payload arguments are checked.
        payload = list(node.args[1:]) + [kw.value for kw in node.keywords]
        for arg in payload:
            name = self._terminal_name(arg)
            if name is not None and "graph" in name.lower():
                ctx.report(
                    self,
                    arg,
                    f"{name!r} crosses the submit() boundary by pickle — "
                    "the whole CSR re-ships on every task; publish it "
                    "once (Graph.to_shared / SharedGraphRegistry) and "
                    "submit the descriptor",
                )


# --------------------------------------------------------------------------
# RR015 — serving state must not cross a process spawn boundary


@register_rule
class ServiceAcrossSpawnRule(Rule):
    """ServerApp/EstimationService objects must not be spawned across."""

    rule_id = "RR015"
    severity = "error"
    summary = (
        "a ServerApp or EstimationService crosses a process spawn "
        "boundary (Process(...) / submit()) — ship a FleetWorkerSpec or "
        "TableStoreDescriptor and rebuild the service in-worker"
    )
    rationale = (
        "A live service object is a bundle of process-local state: an "
        "asyncio server and its connection tasks, a response cache with "
        "coalescing futures, shared-memory table views, metric "
        "registries.  None of that survives a pickle round-trip — it "
        "either fails outright or, worse, silently re-imports into a "
        "fresh object whose caches, tables, and counters no longer have "
        "anything to do with the parent's.  The fleet's contract is "
        "that only picklable *recipes* cross the boundary "
        "(FleetWorkerSpec, ServiceConfig, TableStoreDescriptor) and "
        "each worker constructs its own service from them.  Detection "
        "is deliberately narrow: names bound to EstimationService(...) "
        "or ServerApp(...) calls, direct constructor expressions, and "
        "a terminal-name heuristic ('service'/'server_app') for "
        "instances the tracker cannot see being built."
    )

    _SERVICE_CLASSES = ("EstimationService", "ServerApp")
    _NAME_HINTS = ("service", "server_app")

    def applies_to(self, path: str) -> bool:
        return "repro/" in path

    def begin_file(self, ctx: FileContext) -> None:
        #: imported-as aliases of the service classes, local name → class
        self._class_aliases: Dict[str, str] = {}
        #: variables assigned from a tracked constructor, name → class
        self._instances: Dict[str, str] = {}

    def visit_ImportFrom(self, node: ast.ImportFrom, ctx: FileContext) -> None:
        for alias in node.names:
            if alias.name in self._SERVICE_CLASSES:
                self._class_aliases[alias.asname or alias.name] = alias.name

    def _constructed_class(self, node: ast.AST) -> Optional[str]:
        """The service class ``node`` constructs, if it is such a call."""
        if not isinstance(node, ast.Call):
            return None
        chain = _attr_chain(node.func)
        if chain is None:
            return None
        if chain[-1] in self._SERVICE_CLASSES:
            return chain[-1]
        return self._class_aliases.get(chain[-1]) if len(chain) == 1 else None

    def visit_Assign(self, node: ast.Assign, ctx: FileContext) -> None:
        constructed = self._constructed_class(node.value)
        for target in node.targets:
            if not isinstance(target, ast.Name):
                continue
            if constructed is not None:
                self._instances[target.id] = constructed
            else:
                # Rebinding to anything else drops the taint.
                self._instances.pop(target.id, None)

    def _classify(self, node: ast.AST) -> Optional[str]:
        """Why ``node`` looks like a service crossing, or None."""
        constructed = self._constructed_class(node)
        if constructed is not None:
            return f"a fresh {constructed}"
        name = AdHocProcessPoolRule._terminal_name(node)
        if name is None:
            return None
        if name in self._instances:
            return f"{name!r} (an {self._instances[name]})"
        lowered = name.lower()
        if any(hint in lowered for hint in self._NAME_HINTS):
            return f"{name!r} (service-named)"
        return None

    def _report_crossing(
        self, ctx: FileContext, node: ast.AST, what: str, boundary: str
    ) -> None:
        ctx.report(
            self,
            node,
            f"{what} crosses the {boundary} spawn boundary by pickle — "
            "live serving state (event loop, caches, shm views) does "
            "not survive it; pass a FleetWorkerSpec/ServiceConfig and "
            "rebuild the service inside the worker",
        )

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        chain = _attr_chain(node.func)
        if chain is None:
            return
        if chain[-1] == "submit" and len(chain) >= 2:
            # args[0] is the callable; only payload arguments cross.
            payload = list(node.args[1:]) + [kw.value for kw in node.keywords]
            for arg in payload:
                what = self._classify(arg)
                if what is not None:
                    self._report_crossing(ctx, arg, what, "submit()")
            return
        if chain[-1] != "Process":
            return
        for kw in node.keywords:
            if kw.arg == "target" and isinstance(kw.value, ast.Attribute):
                # A bound method drags its whole instance across.
                what = self._classify(kw.value.value)
                if what is not None:
                    self._report_crossing(
                        ctx, kw.value, f"a bound method of {what}", "Process()"
                    )
            elif kw.arg in ("args", "kwargs") and isinstance(
                kw.value, (ast.Tuple, ast.List)
            ):
                for element in kw.value.elts:
                    what = self._classify(element)
                    if what is not None:
                        self._report_crossing(ctx, element, what, "Process()")


# ---------------------------------------------------------------------------
# RR016 — tree construction must flow through the builder registry
# ---------------------------------------------------------------------------


@register_rule
class UnregisteredTreeBuilderRule(Rule):
    """Tree construction outside repro.multicast must use the registry."""

    rule_id = "RR016"
    severity = "error"
    summary = (
        "direct tree construction (build_delivery_tree) outside "
        "repro.multicast — go through "
        "repro.multicast.builders.build_tree(algorithm, ...) so the "
        "algorithm axis stays sweepable"
    )
    rationale = (
        "The algorithm axis works because every consumer — sweeps, "
        "estimator tables, the serving tier, figures — selects its tree "
        "discipline by registry name.  A direct call to a concrete "
        "builder hard-wires one algorithm into that consumer: it cannot "
        "be swept and its results carry no 'algorithm' provenance.  "
        "Inside repro.multicast the "
        "concrete constructors ARE the implementation, so the package "
        "itself is exempt."
    )

    _DIRECT_BUILDERS = ("build_delivery_tree",)

    def applies_to(self, path: str) -> bool:
        return "repro/" in path and "repro/multicast/" not in path

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        chain = _attr_chain(node.func)
        if chain is None or chain[-1] not in self._DIRECT_BUILDERS:
            return
        ctx.report(
            self,
            node,
            f"{chain[-1]}() called directly — route through "
            "repro.multicast.builders.build_tree() (registry key 'spt') "
            "so the call site honors the algorithm axis",
        )
