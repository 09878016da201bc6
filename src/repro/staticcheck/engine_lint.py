"""Level-2 lint: project invariants over the ``repro`` source itself.

PR 1's differential suite taught us that our worst bug class is an
*invariant violation*, not a logic error: the semi-naive engine once
called ``graph.add`` while a lazy index scan over the same graph was
still live, silently corrupting the iteration.  A fuzzer found it; a
syntactic checker would have found it sooner and cheaper.  These
checks encode the project's invariants over the AST:

* **SC201** — no ``.add()``/``.remove()`` on a collection inside a
  loop holding a live scan of it: a ``for`` over one of the
  collection's lazy scans (``match``, ``triples``, ``facts``,
  ``match_atom``, the collection itself, or a delegated scan taking
  the collection as its first argument: ``rule.fire(g, delta)``,
  ``rule.fire_conclusions``, ``rule.match_body``), or a ``while``
  loop draining a name-bound cursor (``it = g.match(...)`` then
  ``while ...: next(it)``).  Materialize first:
  ``for t in list(g.match(p))``.
* **SC202** — classes in hot-path modules must declare ``__slots__``
  (per-derivation allocations dominate saturation; attribute dicts
  are measurable overhead).  Dataclasses must pass ``slots=True``;
  exception types and otherwise-decorated classes are exempt.
* **SC203** — no direct ``time.*`` timing outside :mod:`repro.obs`
  (spans are the one source of truth for durations) and
  :mod:`repro.analysis` (the calibration layer that *is* a timer).

Module scoping is anchored: a file is only subject to a module's
rules when it resolves to that module path (see
:func:`.modpaths.resolve_module`), never because a path fragment
happens to appear somewhere inside an unrelated path.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .diagnostics import Diagnostic, Severity
from .modpaths import matches_module, resolve_module

__all__ = ["lint_source", "lint_file", "lint_paths", "HOT_PATH_MODULES",
           "TIMING_ALLOWED_MODULES", "DELEGATED_SCAN_METHODS"]

#: methods returning lazy views over live indexes (Graph.subjects/
#: predicates/objects materialize fresh sets, so they are not here)
SCAN_METHODS = frozenset({"match", "triples", "facts", "match_atom"})

#: methods whose *first argument* is the collection being lazily
#: scanned — the rule engines take the graph as a parameter
#: (``rule.fire_conclusions(graph, delta)`` holds a live scan of
#: ``graph``, not of ``rule``).  PR 6's crash harness caught exactly
#: this: the incremental reasoners added conclusions to the graph
#: while a rule's scan cursor was live over its delta log, silently
#: skipping a derivation.
DELEGATED_SCAN_METHODS = frozenset({"fire", "fire_conclusions",
                                    "match_body"})

#: methods that mutate the underlying indexes
MUTATOR_METHODS = frozenset({"add", "remove", "discard", "add_fact",
                             "add_atom", "add_triple", "remove_triple",
                             "clear"})

#: module paths whose classes must declare __slots__ (entries ending
#: in ``/`` are package prefixes, others match one module exactly)
HOT_PATH_MODULES: Tuple[str, ...] = (
    "repro/rdf/terms.py",
    "repro/rdf/triples.py",
    "repro/rdf/index.py",
    "repro/rdf/columnar.py",
    "repro/rdf/graph.py",
    "repro/rdf/dictionary.py",
    "repro/sparql/joins.py",
    "repro/kernels.py",
    "repro/datalog/program.py",
    "repro/datalog/engine.py",
    "repro/reasoning/rules.py",
    "repro/reasoning/encoding.py",
    "repro/sparql/ast.py",
    "repro/sparql/bindings.py",
    "repro/server/",           # every serving-layer class is hot-path
    "repro/storage/",          # WAL append sits on the update hot path
    "repro/cancellation.py",
)

#: module packages allowed to call time.* directly
TIMING_ALLOWED_MODULES: Tuple[str, ...] = (
    "repro/obs/",
    "repro/analysis/",
)

_TIMING_FUNCTIONS = frozenset({
    "time", "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
    "process_time", "process_time_ns", "thread_time", "thread_time_ns",
})

_EXCEPTION_BASE_HINTS = ("Error", "Exception", "Warning")


def _base_expr(node: ast.AST) -> Optional[ast.AST]:
    """The collection expression a scan/mutation call applies to, or
    ``None`` when the shape is not a method call."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return node.func.value
    return None


def _expr_key(node: ast.AST) -> str:
    """A structural key for "the same collection expression"."""
    return ast.dump(node)


class _MutationDuringScan(ast.NodeVisitor):
    """SC201: walk loops; inside a loop over a live scan of X, flag
    mutator calls on X."""

    def __init__(self, file: str):
        self.file = file
        self.findings: List[Diagnostic] = []
        # stack of (collection key, rendered name, loop line)
        self._live: List[Tuple[str, str, int]] = []
        # name-bound cursors: `it = g.match(...)` binds a live scan of
        # g to `it`; a while loop advancing `it` holds that scan open
        self._cursors: Dict[str, Tuple[str, str]] = {}

    def _scan_base(self, iterator: ast.AST) -> Optional[ast.AST]:
        # for t in X.match(...):  — a lazy scan over X's indexes
        if isinstance(iterator, ast.Call):
            if isinstance(iterator.func, ast.Attribute):
                if iterator.func.attr in SCAN_METHODS:
                    return iterator.func.value
                # for c in rule.fire_conclusions(X, delta):  — a lazy
                # scan over X (the first argument), not over `rule`
                if (iterator.func.attr in DELEGATED_SCAN_METHODS
                        and iterator.args):
                    return iterator.args[0]
            return None  # list(...)/sorted(...) materialize: safe
        # for t in X:  — direct iteration over the live collection
        if isinstance(iterator, (ast.Name, ast.Attribute)):
            return iterator
        return None

    def visit_For(self, node: ast.For) -> None:
        base = self._scan_base(node.iter)
        if base is not None:
            self._live.append((_expr_key(base), ast.unparse(base),
                               node.lineno))
            for child in node.body + node.orelse:
                self.visit(child)
            self._live.pop()
            return
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        # track `it = g.match(...)` (and drop rebound cursor names)
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            base = self._scan_base(node.value) \
                if isinstance(node.value, ast.Call) else None
            if base is not None:
                self._cursors[name] = (_expr_key(base), ast.unparse(base))
            else:
                self._cursors.pop(name, None)
        self.generic_visit(node)

    def visit_While(self, node: ast.While) -> None:
        # any tracked cursor referenced inside the loop keeps its scan
        # live for the whole iteration
        used = {sub.id for sub in ast.walk(node)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx,
                                                            ast.Load)}
        pushed = 0
        seen_keys: Set[str] = set()
        for name in sorted(used & self._cursors.keys()):
            key, rendered = self._cursors[name]
            if key in seen_keys:
                continue
            seen_keys.add(key)
            self._live.append((key, rendered, node.lineno))
            pushed += 1
        self.visit(node.test)
        for child in node.body + node.orelse:
            self.visit(child)
        if pushed:
            del self._live[-pushed:]

    def visit_Call(self, node: ast.Call) -> None:
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATOR_METHODS and self._live):
            key = _expr_key(node.func.value)
            for live_key, name, loop_line in self._live:
                if key == live_key:
                    self.findings.append(Diagnostic(
                        "SC201", Severity.ERROR,
                        f".{node.func.attr}() on {name!r} while iterating "
                        f"a live scan of it (loop at line {loop_line})",
                        file=self.file, line=node.lineno, target=name,
                        hint="materialize the scan first: "
                             "for x in list(...): ..."))
                    break
        self.generic_visit(node)


def _is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Attribute):
        return target.attr == "dataclass"
    return isinstance(target, ast.Name) and target.id == "dataclass"


def _dataclass_has_slots(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False  # bare @dataclass: no slots
    return any(kw.arg == "slots"
               and isinstance(kw.value, ast.Constant)
               and kw.value.value is True
               for kw in node.keywords)


def _check_slots(tree: ast.Module, file: str) -> List[Diagnostic]:
    findings: List[Diagnostic] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        dataclass_decorators = [d for d in node.decorator_list
                                if _is_dataclass_decorator(d)]
        if node.decorator_list and not dataclass_decorators:
            continue  # enum/functools etc. manage their own layout
        base_names = {ast.unparse(base) for base in node.bases}
        if any(base.endswith(_EXCEPTION_BASE_HINTS) for base in base_names):
            continue
        if dataclass_decorators:
            # @dataclass without slots=True pays the same attribute
            # dict a slotless class does — the decorator is not an
            # exemption, slots=True is
            if not any(_dataclass_has_slots(d)
                       for d in dataclass_decorators):
                findings.append(Diagnostic(
                    "SC202", Severity.WARNING,
                    f"dataclass {node.name!r} in a hot-path module "
                    f"without slots=True: every instance pays an "
                    f"attribute dict",
                    file=file, line=node.lineno, target=node.name,
                    hint="use @dataclass(slots=True) (plus eq/frozen "
                         "as before)"))
            continue
        has_slots = any(
            isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in stmt.targets)
            for stmt in node.body)
        if not has_slots:
            findings.append(Diagnostic(
                "SC202", Severity.WARNING,
                f"class {node.name!r} in a hot-path module has no "
                f"__slots__: every instance pays an attribute dict",
                file=file, line=node.lineno, target=node.name,
                hint="add __slots__ = (...) listing the instance "
                     "attributes"))
    return findings


def _check_timing(tree: ast.Module, file: str) -> List[Diagnostic]:
    # names bound to the time module in this file (import time as _t)
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.name == "time":
                    aliases.add(name.asname or "time")
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            for name in node.names:
                if name.name in _TIMING_FUNCTIONS:
                    aliases.add(name.asname or name.name)
    if not aliases:
        return []
    findings: List[Diagnostic] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        direct = (isinstance(func, ast.Attribute)
                  and isinstance(func.value, ast.Name)
                  and func.value.id in aliases
                  and func.attr in _TIMING_FUNCTIONS)
        from_import = (isinstance(func, ast.Name) and func.id in aliases)
        if direct or from_import:
            call = ast.unparse(func)
            findings.append(Diagnostic(
                "SC203", Severity.WARNING,
                f"direct timing call {call}() outside repro.obs: "
                f"durations must come from spans",
                file=file, line=node.lineno, target=call,
                hint="wrap the region in `with span(...) as sp:` and "
                     "read sp.duration"))
    return findings


def lint_source(source: str, file: str,
                hot_paths: Sequence[str] = HOT_PATH_MODULES,
                timing_allowed: Sequence[str] = TIMING_ALLOWED_MODULES
                ) -> List[Diagnostic]:
    """Lint one module's source text; deterministic order."""
    tree = ast.parse(source, filename=file)
    module = resolve_module(file, source)
    findings: List[Diagnostic] = []
    checker = _MutationDuringScan(file)
    checker.visit(tree)
    findings.extend(checker.findings)
    if matches_module(module, hot_paths):
        findings.extend(_check_slots(tree, file))
    if not matches_module(module, timing_allowed):
        findings.extend(_check_timing(tree, file))
    return sorted(findings, key=Diagnostic.sort_key)


def lint_file(path: str,
              hot_paths: Sequence[str] = HOT_PATH_MODULES,
              timing_allowed: Sequence[str] = TIMING_ALLOWED_MODULES
              ) -> List[Diagnostic]:
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return lint_source(source, path, hot_paths, timing_allowed)


def lint_paths(paths: Iterable[str],
               hot_paths: Sequence[str] = HOT_PATH_MODULES,
               timing_allowed: Sequence[str] = TIMING_ALLOWED_MODULES
               ) -> List[Diagnostic]:
    """Lint files and directories (recursively, ``*.py``), sorted."""
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, names in os.walk(path):
                for name in sorted(names):
                    if name.endswith(".py"):
                        files.append(os.path.join(root, name))
        else:
            files.append(path)
    findings: List[Diagnostic] = []
    for file in sorted(files):
        findings.extend(lint_file(file, hot_paths, timing_allowed))
    return sorted(findings, key=Diagnostic.sort_key)
