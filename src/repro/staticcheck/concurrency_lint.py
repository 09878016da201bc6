"""Level-3 lint: concurrency and durability-protocol invariants.

PR 4 (serving) and PR 6 (durable storage) moved the project's worst
bug class from logic errors to *effect ordering*: a guarded counter
read outside its lock, an fsync forgotten before an ack, a loop that
never polls its deadline.  These passes encode the serving and
storage layers' discipline over the AST, the way SC201–SC203 encode
the engine's:

* **SC301** — lock-discipline inference.  Fields annotated
  ``# sc: guarded-by(<lock>)`` (or registered in
  :data:`GUARDED_FIELDS`) must only be read inside a ``with
  self.<lock>.read()/write()`` (or plain mutex) scope, and only be
  written under the exclusive side.
* **SC302** — blocking call under a lock: ``os.fsync``, ``time.sleep``,
  ``socket.*``, ``subprocess.*``, WAL appends, snapshot commits, and
  nested ``acquire_read``/``acquire_write`` (the self-deadlock and
  writer-starvation shapes) while any lock scope is live.
  :data:`SC302_ALLOWED` lists the deliberate exceptions.
* **SC303** — cancellation-poll coverage: ``while`` loops and
  scan-driven ``for`` loops in the hot evaluation modules
  (:data:`HOT_LOOP_MODULES`) must poll ``token.raise_if_cancelled()``
  on some stride, or be annotated ``# sc: allow(SC303): <why
  bounded>``.
* **SC304** — fault-point coverage and registry drift: every function
  in :mod:`repro.storage` performing a durability effect (fsync,
  rename, replace, run-file write) must announce a
  ``fault_point(...)``, every announced literal name must be in
  ``FAULT_POINTS``, and every registered name (of a write-path family
  the linted set covers) must be announced somewhere — so the
  crash-injection suite can never silently lose coverage.
* **SC305** — fsync-before-ack: within each storage-layer function, no
  ``return`` may be reachable after a buffer ``.write(...)`` without
  an intervening fsync (flattened effect order, optimistic about
  branches: the forgot-the-fsync class, not an alias analysis).
* **SC306** — lock acquisition without a timeout on a serving path:
  an unbounded ``acquire_*``/``lock.read()``/``lock.write()`` would
  defeat the admission-control deadlines.

All passes are intraprocedural and comment-suppressible per line with
``# sc: allow(SC30x[: reason])``; fixture files declare the module
whose rules they reproduce with ``# sc: module(...)`` (see
:mod:`.modpaths`).
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .diagnostics import Diagnostic, Severity
from .modpaths import (allowed_codes, guarded_fields_from_comments,
                       matches_module, resolve_module)

__all__ = ["lint_concurrency_source", "lint_concurrency_file",
           "lint_concurrency_paths", "GUARDED_FIELDS", "SC302_ALLOWED",
           "FAULT_EXEMPT", "HOT_LOOP_MODULES", "STORAGE_MODULES",
           "SERVING_MODULES"]

#: Registry seam mirroring the ``# sc: guarded-by(...)`` comments:
#: class name -> {field name: guarding lock attribute}.  For code that
#: cannot carry annotations (generated sources); the repro tree itself
#: uses the comments.
GUARDED_FIELDS: Dict[str, Dict[str, str]] = {}

#: ``(module, qualname)`` pairs allowed to block under a lock scope.
#: ``ServingDatabase.snapshot`` deliberately commits (fsyncs) under
#: the write lock: quiescence is the point — no update may interleave
#: between the runs being flushed and the manifest being committed.
SC302_ALLOWED: frozenset = frozenset({
    ("repro/server/service.py", "ServingDatabase.snapshot"),
})

#: Storage functions that perform durability effects *for* their
#: callers: the caller owns the protocol step and announces its fault
#: point (``runfiles`` primitives; the snapshot helpers announced as
#: ``snapshot.files_written`` / ``snapshot.current_written``).
FAULT_EXEMPT: frozenset = frozenset({
    "fsync_file", "fsync_dir", "write_run_file", "write_terms_file",
    "DurableStore._write_graph", "DurableStore._write_current",
})

#: Modules whose loops serve queries/updates under a deadline.
HOT_LOOP_MODULES: Tuple[str, ...] = (
    "repro/sparql/evaluator.py",
    "repro/sparql/joins.py",
    "repro/kernels.py",
    "repro/reasoning/saturation.py",
    "repro/reasoning/batch.py",
    "repro/server/aserver.py",
    "repro/server/shard.py",
    "repro/server/shard_worker.py",
    "repro/server/shardplan.py",
    "repro/server/shardwire.py",
)

#: The durability-protocol modules (SC304/SC305).
STORAGE_MODULES: Tuple[str, ...] = ("repro/storage/",)

#: The admission-controlled serving modules (SC306).
SERVING_MODULES: Tuple[str, ...] = ("repro/server/",)

#: methods returning lazy, potentially huge streams — a ``for`` over
#: one of these is deadline-relevant (``plan.run``/``run_seeds`` are
#: not listed: they poll internally)
_SCAN_ITER_METHODS = frozenset({
    "match", "triples", "facts", "match_atom", "scan_order",
    "scan_order_between", "fire",
    "fire_conclusions", "match_body",
})

_ACQUIRE_METHODS = frozenset({"acquire_read", "acquire_write"})
_FSYNC_NAMES = frozenset({"fsync_file", "fsync_dir"})
_EFFECT_FUNCTIONS = frozenset({"fsync_file", "fsync_dir",
                               "write_run_file", "write_terms_file"})
_OS_EFFECTS = frozenset({"fsync", "fdatasync", "rename", "replace"})
_BLOCKING_MODULES = ("socket", "subprocess")

#: one lock scope: (lock name, "read" | "write")
_Scope = Tuple[str, str]


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------

def _terminal_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_lockish(node: ast.AST) -> bool:
    name = _terminal_name(node)
    return name is not None and "lock" in name.lower()


def _lock_scope(expr: ast.AST) -> Optional[_Scope]:
    """The scope a with-item enters, or None when it is not a lock.

    ``with self.lock.read(...)`` / ``with lock.write()`` are the
    shared/exclusive sides; ``with self._stats_lock:`` (a plain mutex)
    counts as exclusive.  Base names must contain "lock" so file
    handles' ``read``/``write`` never alias.
    """
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
        attr = expr.func.attr
        base = expr.func.value
        if _is_lockish(base):
            if attr in ("read", "acquire_read"):
                return (_terminal_name(base) or "", "read")
            if attr in ("write", "acquire_write"):
                return (_terminal_name(base) or "", "write")
    if isinstance(expr, (ast.Name, ast.Attribute)) and _is_lockish(expr):
        return (_terminal_name(expr) or "", "write")
    return None


def _allowed(allow: Dict[int, Set[str]], line: int, code: str) -> bool:
    return code in allow.get(line, ())


def _functions(tree: ast.Module) -> List[Tuple[str, ast.AST]]:
    """Every (qualname, function node), methods as ``Class.method``."""
    found: List[Tuple[str, ast.AST]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                found.append((qualname, child))
                visit(child, qualname + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


# ----------------------------------------------------------------------
# SC301: lock-discipline inference
# ----------------------------------------------------------------------

def _field_name(target: ast.AST) -> Optional[str]:
    if isinstance(target, ast.Name):
        return target.id
    if (isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"):
        return target.attr
    return None


def _class_guards(node: ast.ClassDef,
                  guards_by_line: Dict[int, str]) -> Dict[str, str]:
    """Guarded fields of one class: registry entries plus annotated
    field declarations (class level or ``self.x = ...`` in any
    method)."""
    guards = dict(GUARDED_FIELDS.get(node.name, {}))
    for stmt in ast.walk(node):
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            continue
        lock = None  # the annotation may sit on a continuation line
        for line in range(stmt.lineno, (stmt.end_lineno or stmt.lineno) + 1):
            lock = guards_by_line.get(line)
            if lock is not None:
                break
        if lock is None:
            continue
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target])
        for target in targets:
            field = _field_name(target)
            if field is not None:
                guards[field] = lock
    return guards


def _check_lock_discipline(tree: ast.Module, file: str,
                           guards_by_line: Dict[int, str],
                           allow: Dict[int, Set[str]]) -> List[Diagnostic]:
    findings: List[Diagnostic] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        guards = _class_guards(node, guards_by_line)
        if not guards:
            continue
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name in ("__init__", "__post_init__"):
                continue  # construction precedes publication
            findings.extend(_check_method_guards(item, guards, file, allow))
    return findings


def _check_method_guards(func: ast.AST, guards: Dict[str, str], file: str,
                         allow: Dict[int, Set[str]]) -> List[Diagnostic]:
    findings: List[Diagnostic] = []
    scopes: List[_Scope] = []

    def walk(node: ast.AST) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            pushed = 0
            for item in node.items:
                scope = _lock_scope(item.context_expr)
                if scope is not None:
                    scopes.append(scope)
                    pushed += 1
            for child in node.body:
                walk(child)
            if pushed:
                del scopes[-pushed:]
            return
        if (isinstance(node, ast.Attribute) and node.attr in guards
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and not _allowed(allow, node.lineno, "SC301")):
            field = node.attr
            lock = guards[field]
            writing = isinstance(node.ctx, (ast.Store, ast.Del))
            held = [mode for name, mode in scopes if name == lock]
            access = "write" if writing else "read"
            if not held:
                findings.append(Diagnostic(
                    "SC301", Severity.ERROR,
                    f"{access} of guarded field {field!r} outside any "
                    f"{lock!r} scope",
                    file=file, line=node.lineno, target=f"self.{field}",
                    hint=f"hold the guarding lock: "
                         f"`with self.{lock}...:` around the access",
                    annotation=f"guarded-by({lock})"))
            elif writing and "write" not in held:
                findings.append(Diagnostic(
                    "SC301", Severity.ERROR,
                    f"write of guarded field {field!r} under only a "
                    f"read lock on {lock!r}",
                    file=file, line=node.lineno, target=f"self.{field}",
                    hint=f"writes need the exclusive side: "
                         f"`with self.{lock}.write(...):`",
                    annotation=f"guarded-by({lock})"))
        for child in ast.iter_child_nodes(node):
            walk(child)

    for stmt in func.body:  # type: ignore[attr-defined]
        walk(stmt)
    return findings


# ----------------------------------------------------------------------
# SC302: blocking calls / nested acquisition under a lock
# ----------------------------------------------------------------------

def _blocking_kind(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Attribute):
        base = func.value
        if isinstance(base, ast.Name):
            if base.id == "os" and func.attr in ("fsync", "fdatasync"):
                return f"os.{func.attr}"
            if base.id == "time" and func.attr == "sleep":
                return "time.sleep"
            if base.id in _BLOCKING_MODULES:
                return f"{base.id}.{func.attr}"
        if func.attr == "append" and (_terminal_name(base) or "").lower() \
                .find("wal") != -1:
            return "WAL append"
        if func.attr == "snapshot":
            return "snapshot commit"
    elif isinstance(func, ast.Name) and func.id in _FSYNC_NAMES:
        return func.id
    return None


def _check_blocking_under_lock(tree: ast.Module, file: str,
                               module: Optional[str],
                               allow: Dict[int, Set[str]]
                               ) -> List[Diagnostic]:
    findings: List[Diagnostic] = []

    def check_function(qualname: str, func: ast.AST) -> None:
        scopes: List[_Scope] = []
        exempt = module is not None and (module, qualname) in SC302_ALLOWED

        def walk(node: ast.AST) -> None:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                pushed = 0
                for item in node.items:
                    scope = _lock_scope(item.context_expr)
                    if scope is None:
                        continue
                    if scopes and not _allowed(allow, node.lineno, "SC302"):
                        findings.append(Diagnostic(
                            "SC302", Severity.ERROR,
                            f"nested acquisition of {scope[0]!r} while "
                            f"holding {scopes[-1][0]!r} (the lock is not "
                            f"reentrant: self-deadlock)",
                            file=file, line=node.lineno, target=qualname,
                            hint="release the outer scope first, or hoist "
                                 "the inner acquisition out of it"))
                    scopes.append(scope)
                    pushed += 1
                for child in node.body:
                    walk(child)
                if pushed:
                    del scopes[-pushed:]
                return
            if isinstance(node, ast.Call) and scopes:
                line = node.lineno
                func_expr = node.func
                if (isinstance(func_expr, ast.Attribute)
                        and func_expr.attr in _ACQUIRE_METHODS
                        and not _allowed(allow, line, "SC302")):
                    findings.append(Diagnostic(
                        "SC302", Severity.ERROR,
                        f"nested {func_expr.attr}() while holding "
                        f"{scopes[-1][0]!r} (the lock is not reentrant: "
                        f"self-deadlock)",
                        file=file, line=line, target=qualname,
                        hint="never acquire while a scope is live on "
                             "this thread"))
                else:
                    kind = _blocking_kind(node)
                    if (kind is not None and not exempt
                            and not _allowed(allow, line, "SC302")):
                        findings.append(Diagnostic(
                            "SC302", Severity.WARNING,
                            f"blocking call {kind} while holding "
                            f"{scopes[-1][0]!r}: every waiter stalls "
                            f"behind this I/O",
                            file=file, line=line, target=qualname,
                            hint="move the slow effect outside the "
                                 "critical section, or allowlist the "
                                 "deliberate case in SC302_ALLOWED"))
            for child in ast.iter_child_nodes(node):
                walk(child)

        for stmt in func.body:  # type: ignore[attr-defined]
            walk(stmt)

    for qualname, func in _functions(tree):
        check_function(qualname, func)
    return findings


# ----------------------------------------------------------------------
# SC303: cancellation-poll coverage
# ----------------------------------------------------------------------

def _polling_helpers(tree: ast.Module) -> Set[str]:
    """Names of local functions that poll directly (``descend`` in the
    join pipeline): a call to one counts as a poll in its enclosing
    loop."""
    helpers: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(_is_poll(sub, frozenset()) for sub in ast.walk(node)):
                helpers.add(node.name)
    return helpers


def _is_poll(node: ast.AST, helpers: Iterable[str]) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "raise_if_cancelled":
        return True
    name = _terminal_name(func)
    if name == "cancellation_scope":
        return True
    return isinstance(func, ast.Name) and func.id in helpers


def _scan_driven(loop: ast.For) -> Optional[str]:
    """The scan expression a ``for`` iterates, or None when the
    iterator is materialized/opaque."""
    iterator = loop.iter
    if not isinstance(iterator, ast.Call):
        return None
    name = _terminal_name(iterator.func)
    if name in _SCAN_ITER_METHODS:
        return ast.unparse(iterator.func)
    return None


def _terminates_immediately(loop: ast.AST) -> bool:
    """A loop whose whole body is one return/break/raise runs at most
    one iteration — existence probes like ``for _ in scan: return
    True``."""
    body = loop.body  # type: ignore[attr-defined]
    return len(body) == 1 and isinstance(
        body[0], (ast.Return, ast.Break, ast.Raise))


def _check_cancellation_polls(tree: ast.Module, file: str,
                              allow: Dict[int, Set[str]]
                              ) -> List[Diagnostic]:
    findings: List[Diagnostic] = []
    helpers = _polling_helpers(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.While):
            what = f"while {ast.unparse(node.test)}"
        elif isinstance(node, ast.For):
            scan = _scan_driven(node)
            if scan is None:
                continue
            what = f"scan {scan}(...)"
        else:
            continue
        if _terminates_immediately(node):
            continue
        if _allowed(allow, node.lineno, "SC303"):
            continue
        if any(_is_poll(sub, helpers) for sub in ast.walk(node)):
            continue
        findings.append(Diagnostic(
            "SC303", Severity.WARNING,
            f"loop ({what}) can iterate unboundedly without a "
            f"cancellation poll: a serving deadline cannot reclaim "
            f"this worker",
            file=file, line=node.lineno, target=what,
            hint="poll token.raise_if_cancelled() on a stride inside "
                 "the loop, or annotate "
                 "`# sc: allow(SC303): <why bounded>`"))
    return findings


# ----------------------------------------------------------------------
# SC304: fault-point coverage (per function) and registry drift
# ----------------------------------------------------------------------

def _durability_effect(call: ast.Call) -> Optional[str]:
    func = call.func
    if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
            and func.value.id == "os" and func.attr in _OS_EFFECTS):
        return f"os.{func.attr}"
    if isinstance(func, ast.Name) and func.id in _EFFECT_FUNCTIONS:
        return func.id
    return None


def _is_fault_point_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and _terminal_name(node.func) == "fault_point")


def _fault_point_literal(call: ast.Call) -> Optional[str]:
    if call.args and isinstance(call.args[0], ast.Constant) \
            and isinstance(call.args[0].value, str):
        return call.args[0].value
    return None


def _check_fault_coverage(tree: ast.Module, file: str,
                          allow: Dict[int, Set[str]]) -> List[Diagnostic]:
    findings: List[Diagnostic] = []
    for qualname, func in _functions(tree):
        effects: List[Tuple[int, str]] = []
        announces = False
        for node in ast.walk(func):
            if _is_fault_point_call(node):
                announces = True
            elif isinstance(node, ast.Call):
                effect = _durability_effect(node)
                if effect is not None:
                    effects.append((node.lineno, effect))
        if not effects or announces or qualname in FAULT_EXEMPT:
            continue
        line, effect = min(effects)
        if _allowed(allow, line, "SC304"):
            continue
        findings.append(Diagnostic(
            "SC304", Severity.ERROR,
            f"durability effect {effect} in {qualname}() with no "
            f"fault_point(...): the crash-injection suite cannot kill "
            f"the process here",
            file=file, line=line, target=qualname,
            hint="announce a fault point next to the effect and add "
                 "its name to FAULT_POINTS (or add the function to "
                 "FAULT_EXEMPT when the caller owns the protocol "
                 "step)"))
    for node in ast.walk(tree):
        if _is_fault_point_call(node) and _fault_point_literal(node) is None:
            assert isinstance(node, ast.Call)
            findings.append(Diagnostic(
                "SC304", Severity.ERROR,
                "fault_point() name is not a string literal: the "
                "registry drift check cannot see it",
                file=file, line=node.lineno, target="fault_point",
                hint="pass the point name as a literal string"))
    return findings


def _fault_registry(tree: ast.Module) -> Optional[Tuple[int, List[str]]]:
    """A module-level ``FAULT_POINTS = (...)`` literal, if present."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        if not any(isinstance(t, ast.Name) and t.id == "FAULT_POINTS"
                   for t in targets):
            continue
        value = stmt.value
        if isinstance(value, (ast.Tuple, ast.List)):
            names = [e.value for e in value.elts
                     if isinstance(e, ast.Constant)
                     and isinstance(e.value, str)]
            return stmt.lineno, names
    return None


def _check_registry_drift(
        calls: Sequence[Tuple[str, int, str]],
        registries: Sequence[Tuple[str, int, List[str]]]
        ) -> List[Diagnostic]:
    """Both drift directions over the whole linted set.

    Unused-entry reporting is scoped to the *families* (name prefix up
    to the first dot) the linted files actually announce, so linting a
    subdirectory never false-positives on a family that lives
    elsewhere.
    """
    if not registries:
        return []
    findings: List[Diagnostic] = []
    registered: Set[str] = set()
    for _file, _line, names in registries:
        registered.update(names)
    announced = {name for _file, _line, name in calls}
    families = {name.split(".", 1)[0] for name in announced}
    for file, line, name in calls:
        if name not in registered:
            findings.append(Diagnostic(
                "SC304", Severity.ERROR,
                f"announced fault point {name!r} is not registered in "
                f"FAULT_POINTS: the kill schedule will never crash "
                f"here",
                file=file, line=line, target=name,
                hint="add the name to FAULT_POINTS (the crash suite "
                     "parametrizes over it)"))
    for file, line, names in registries:
        for name in names:
            if name not in announced and name.split(".", 1)[0] in families:
                findings.append(Diagnostic(
                    "SC304", Severity.ERROR,
                    f"FAULT_POINTS entry {name!r} is never announced "
                    f"by any linted write path: dead registry entry "
                    f"(or a lost fault point)",
                    file=file, line=line, target=name,
                    hint="remove the stale entry, or restore the "
                         "fault_point(...) call it described"))
    return findings


# ----------------------------------------------------------------------
# SC305: fsync-before-ack effect ordering
# ----------------------------------------------------------------------

def _flatten_statements(body: Sequence[ast.stmt]) -> List[ast.stmt]:
    """Pre-order statement sequence, descending into compound bodies
    but not into nested function/class definitions."""
    flat: List[ast.stmt] = []
    for stmt in body:
        flat.append(stmt)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        for field_name in ("body", "orelse", "finalbody"):
            nested = getattr(stmt, field_name, None)
            if nested:
                flat.extend(_flatten_statements(nested))
        for handler in getattr(stmt, "handlers", ()):
            flat.extend(_flatten_statements(handler.body))
    return flat


def _stmt_writes(stmt: ast.stmt) -> Optional[int]:
    """Line of a buffer ``.write(...)`` directly in this statement."""
    for node in ast.walk(stmt):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "write"):
            return node.lineno
    return None


def _stmt_fsyncs(stmt: ast.stmt) -> bool:
    for node in ast.walk(stmt):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "os"
                and func.attr in ("fsync", "fdatasync")):
            return True
        if isinstance(func, ast.Name) and func.id in _FSYNC_NAMES:
            return True
    return False


def _check_fsync_before_ack(tree: ast.Module, file: str,
                            allow: Dict[int, Set[str]]) -> List[Diagnostic]:
    findings: List[Diagnostic] = []
    for qualname, func in _functions(tree):
        dirty_line: Optional[int] = None
        for stmt in _flatten_statements(func.body):  # type: ignore[attr-defined]
            if _stmt_fsyncs(stmt):
                dirty_line = None
                continue
            write_line = _stmt_writes(stmt)
            if write_line is not None:
                dirty_line = write_line
            ack = isinstance(stmt, ast.Return)
            if ack and dirty_line is not None \
                    and not _allowed(allow, stmt.lineno, "SC305"):
                findings.append(Diagnostic(
                    "SC305", Severity.ERROR,
                    f"return in {qualname}() is reachable after the "
                    f"buffer write at line {dirty_line} with no "
                    f"intervening fsync: an ack the crash can revoke",
                    file=file, line=stmt.lineno, target=qualname,
                    hint="fsync the handle before acknowledging "
                         "(os.fsync(handle.fileno()) / fsync_file)"))
                dirty_line = None  # one report per unsynced write run
    return findings


# ----------------------------------------------------------------------
# SC306: lock acquisition without a timeout on serving paths
# ----------------------------------------------------------------------

def _check_lock_timeouts(tree: ast.Module, file: str,
                         allow: Dict[int, Set[str]]) -> List[Diagnostic]:
    findings: List[Diagnostic] = []
    for qualname, func in _functions(tree):
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            func_expr = node.func
            if not isinstance(func_expr, ast.Attribute):
                continue
            attr = func_expr.attr
            lock_call = (attr in _ACQUIRE_METHODS
                         or (attr in ("read", "write")
                             and _is_lockish(func_expr.value)))
            if not lock_call:
                continue
            if node.args or node.keywords:
                continue  # a deadline (even an explicit None) is a choice
            if _allowed(allow, node.lineno, "SC306"):
                continue
            findings.append(Diagnostic(
                "SC306", Severity.WARNING,
                f"unbounded {ast.unparse(func_expr)}() on a serving "
                f"path: a stuck writer would hold this worker past "
                f"every admission deadline",
                file=file, line=node.lineno, target=qualname,
                hint="pass timeout=... (the request token's remaining "
                     "budget)"))
    return findings


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------

def lint_concurrency_source(source: str, file: str) -> List[Diagnostic]:
    """Run every per-file concurrency pass over one module's text."""
    tree = ast.parse(source, filename=file)
    module = resolve_module(file, source)
    allow = allowed_codes(source)
    guards_by_line = guarded_fields_from_comments(source)
    findings: List[Diagnostic] = []
    findings.extend(_check_lock_discipline(tree, file, guards_by_line,
                                           allow))
    findings.extend(_check_blocking_under_lock(tree, file, module, allow))
    if matches_module(module, HOT_LOOP_MODULES):
        findings.extend(_check_cancellation_polls(tree, file, allow))
    if matches_module(module, STORAGE_MODULES):
        findings.extend(_check_fault_coverage(tree, file, allow))
        findings.extend(_check_fsync_before_ack(tree, file, allow))
    if matches_module(module, SERVING_MODULES):
        findings.extend(_check_lock_timeouts(tree, file, allow))
    return sorted(findings, key=Diagnostic.sort_key)


def lint_concurrency_file(path: str) -> List[Diagnostic]:
    with open(path, "r", encoding="utf-8") as handle:
        return lint_concurrency_source(handle.read(), path)


def _python_files(paths: Iterable[str]) -> List[str]:
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, names in os.walk(path):
                for name in sorted(names):
                    if name.endswith(".py"):
                        files.append(os.path.join(root, name))
        else:
            files.append(path)
    return sorted(files)


def lint_concurrency_paths(paths: Iterable[str]) -> List[Diagnostic]:
    """Per-file passes over every module, then the corpus-level SC304
    registry drift check (both directions)."""
    findings: List[Diagnostic] = []
    calls: List[Tuple[str, int, str]] = []
    registries: List[Tuple[str, int, List[str]]] = []
    for file in _python_files(paths):
        with open(file, "r", encoding="utf-8") as handle:
            source = handle.read()
        findings.extend(lint_concurrency_source(source, file))
        tree = ast.parse(source, filename=file)
        for node in ast.walk(tree):
            if _is_fault_point_call(node):
                assert isinstance(node, ast.Call)
                name = _fault_point_literal(node)
                if name is not None:
                    calls.append((file, node.lineno, name))
        registry = _fault_registry(tree)
        if registry is not None:
            registries.append((file, registry[0], registry[1]))
    findings.extend(_check_registry_drift(calls, registries))
    return sorted(findings, key=Diagnostic.sort_key)
