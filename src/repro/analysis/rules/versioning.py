"""VER001: every topology/data mutation must advance a version token.

PR 1 introduced ``topology_version`` / ``data_version`` and every caching
plane since — peer-synopsis memos, the structure-of-arrays snapshot, the
batch router's finger tables, the exact-ring maintenance token — keys its
invalidation on them.  A mutation path that forgets its bump does not
fail loudly: it serves *stale* reads that are bit-plausible and wrong,
the worst failure mode a reproduction can have.

The rule runs over the ring mutation layer (network / chord / mutation /
churn / replication / storage modules) and checks, per function:

* **mutation events** — assignments to overlay pointer attributes
  (``predecessor_id``, ``successor_id``, ``successor_list``, ``fingers``,
  ``alive``), ``set_finger`` calls (bare or with their result
  assigned), registry-container edits
  (``_nodes`` / ``_sorted_ids``), and — inside ``storage.py`` — direct
  edits of the store's ``_list`` backing;
* **bump events** — calls to ``note_overlay_change`` /
  ``_invalidate_registry_views`` / ``_register`` / ``_unregister`` /
  ``_note_data_change`` / ``_mutated`` / ``rebuild_overlay``, or direct
  writes to ``topology_version`` / ``data_version`` / ``version``.

"Every exit path" is enforced by a small abstract walk over the
statement tree: sequential statements propagate a *bumped-since-mutation*
state, ``if``/``else`` joins take the conjunction, loop bodies are
assumed to possibly not run, and a bump inside any ``finally`` counts for
all paths (it dominates every exit).  The walk is deliberately syntactic:
aliasing (``items = self._list; del items[i]``) is invisible to it, which
is documented in docs/STATIC_ANALYSIS.md — the fixture tests pin exactly
what it can and cannot see.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Optional

from repro.analysis.framework import FileContext, Finding, Rule, register_rule

__all__ = ["VersionBumpRule"]

_POINTER_ATTRS = frozenset(
    {"predecessor_id", "successor_id", "successor_list", "fingers", "alive"}
)
_REGISTRY_ATTRS = frozenset({"_nodes", "_sorted_ids"})
_STORE_BACKING = "_list"
_LIST_MUTATORS = frozenset(
    {"append", "extend", "insert", "remove", "pop", "clear", "sort", "reverse"}
)
_BUMP_CALLS = frozenset(
    {
        "note_overlay_change",
        "_invalidate_registry_views",
        "_register",
        "_unregister",
        "_note_data_change",
        "_mutated",
        "rebuild_overlay",
    }
)
_VERSION_ATTRS = frozenset({"topology_version", "data_version", "version"})


def _attr_name(node: ast.AST) -> Optional[str]:
    """The trailing attribute name of an Attribute node, else None."""
    return node.attr if isinstance(node, ast.Attribute) else None


def _is_registry_container(node: ast.AST) -> bool:
    """Does this expression denote the oracle registry backing?"""
    return isinstance(node, ast.Attribute) and node.attr in _REGISTRY_ATTRS


def _is_store_backing(node: ast.AST) -> bool:
    """Does this expression denote the local store's sorted-list backing?"""
    return isinstance(node, ast.Attribute) and node.attr == _STORE_BACKING


class _EventScanner:
    """Classifies a single statement's mutation/bump events (non-recursive
    into compound bodies — the path walker drives recursion)."""

    def __init__(self, in_storage: bool) -> None:
        self.in_storage = in_storage

    def mutation(self, stmt: ast.stmt) -> Optional[str]:
        """A human-readable mutation description, or None."""
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = list(stmt.targets)
        for target in targets:
            name = _attr_name(target)
            if name in _POINTER_ATTRS:
                return f"overlay pointer `{name}`"
            if isinstance(target, ast.Subscript):
                if _is_registry_container(target.value):
                    return f"registry container `{_attr_name(target.value)}`"
                if self.in_storage and _is_store_backing(target.value):
                    return "store backing `_list`"
            if _is_registry_container(target):
                return f"registry container `{_attr_name(target)}`"
            if self.in_storage and _is_store_backing(target):
                return "store backing `_list`"
        if (
            isinstance(stmt, (ast.Assign, ast.AnnAssign))
            and isinstance(stmt.value, ast.Call)
            and _attr_name(stmt.value.func) == "set_finger"
        ):
            # ``changed = node.set_finger(k, owner)`` writes the table too.
            return "finger table via `set_finger`"
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            func = stmt.value.func
            if isinstance(func, ast.Attribute):
                if func.attr == "set_finger":
                    return "finger table via `set_finger`"
                if _is_registry_container(func.value):
                    return f"registry container `{_attr_name(func.value)}`"
                if (
                    self.in_storage
                    and func.attr in _LIST_MUTATORS
                    and _is_store_backing(func.value)
                ):
                    return f"store backing `_list.{func.attr}`"
                # bisect.insort(self._sorted_ids, ...) mutates its argument.
                if func.attr.startswith("insort") and stmt.value.args:
                    first = stmt.value.args[0]
                    if _is_registry_container(first) or (
                        self.in_storage and _is_store_backing(first)
                    ):
                        return f"sorted container via `{func.attr}`"
        return None

    def bump(self, stmt: ast.stmt) -> bool:
        """Does this statement advance a version token?"""
        if isinstance(stmt, (ast.Assign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            if any(_attr_name(target) in _VERSION_ATTRS for target in targets):
                return True
            value = stmt.value
            if isinstance(value, ast.Call) and self._bump_call(value):
                return True
        if isinstance(stmt, (ast.Expr, ast.Return)) and isinstance(
            stmt.value, ast.Call
        ):
            return self._bump_call(stmt.value)
        return False

    @staticmethod
    def _bump_call(call: ast.Call) -> bool:
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        return name in _BUMP_CALLS


@dataclass
class _PathState:
    """Abstract state at one program point: is there a mutation on this
    path that no later bump has covered yet?"""

    dirty: bool = False
    #: First un-bumped mutation (node, description) for the report.
    witness: Optional[tuple[ast.stmt, str]] = None

    def copy(self) -> "_PathState":
        return _PathState(self.dirty, self.witness)


@dataclass
class _FunctionResult:
    """All un-bumped exits found in one function."""

    violations: list[tuple[ast.stmt, str, str]] = field(default_factory=list)


class _PathWalker:
    """Walks a function body tracking mutation-then-bump ordering."""

    def __init__(self, scanner: _EventScanner, finally_bumps: bool) -> None:
        self.scanner = scanner
        self.finally_bumps = finally_bumps
        self.result = _FunctionResult()

    def walk(self, stmts: list[ast.stmt], state: _PathState) -> _PathState:
        for stmt in stmts:
            if isinstance(stmt, ast.Return):
                if self.scanner.bump(stmt):  # e.g. `return self._register(n)`
                    state.dirty = False
                    state.witness = None
                self._check_exit(stmt, state, "return")
                return state
            if isinstance(stmt, ast.Raise):
                # Raising abandons the operation; stale-cache exposure is a
                # caller concern (and finally-bumps already count).
                return state
            description = self.scanner.mutation(stmt)
            if description is not None:
                state.dirty = True
                if state.witness is None:
                    state.witness = (stmt, description)
            if self.scanner.bump(stmt):
                state.dirty = False
                state.witness = None
            if isinstance(stmt, ast.If):
                then_state = self.walk(stmt.body, state.copy())
                else_state = self.walk(stmt.orelse, state.copy())
                state = self._join(then_state, else_state)
            elif isinstance(stmt, (ast.For, ast.While)):
                body_state = self.walk(stmt.body, state.copy())
                if stmt.orelse:
                    body_state = self.walk(stmt.orelse, body_state)
                # The loop may run zero times, so it cannot *clear* a
                # pre-existing dirty state; a body left dirty at its own
                # end is a possible un-bumped mutation.
                if body_state.dirty:
                    state.dirty = True
                    if state.witness is None:
                        state.witness = body_state.witness
            elif isinstance(stmt, ast.Try):
                body_state = self.walk(stmt.body, state.copy())
                for handler in stmt.handlers:
                    body_state = self._join(
                        body_state, self.walk(handler.body, state.copy())
                    )
                if stmt.orelse:
                    body_state = self.walk(stmt.orelse, body_state)
                if stmt.finalbody:
                    body_state = self.walk(stmt.finalbody, body_state)
                state = body_state
            elif isinstance(stmt, ast.With):
                state = self.walk(stmt.body, state)
        return state

    def finish(self, body_end: ast.stmt, state: _PathState) -> None:
        """Check the implicit return at the end of the function body."""
        self._check_exit(body_end, state, "fall-through")

    def _check_exit(self, stmt: ast.stmt, state: _PathState, kind: str) -> None:
        if state.dirty and not self.finally_bumps:
            witness_stmt, description = state.witness or (stmt, "state")
            self.result.violations.append((witness_stmt, description, kind))

    @staticmethod
    def _join(left: _PathState, right: _PathState) -> _PathState:
        joined = _PathState(dirty=left.dirty or right.dirty)
        if joined.dirty:
            joined.witness = left.witness or right.witness
        return joined


@register_rule
class VersionBumpRule(Rule):
    """VER001 — mutations must bump ``topology_version``/``data_version``."""

    id: ClassVar[str] = "VER001"
    title: ClassVar[str] = "mutations must bump version tokens"
    rationale: ClassVar[str] = (
        "every caching plane (synopses, snapshot, batch routing, "
        "exact-ring token) keys invalidation on the version counters; a "
        "missed bump serves stale reads silently"
    )
    paths: ClassVar[tuple[str, ...]] = (
        "*repro/ring/network.py",
        "*repro/ring/chord.py",
        "*repro/ring/mutation.py",
        "*repro/ring/churn.py",
        "*repro/ring/replication.py",
        "*repro/ring/storage.py",
    )

    def check(self, context: FileContext) -> Iterable[Finding]:
        in_storage = context.path.endswith("storage.py")
        scanner = _EventScanner(in_storage)
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name in ("__init__", "__post_init__", "__new__"):
                # Constructors populate a fresh object no cache has seen;
                # there is no stale view to invalidate yet.
                continue
            finally_bumps = any(
                any(scanner.bump(stmt) for stmt in try_node.finalbody)
                for try_node in ast.walk(node)
                if isinstance(try_node, ast.Try)
            )
            walker = _PathWalker(scanner, finally_bumps)
            end_state = walker.walk(node.body, _PathState())
            walker.finish(node.body[-1], end_state)
            reported: set[int] = set()
            for witness, description, kind in walker.result.violations:
                if witness.lineno in reported:
                    continue
                reported.add(witness.lineno)
                yield context.finding(
                    self,
                    witness,
                    f"`{node.name}` mutates {description} but a {kind} exit "
                    "path performs no version bump (note_overlay_change / "
                    "data_version / _mutated)",
                )
