"""alias-escape: frozen Graph views stay frozen after they escape.

``cache-invalidation`` guards in-place mutation at the *attribute
access* site (``graph._degrees[...] = ...``).  But the frozen views
also escape through the public accessors — ``degrees()``,
``adjacency_csr()`` / ``adjacency_csr_int32()``, ``adjacency_dense()``,
``edge_arrays()`` — which hand out the
identity-cached arrays themselves (copying would defeat the CSR
substrate's memory story).
Once such an array is bound to a local name, a later in-place write
corrupts the shared cache for every other holder, silently, far from
any attribute access the per-site rule could see.

This rule tracks those aliases through local dataflow, per scope and
in statement order:

* ``d = g.degrees()`` starts an alias; ``indptr, indices =
  g.adjacency_csr()`` starts two; ``row = a[v]`` propagates to a
  dense row view; ``e = d`` propagates.
* ``d = d.copy()`` / ``.astype(...)`` / ``np.array(d)`` rebind to a
  fresh array and end the alias; any other rebinding ends it too.
* In-place mutation of a live alias is flagged: subscript stores,
  augmented assignment, mutating methods (``fill``, ``sort``, ...),
  ``np.<ufunc>.at(alias, ...)`` and ``out=alias``.

Deliberate mutation of an escaped view (there is none in-tree today)
would carry ``# repro-lint: disable=alias-escape`` with its reason.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.repro_lint.core import (
    Finding,
    LintContext,
    Rule,
    SourceFile,
    dotted_name,
    register,
)

#: Graph accessors that return identity-cached (frozen) arrays.
FROZEN_ACCESSORS = {
    "degrees",
    "adjacency_csr",
    "adjacency_csr_int32",
    "adjacency_dense",
    "edge_arrays",
}
#: ndarray methods that mutate in place.
_MUTATING_METHODS = {"fill", "sort", "partition", "put", "itemset", "resize"}
#: Call results that are fresh arrays (safe to rebind an alias to).
_COPYING_METHODS = {"copy", "astype"}
_COPYING_FUNCS = {"array", "copy"}  # np.array / np.copy


def _scopes(tree: ast.Module) -> Iterator[list[ast.stmt]]:
    """Yield statement lists per scope: module level and each function
    body (each function is visited once, as its own scope)."""
    yield list(tree.body)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield list(node.body)


def _statements(stmts: list[ast.stmt]) -> Iterator[ast.stmt]:
    """All statements in a scope, in source order, not entering nested
    function/class scopes (they are separate scopes)."""
    for stmt in stmts:
        yield stmt
        for field in ("body", "orelse", "finalbody"):
            sub = getattr(stmt, field, None)
            if isinstance(sub, list) and not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                yield from _statements(sub)
        for handler in getattr(stmt, "handlers", []) or []:
            yield from _statements(handler.body)


def _is_frozen_accessor_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in FROZEN_ACCESSORS
        and not node.args
        and not node.keywords
    )


def _root_name(node: ast.expr) -> str | None:
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


@register
class AliasEscapeRule(Rule):
    name = "alias-escape"
    description = (
        "arrays escaping frozen Graph view accessors are never "
        "mutated in place downstream"
    )
    default_paths = ("src/repro", "examples")

    def check(self, src: SourceFile, ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        for scope in _scopes(src.tree):
            findings.extend(self._scan_scope(src, scope))
        return findings

    def _scan_scope(
        self, src: SourceFile, scope: list[ast.stmt]
    ) -> list[Finding]:
        findings: list[Finding] = []
        aliases: dict[str, str] = {}  # name -> accessor it came from

        def flag(node: ast.AST, name: str, how: str) -> None:
            findings.append(
                Finding(
                    path=src.rel,
                    line=node.lineno,
                    col=node.col_offset,
                    rule=self.name,
                    message=(
                        f"{how} of `{name}`, an alias of the frozen "
                        f"`{aliases[name]}()` view; mutating it "
                        "corrupts the shared cache (copy first)"
                    ),
                )
            )

        def value_alias_source(value: ast.expr) -> str | None:
            """The accessor an assigned value aliases, if any."""
            if _is_frozen_accessor_call(value):
                return value.func.attr  # type: ignore[union-attr]
            if isinstance(value, ast.Name) and value.id in aliases:
                return aliases[value.id]
            if isinstance(value, ast.Subscript):
                root = _root_name(value)
                if root in aliases:
                    return aliases[root]
            return None

        def is_fresh_copy(value: ast.expr) -> bool:
            if not isinstance(value, ast.Call):
                return False
            if (
                isinstance(value.func, ast.Attribute)
                and value.func.attr in _COPYING_METHODS
            ):
                return True
            name = dotted_name(value.func)
            return (
                name is not None
                and name.rsplit(".", 1)[-1] in _COPYING_FUNCS
            )

        def scan_mutations(expr: ast.AST) -> None:
            """Expression-level mutations inside one expression tree."""
            for node in ast.walk(expr):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATING_METHODS
                ):
                    root = _root_name(func.value)
                    if root in aliases:
                        flag(node, root, f"in-place `.{func.attr}()`")
                name = dotted_name(func)
                if (
                    name is not None
                    and name.endswith(".at")
                    and node.args
                ):
                    root = _root_name(node.args[0])
                    if root in aliases:
                        flag(node, root, "in-place ufunc `.at(...)`")
                for kw in node.keywords:
                    if kw.arg == "out":
                        root = _root_name(kw.value)
                        if root in aliases:
                            flag(node, root, "`out=` write")

        for stmt in sorted(
            _statements(scope), key=lambda s: (s.lineno, s.col_offset)
        ):
            # Mutation scan covers only this statement's own
            # expressions — inner statements of compound statements are
            # yielded (and scanned) separately by ``_statements``.
            if isinstance(stmt, (ast.If, ast.While)):
                scan_mutations(stmt.test)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                scan_mutations(stmt.iter)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    scan_mutations(item.context_expr)
            elif isinstance(
                stmt,
                (
                    ast.FunctionDef,
                    ast.AsyncFunctionDef,
                    ast.ClassDef,
                    ast.Try,
                ),
            ):
                pass  # bodies are separate scopes / separate statements
            else:
                scan_mutations(stmt)
            if isinstance(stmt, ast.Assign):
                # Subscript-store on an alias mutates it.
                for t in stmt.targets:
                    if isinstance(t, ast.Subscript):
                        root = _root_name(t)
                        if root in aliases:
                            flag(t, root, "subscript store")
                source = value_alias_source(stmt.value)
                fresh = is_fresh_copy(stmt.value)
                for t in stmt.targets:
                    names = (
                        [e for e in t.elts if isinstance(e, ast.Name)]
                        if isinstance(t, (ast.Tuple, ast.List))
                        else [t]
                        if isinstance(t, ast.Name)
                        else []
                    )
                    for n in names:
                        if source is not None and not fresh:
                            aliases[n.id] = source
                        else:
                            aliases.pop(n.id, None)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                if isinstance(stmt.target, ast.Name):
                    source = value_alias_source(stmt.value)
                    if source is not None and not is_fresh_copy(stmt.value):
                        aliases[stmt.target.id] = source
                    else:
                        aliases.pop(stmt.target.id, None)
            elif isinstance(stmt, ast.AugAssign):
                root = _root_name(stmt.target)
                if root in aliases:
                    flag(stmt, root, "augmented assignment")
        return findings
