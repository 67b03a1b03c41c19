"""cache-invalidation: identity-keyed caches must see every mutation.

The memo caches in :class:`repro.core.process.MISProcess` and the
incremental aggregates in :mod:`repro.core.frontier` key on the
*identity* of the state array (``token is state``): rebinding the array
invalidates them for free, but an **in-place** mutation is invisible
and leaves the caches silently stale — the exact bug class behind
trajectory-identity violations under fault injection.

Two attribute classes, both configurable via ``pyproject.toml``:

* **frozen** (``Graph``'s CSR arrays and lazy views): any in-place
  mutation — ``x.indices[...] = v``, ``x.indptr += d``,
  ``x.degrees()[...] = v``, ``.fill(...)``, ``np.<ufunc>.at`` or an
  ``out=`` kwarg targeting them — is an error, full stop.  The graph
  is immutable; every derived representation assumes it.
* **guarded** (process state vectors and frontier aggregate arrays):
  an in-place mutation is legal only if the same function later calls
  an invalidation hook (``_state_changed`` / ``invalidate`` /
  ``rebuild`` / ``_recompute*``) or rebinds the attribute — otherwise
  the identity token still matches and the caches go stale.

The frontier engines *own* their aggregate arrays: their scatter
updates are the maintenance protocol itself, so those modules are
allowlisted for this rule in ``pyproject.toml``.
"""

from __future__ import annotations

import ast

from tools.repro_lint.core import (
    Finding,
    LintContext,
    Rule,
    SourceFile,
    dotted_name,
    register,
)

#: Graph CSR arrays + lazy views: in-place mutation is never legal.
DEFAULT_FROZEN = (
    "indptr",
    "indices",
    "_indptr",
    "_indices",
    "_degrees",
    "_dense",
)
#: Zero-arg methods returning cached arrays callers must not mutate.
DEFAULT_FROZEN_METHODS = (
    "degrees",
    "adjacency_dense",
)
#: Identity-cache keys: state vectors and frontier aggregate arrays.
DEFAULT_GUARDED = (
    "black",
    "state",
    "states",
    "levels",
    "color",
    "colors",
    "counts",
    "has_black",
    "aux_counts",
    "aux_has",
    "stable",
    "covered",
)
#: Calls that count as "the caches were told" (method-name suffixes).
INVALIDATORS = ("_state_changed", "invalidate", "rebuild")


def _mutation_target(node: ast.AST) -> ast.AST | None:
    """The attribute/call expression an in-place mutation statement hits.

    Recognizes ``target[...] = v`` / ``target[...] op= v`` /
    ``target.fill(v)`` and returns the ``target`` expression.
    """
    if isinstance(node, ast.Assign):
        for t in node.targets:
            if isinstance(t, ast.Subscript):
                return t.value
    elif isinstance(node, ast.AugAssign) and isinstance(
        node.target, ast.Subscript
    ):
        return node.target.value
    elif (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Attribute)
        and node.value.func.attr == "fill"
    ):
        return node.value.func.value
    return None


def _scatter_targets(call: ast.Call) -> list[ast.AST]:
    """Arrays mutated by ``np.<ufunc>.at(arr, ...)`` or ``out=arr``."""
    out: list[ast.AST] = []
    name = dotted_name(call.func)
    if name is not None and name.endswith(".at") and call.args:
        out.append(call.args[0])
    for kw in call.keywords:
        if kw.arg == "out":
            out.append(kw.value)
    return out


def _attr_name(expr: ast.AST) -> str | None:
    """``attr`` for ``<receiver>.attr`` expressions (any receiver)."""
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _frozen_method_name(expr: ast.AST) -> str | None:
    """``degrees`` for ``<receiver>.degrees()`` call expressions."""
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and not expr.args
        and not expr.keywords
    ):
        return expr.func.attr
    return None


@register
class CacheInvalidationRule(Rule):
    name = "cache-invalidation"
    description = (
        "in-place mutation of identity-cached arrays must be adjacent "
        "to an invalidation or rebinding"
    )
    # The baselines keep no identity caches (every aggregate is computed
    # fresh), so only the cache-bearing layers are in scope by default.
    default_paths = (
        "src/repro/core",
        "src/repro/dynamic",
        "src/repro/graphs",
        "src/repro/models",
        "src/repro/sim",
    )

    def check(self, src: SourceFile, ctx: LintContext) -> list[Finding]:
        frozen = set(
            ctx.config.rule_option(self.name, "frozen", DEFAULT_FROZEN)
        )
        frozen_methods = set(
            ctx.config.rule_option(
                self.name, "frozen-methods", DEFAULT_FROZEN_METHODS
            )
        )
        guarded = set(
            ctx.config.rule_option(self.name, "guarded", DEFAULT_GUARDED)
        )
        findings: list[Finding] = []
        for node in ast.walk(src.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(
                    self._check_function(
                        src, node, frozen, frozen_methods, guarded
                    )
                )
        return findings

    def _check_function(
        self,
        src: SourceFile,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        frozen: set[str],
        frozen_methods: set[str],
        guarded: set[str],
    ) -> list[Finding]:
        # Gather every mutation and every absolution (invalidator call
        # or attribute rebinding) in this function body, then pair them.
        mutations: list[tuple[ast.AST, str, bool]] = []  # node, attr, frozen?
        absolutions: list[tuple[int, str | None]] = []  # line, attr-or-any

        for node in ast.walk(func):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is not func:
                    continue  # nested defs are scanned on their own
            target = _mutation_target(node)
            targets = [target] if target is not None else []
            if isinstance(node, ast.Call):
                targets.extend(_scatter_targets(node))
                name = dotted_name(node.func)
                if name is not None:
                    last = name.rsplit(".", 1)[-1]
                    if last in INVALIDATORS or last.startswith("_recompute"):
                        absolutions.append((node.lineno, None))
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    attr = _attr_name(t)
                    if attr is not None:
                        absolutions.append((node.lineno, attr))
            for t in targets:
                attr = _attr_name(t)
                if attr in frozen:
                    mutations.append((node, attr, True))
                elif attr in guarded:
                    mutations.append((node, attr, False))
                else:
                    method = _frozen_method_name(t)
                    if method in frozen_methods:
                        mutations.append((node, f"{method}()", True))

        findings: list[Finding] = []
        for node, attr, is_frozen in mutations:
            line = getattr(node, "lineno", func.lineno)
            if is_frozen:
                findings.append(
                    Finding(
                        path=src.rel,
                        line=line,
                        col=getattr(node, "col_offset", 0),
                        rule=self.name,
                        message=(
                            f"in-place mutation of immutable Graph view "
                            f"`{attr}`; derive a new graph instead"
                        ),
                    )
                )
                continue
            absolved = any(
                a_line >= line and a_attr in (None, attr)
                for a_line, a_attr in absolutions
            )
            if not absolved:
                findings.append(
                    Finding(
                        path=src.rel,
                        line=line,
                        col=getattr(node, "col_offset", 0),
                        rule=self.name,
                        message=(
                            f"in-place mutation of identity-cached "
                            f"`{attr}` with no invalidation or rebinding "
                            f"in `{func.name}`; call _state_changed()/"
                            "invalidate() or rebind the array"
                        ),
                    )
                )
        return findings
