"""hot-loop-alloc: no fresh arrays inside per-round engine loops.

The engine run paths loop once per synchronous round; an array
constructor inside that loop allocates (and page-faults) every round,
where the established idiom is a preallocated reuse buffer written
through ``out=`` / ``CoinSource.bits_into`` / ``.fill``.  This rule flags
``np.zeros/ones/empty/full`` calls lexically inside a ``for``/``while``
loop of a run-path function (``run*`` / ``step`` / ``_advance*`` by
default, configurable).

Event-driven allocations (retirement bookkeeping, error paths) live in
helper functions the loop calls, which this lexical rule deliberately
does not descend into; truly per-round allocations that are cheaper
than the bookkeeping to avoid them carry a per-line pragma.
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

#: Fresh-array constructors to keep out of per-round loops.
ALLOCATORS = ("zeros", "ones", "empty", "full")
#: Run-path function name prefixes (exact match or prefix).
DEFAULT_FUNCTIONS = ("run", "_run", "step", "_advance")


def _is_run_path(name: str, patterns: tuple[str, ...]) -> bool:
    return any(name == p or name.startswith(p) for p in patterns)


@register
class HotLoopAllocRule(Rule):
    name = "hot-loop-alloc"
    description = (
        "fresh-array allocation inside a per-round engine loop; "
        "preallocate and reuse (out=, bits_into, .fill)"
    )
    default_paths = (
        "src/repro/core",
        "src/repro/sim/runner.py",
    )

    def check(self, src: SourceFile, ctx: LintContext) -> list[Finding]:
        patterns = tuple(
            ctx.config.rule_option(self.name, "functions", DEFAULT_FUNCTIONS)
        )
        findings: list[Finding] = []

        def scan_loop_body(node: ast.AST) -> None:
            """Flag allocators in this subtree (we are inside a loop)."""
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue  # closures run on their own schedule
                if isinstance(child, ast.Call):
                    name = dotted_name(child.func)
                    if name is not None:
                        head, _, member = name.rpartition(".")
                        if head in ("np", "numpy") and member in ALLOCATORS:
                            findings.append(
                                Finding(
                                    path=src.rel,
                                    line=child.lineno,
                                    col=child.col_offset,
                                    rule=self.name,
                                    message=(
                                        f"`np.{member}` allocates a fresh "
                                        "array every round; preallocate a "
                                        "reuse buffer (out=/bits_into/.fill)"
                                    ),
                                )
                            )
                scan_loop_body(child)

        def scan_function(func: ast.AST) -> None:
            for child in ast.iter_child_nodes(func):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if isinstance(child, (ast.For, ast.While)):
                    scan_loop_body(child)
                else:
                    scan_function(child)

        for node in ast.walk(src.tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and _is_run_path(node.name, patterns):
                scan_function(node)
        return findings
