"""dtype-discipline: hot-path arrays say what they are.

In the hot-path modules (the core engine family, the Graph substrate
and the vectorized generators) an array constructor without an explicit
``dtype=`` is a latent perf/identity bug: ``np.zeros(n)`` is float64,
``np.arange(n)`` is platform-dependent, and a 64-bit array silently
doubles the memory traffic of a path tuned for int32/float32 — or, in
the worst case, changes a downstream cast and breaks the bitwise
trajectory-identity contract between backends.

Three sub-checks:

1. ``np.zeros`` / ``np.ones`` / ``np.empty`` / ``np.full`` /
   ``np.arange`` calls without a ``dtype=`` keyword.
2. Array-valued reductions that silently widen: ``.sum(axis=...)`` /
   ``np.sum(..., axis=...)`` / ``np.cumsum(...)`` with neither a
   ``dtype=`` nor an ``out=`` keyword accumulate int32/float32 inputs
   into 64-bit outputs on every 64-bit platform.
3. ``np.<ufunc>.at(arr, idx, <numeric literal>)``: numpy's ``ufunc.at``
   fast path needs the value in ``arr``'s dtype, and a bare Python
   literal is that only for int64 / float64 arrays — into the int32
   counts of the batched engines it costs ~10-30x per target.  Pass
   ``arr.dtype.type(1)`` (or a typed scalar) instead.

Intentional widenings (int64 by design) carry a per-line pragma.
"""

from __future__ import annotations

import ast

from tools.repro_lint.core import (
    Finding,
    LintContext,
    Rule,
    SourceFile,
    dotted_name,
    has_keyword,
    register,
)

#: Constructors that default to float64 / platform int.
CONSTRUCTORS = ("zeros", "ones", "empty", "full", "arange")
#: Free reductions whose accumulator silently widens.
WIDENING_FREE = ("sum", "cumsum", "prod", "cumprod")
#: Method reductions that widen when array-valued (``axis=`` given).
WIDENING_METHODS = ("sum", "prod")


def _numeric_literal(node: ast.AST) -> bool:
    """``1``, ``-1``, ``2.5``: a bare Python number (not a bool)."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    )


@register
class DtypeDisciplineRule(Rule):
    name = "dtype-discipline"
    description = (
        "hot-path array constructors need an explicit dtype; "
        "array-valued reductions must not silently widen to 64-bit; "
        "`ufunc.at` values must not be bare literals"
    )
    default_paths = (
        "src/repro/core",
        "src/repro/dynamic",
        "src/repro/graphs/graph.py",
        "src/repro/graphs/generators.py",
    )

    def check(self, src: SourceFile, ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []

        def flag(node: ast.Call, message: str) -> None:
            findings.append(
                Finding(
                    path=src.rel,
                    line=node.lineno,
                    col=node.col_offset,
                    rule=self.name,
                    message=message,
                )
            )

        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            head, _, member = name.rpartition(".")
            ufunc_head, _, ufunc = head.rpartition(".")
            if (
                member == "at"
                and ufunc_head in ("np", "numpy")
                and len(node.args) >= 3
                and _numeric_literal(node.args[2])
            ):
                flag(
                    node,
                    f"`np.{ufunc}.at` with a bare numeric literal misses "
                    "the ufunc.at fast path unless the array is 64-bit; "
                    "pass a scalar of the array's dtype",
                )
            elif head in ("np", "numpy"):
                if member in CONSTRUCTORS and not has_keyword(node, "dtype"):
                    flag(
                        node,
                        f"`np.{member}` without explicit dtype= in a "
                        "hot-path module (float64/platform-int default)",
                    )
                elif (
                    member in WIDENING_FREE
                    and not has_keyword(node, "dtype")
                    and not has_keyword(node, "out")
                    and (member.startswith("cum") or has_keyword(node, "axis"))
                ):
                    flag(
                        node,
                        f"`np.{member}` without dtype=/out= silently "
                        "widens the accumulator to 64-bit",
                    )
            elif (
                head
                and head not in ("np", "numpy")
                and member in WIDENING_METHODS
                and has_keyword(node, "axis")
                and not has_keyword(node, "dtype")
                and not has_keyword(node, "out")
            ):
                flag(
                    node,
                    f"array-valued `.{member}(axis=...)` without dtype= "
                    "silently widens the accumulator to 64-bit",
                )
        return findings
