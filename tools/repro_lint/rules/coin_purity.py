"""coin-purity: the §2.1 randomness discipline of the core engines.

Two sub-checks over ``src/repro/core/**``:

1. **No direct RNG.**  All randomness must flow through
   :class:`repro.sim.rng.CoinSource`; ``np.random.*`` (except the
   ``Generator`` *type*, which appears in annotations), ``default_rng``
   and the stdlib ``random`` module are rejected.  A direct draw
   bypasses the seed-spawning discipline and silently forks the
   documented coin stream.

2. **No conditional coin draws.**  A ``bits``/``bits_into``/
   ``bernoulli`` call on a coin source, or a row draw
   (``CoinSource.bits_rows``/``bits_rows_at``/``bernoulli_rows``),
   must not sit inside an ``if``
   branch (or conditional expression): the paper's analysis draws
   φ_t for *all* n vertices every round in a fixed order, and a draw
   that executes on only some paths desynchronizes every draw after
   it.  Draws inside ``for``/``while`` bodies are fine (that is the
   per-round loop itself).  Documented exceptions — e.g. the one-off
   initial-state draw consumed only for ``init="random"`` — carry a
   ``# repro-lint: disable=coin-purity`` pragma.
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

#: ``np.random`` members that are types, not draw entry points.
_ALLOWED_NP_RANDOM = {"Generator", "BitGenerator", "SeedSequence"}
#: Methods that consume entries from a coin stream.
_DRAW_METHODS = {
    "bits",
    "bits_into",
    "bernoulli",
    "bits_rows",
    "bits_rows_at",
    "bernoulli_rows",
}


def _receiver_is_coin_source(func: ast.Attribute) -> bool:
    """Whether the call receiver looks like a coin source.

    Matches ``coins.bits(...)``, ``self.coins.bits(...)``,
    ``process.coins.bits(...)`` and the row draws' class receivers
    (``CoinSource.bits_rows(...)``, ``SeededCoins.bernoulli_rows(...)``)
    — any chain whose last component mentions coins, in any case.
    """
    name = dotted_name(func.value)
    if name is None:
        return False
    last = name.rsplit(".", 1)[-1]
    return "coin" in last.lower()


@register
class CoinPurityRule(Rule):
    name = "coin-purity"
    description = (
        "core randomness flows only through CoinSource, with no coin "
        "draw inside a conditional branch"
    )
    default_paths = ("src/repro/core",)

    def check(self, src: SourceFile, ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []

        def flag(node: ast.AST, message: str) -> None:
            findings.append(
                Finding(
                    path=src.rel,
                    line=getattr(node, "lineno", 0),
                    col=getattr(node, "col_offset", 0),
                    rule=self.name,
                    message=message,
                )
            )

        for node in ast.walk(src.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    mod = alias.name.split(".")[0]
                    if mod == "random":
                        flag(node, "stdlib `random` import in core; draw through CoinSource")
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root == "random":
                    flag(node, "stdlib `random` import in core; draw through CoinSource")
                elif (node.module or "").startswith("numpy.random"):
                    bad = [
                        a.name
                        for a in node.names
                        if a.name not in _ALLOWED_NP_RANDOM
                    ]
                    if bad:
                        flag(
                            node,
                            f"direct numpy.random import of {bad} in core; "
                            "draw through CoinSource",
                        )
            elif isinstance(node, ast.Attribute):
                name = dotted_name(node)
                if name is None:
                    continue
                for prefix in ("np.random.", "numpy.random."):
                    if name.startswith(prefix):
                        member = name[len(prefix):].split(".")[0]
                        if member not in _ALLOWED_NP_RANDOM:
                            flag(
                                node,
                                f"direct `{name}` in core; draw through "
                                "CoinSource",
                            )
                        break
            elif isinstance(node, ast.Name) and node.id == "default_rng":
                flag(
                    node,
                    "`default_rng` in core; draw through CoinSource",
                )

        findings.extend(self._conditional_draws(src))
        return findings

    def _conditional_draws(self, src: SourceFile) -> list[Finding]:
        findings: list[Finding] = []

        def scan(node: ast.AST, cond_depth: int) -> None:
            for child in ast.iter_child_nodes(node):
                depth = cond_depth
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # A nested function starts a fresh conditionality
                    # scope: its body runs when *it* is called.
                    depth = 0
                if isinstance(node, ast.If) and child in (
                    node.body + node.orelse
                ):
                    depth += 1
                elif isinstance(node, ast.IfExp) and child in (
                    node.body,
                    node.orelse,
                ):
                    depth += 1
                elif isinstance(node, ast.Try) and child not in node.body:
                    depth += 1
                if (
                    depth > 0
                    and isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr in _DRAW_METHODS
                    and _receiver_is_coin_source(child.func)
                ):
                    findings.append(
                        Finding(
                            path=src.rel,
                            line=child.lineno,
                            col=child.col_offset,
                            rule=self.name,
                            message=(
                                f"conditional coin draw `.{child.func.attr}` "
                                "can desynchronize the documented φ_t "
                                "stream order"
                            ),
                        )
                    )
                scan(child, depth)

        scan(src.tree, 0)
        return findings
