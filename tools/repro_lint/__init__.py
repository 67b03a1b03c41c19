"""repro-lint: AST-level invariant checkers for the reproduction.

The runtime equivalence suites catch trajectory-identity violations
*after* someone writes one; this package rejects the violating code at
lint time.  One visitor per codebase invariant:

* ``coin-purity``        — randomness in ``src/repro/core/**`` flows only
  through :class:`repro.sim.rng.CoinSource`, and no coin draw hides in a
  conditional branch that could desynchronize the documented φ_t order.
* ``cache-invalidation`` — in-place mutation of identity-cached arrays
  (``Graph`` lazy views, process state vectors, frontier aggregates)
  must sit next to an invalidation or a rebinding.
* ``dtype-discipline``   — hot-path array allocations carry an explicit
  ``dtype=``; array-valued reductions do not silently widen to 64-bit;
  ``ufunc.at`` values are not bare numeric literals.
* ``hot-loop-alloc``     — no fresh-array constructors inside the
  per-round loops of engine run paths where a reuse-buffer idiom exists.
* ``bench-floors``       — every committed ``BENCH_*.json`` entry is
  well-formed and carries a regression floor its speedup meets.
* ``docs-drift``         — ``docs/API.md`` matches a regeneration, so
  every public symbol is documented.

Run it with ``python -m tools.repro_lint src/ tests/ benchmarks/`` (or
``make lint``).  Per-line suppressions use ``# repro-lint:
disable=<rule>``; per-rule path scopes and allowlists live in
``pyproject.toml`` under ``[tool.repro-lint]``.
"""

from __future__ import annotations

from tools.repro_lint.core import (
    Config,
    Finding,
    LintContext,
    ProjectRule,
    Rule,
    SourceFile,
    all_rules,
    load_config,
    register,
    run_lint,
)

__all__ = [
    "Config",
    "Finding",
    "LintContext",
    "ProjectRule",
    "Rule",
    "SourceFile",
    "all_rules",
    "load_config",
    "register",
    "run_lint",
]
