"""Tests for the repro-lint invariant checker suite (tools/repro_lint).

Each AST rule gets three fixtures: a true positive (the rule fires), a
clean negative (it does not), and a suppressed positive (a
``# repro-lint: disable=<rule>`` pragma silences it).  The end-to-end
tests then assert the real repository lints clean at HEAD — the same
gate ``make lint`` and CI run.
"""

import json
import pathlib
import subprocess
import sys
import textwrap

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from tools.repro_lint.core import (  # noqa: E402
    Config,
    Finding,
    SourceFile,
    all_rules,
    load_config,
    path_matches,
    run_lint,
)
from tools.repro_lint.dataflow import ProjectIndex  # noqa: E402
from tools.repro_lint.rules import bench_floors, docs_drift  # noqa: E402

#: Default fixture location: inside every AST rule's path scope.
CORE_REL = "src/repro/core/fixture.py"


def lint_source(tmp_path, text, rule, rel=CORE_REL, config=None):
    """Lint one fixture snippet with a single rule; returns findings."""
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text))
    return run_lint(
        [path],
        tmp_path,
        config=config or Config(root=tmp_path),
        select=[rule],
    )


# ----------------------------------------------------------------------
# coin-purity
# ----------------------------------------------------------------------
def test_coin_purity_flags_conditional_draw(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        def resolve(coins, flag):
            if flag:
                return coins.bits(8)
            return None
        """,
        "coin-purity",
    )
    assert len(findings) == 1
    assert "conditional coin draw" in findings[0].message


def test_coin_purity_flags_conditional_row_draws(tmp_path):
    # Row draws take their sources as an argument: the receiver is the
    # class, whose name spells "Coin" with a capital C.
    findings = lint_source(
        tmp_path,
        """
        from repro.sim.rng import CoinSource, SeededCoins

        class Engine:
            def _advance_rows(self, sources, flag):
                if flag:
                    phi = CoinSource.bits_rows(sources, 8)
                else:
                    phi = SeededCoins.bernoulli_rows(sources, 8, [0.5])
                return phi
        """,
        "coin-purity",
    )
    assert [f.line for f in findings] == [7, 9]
    assert "`.bits_rows`" in findings[0].message
    assert "`.bernoulli_rows`" in findings[1].message


def test_coin_purity_flags_direct_numpy_random(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import numpy as np

        def draw(n):
            return np.random.rand(n)
        """,
        "coin-purity",
    )
    assert len(findings) == 1
    assert "np.random.rand" in findings[0].message


def test_coin_purity_flags_default_rng_and_random_import(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import random
        from numpy.random import default_rng
        """,
        "coin-purity",
    )
    assert {("stdlib" in f.message) for f in findings} == {True, False}
    assert len(findings) == 2


def test_coin_purity_clean_unconditional_draw(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        def step(self):
            phi = self.coins.bits(self.n)
            return phi
        """,
        "coin-purity",
    )
    assert findings == []


def test_coin_purity_draws_in_loops_are_fine(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        def run(self, rounds):
            for _ in range(rounds):
                phi = self.coins.bits(self.n)
        """,
        "coin-purity",
    )
    assert findings == []


def test_coin_purity_pragma_suppresses(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        def resolve(coins, init):
            if init == "random":
                return coins.bits(8)  # repro-lint: disable=coin-purity
            return init
        """,
        "coin-purity",
    )
    assert findings == []


def test_coin_purity_ignores_files_outside_core(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import numpy as np

        def draw(n):
            return np.random.rand(n)
        """,
        "coin-purity",
        rel="src/repro/baselines/fixture.py",
    )
    assert findings == []


# ----------------------------------------------------------------------
# cache-invalidation
# ----------------------------------------------------------------------
def test_cache_invalidation_flags_unabsolved_mutation(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        class P:
            def corrupt(self, idx):
                self.black[idx] = True
        """,
        "cache-invalidation",
    )
    assert len(findings) == 1
    assert "identity-cached" in findings[0].message


def test_cache_invalidation_invalidator_absolves(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        class P:
            def corrupt(self, idx):
                self.black[idx] = True
                self._state_changed()
        """,
        "cache-invalidation",
    )
    assert findings == []


def test_cache_invalidation_rebinding_absolves(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        class P:
            def corrupt(self, idx, new):
                self.black[idx] = True
                self.black = self.black.copy()
        """,
        "cache-invalidation",
    )
    assert findings == []


def test_cache_invalidation_frozen_views_never_absolved(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        def mutate(graph):
            graph.indptr[0] = 1
            graph._state_changed()
        """,
        "cache-invalidation",
    )
    assert len(findings) == 1
    assert "immutable Graph view" in findings[0].message


def test_cache_invalidation_pragma_suppresses(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        class P:
            def corrupt(self, idx):
                self.black[idx] = True  # repro-lint: disable=cache-invalidation
        """,
        "cache-invalidation",
    )
    assert findings == []


def test_cache_invalidation_config_allowlist(tmp_path):
    config = Config(
        root=tmp_path,
        rules={"cache-invalidation": {"allow": [CORE_REL]}},
    )
    findings = lint_source(
        tmp_path,
        """
        class P:
            def corrupt(self, idx):
                self.black[idx] = True
        """,
        "cache-invalidation",
        config=config,
    )
    assert findings == []


# ----------------------------------------------------------------------
# dtype-discipline
# ----------------------------------------------------------------------
def test_dtype_flags_bare_constructors_and_widening(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import numpy as np

        def build(n, x):
            a = np.zeros(n)
            b = np.cumsum(x)
            c = x.sum(axis=1)
            return a, b, c
        """,
        "dtype-discipline",
    )
    assert len(findings) == 3


def test_dtype_clean_with_explicit_dtype(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import numpy as np

        def build(n, x):
            a = np.zeros(n, dtype=np.int64)
            b = np.cumsum(x, dtype=np.int64)
            c = x.sum(axis=1, dtype=np.int32)
            d = x.sum()  # scalar reduction: no array accumulator
            return a, b, c, d
        """,
        "dtype-discipline",
    )
    assert findings == []


def test_dtype_pragma_suppresses(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import numpy as np

        def build(n):
            return np.zeros(n)  # repro-lint: disable=dtype-discipline
        """,
        "dtype-discipline",
    )
    assert findings == []


def test_dtype_flags_bare_literal_ufunc_at(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import numpy as np

        def scatter(counts, up, down, rows):
            np.add.at(counts, up, 1)
            np.subtract.at(counts, down, 1)
            np.add.at(counts, rows, -1)
            numpy.maximum.at(counts, rows, 2.5)
        """,
        "dtype-discipline",
    )
    assert len(findings) == 4
    assert all("ufunc.at" in f.message for f in findings)


def test_dtype_ufunc_at_in_dynamic_modules(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import numpy as np

        def scatter(counts, nbrs):
            np.add.at(counts, nbrs, 1)
        """,
        "dtype-discipline",
        rel="src/repro/dynamic/fixture.py",
    )
    assert len(findings) == 1


def test_dtype_clean_typed_ufunc_at(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import numpy as np

        def scatter(counts, up, down, vol, degs, sign, mask):
            one = counts.dtype.type(1)
            np.add.at(counts, up, one)
            np.subtract.at(counts, down, np.int32(1))
            np.add.at(vol, up, degs)
            np.add.at(counts, down, sign)
            np.logical_or.at(mask, up, True)
        """,
        "dtype-discipline",
    )
    assert findings == []


def test_dtype_ufunc_at_pragma_suppresses(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import numpy as np

        def scatter(counts64, up):
            np.add.at(counts64, up, 1)  # repro-lint: disable=dtype-discipline
        """,
        "dtype-discipline",
    )
    assert findings == []


# ----------------------------------------------------------------------
# hot-loop-alloc
# ----------------------------------------------------------------------
def test_hot_loop_alloc_flags_allocation_in_run_loop(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import numpy as np

        def run(self, rounds):
            for _ in range(rounds):
                buf = np.zeros(self.n, dtype=bool)
        """,
        "hot-loop-alloc",
    )
    assert len(findings) == 1
    assert "every round" in findings[0].message


def test_hot_loop_alloc_clean_with_reuse_buffer(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import numpy as np

        def run(self, rounds):
            buf = np.zeros(self.n, dtype=bool)
            for _ in range(rounds):
                buf.fill(False)
        """,
        "hot-loop-alloc",
    )
    assert findings == []


def test_hot_loop_alloc_ignores_non_run_functions(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import numpy as np

        def retire(self, rows):
            for r in rows:
                scratch = np.zeros(self.n, dtype=bool)
        """,
        "hot-loop-alloc",
    )
    assert findings == []


def test_hot_loop_alloc_pragma_suppresses(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import numpy as np

        def run(self, rounds):
            for _ in range(rounds):
                buf = np.zeros(self.n, dtype=bool)  # repro-lint: disable=hot-loop-alloc
        """,
        "hot-loop-alloc",
    )
    assert findings == []


# ----------------------------------------------------------------------
# coin-flow (dataflow rule: transitive conditional draws)
# ----------------------------------------------------------------------
def test_coin_flow_flags_conditional_transitive_draw(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        class Engine:
            def _draw(self):
                return self.coins.bits(8)

            def _maybe(self):
                return self._draw()

            def step(self, flag):
                if flag:
                    self._maybe()
        """,
        "coin-flow",
    )
    assert len(findings) == 1
    assert "transitively draws" in findings[0].message
    assert "_maybe" in findings[0].message  # witness chain


def test_coin_flow_flags_conditional_row_draw(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        from repro.sim.rng import CoinSource

        class Engine:
            def _phi_at(self, sources, rows, verts):
                return CoinSource.bits_rows_at(sources, 8, rows, verts)

            def _advance_rows(self, sources, rows, verts, flag):
                if flag:
                    return self._phi_at(sources, rows, verts)
        """,
        "coin-flow",
    )
    assert len(findings) == 1
    assert "_phi_at" in findings[0].message


def test_coin_flow_clean_unconditional_and_loops(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        class Engine:
            def _draw(self):
                return self.coins.bits(8)

            def step(self):
                for _ in range(4):
                    self._draw()

            def run(self):
                self._draw()
        """,
        "coin-flow",
    )
    assert findings == []


def test_coin_flow_literal_draws_left_to_coin_purity(tmp_path):
    # A literal conditional draw is coin-purity's finding, not ours.
    findings = lint_source(
        tmp_path,
        """
        class Engine:
            def step(self, flag):
                if flag:
                    return self.coins.bits(8)
        """,
        "coin-flow",
    )
    assert findings == []


def test_coin_flow_only_fires_in_hot_functions(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        class Engine:
            def _draw(self):
                return self.coins.bits(8)

            def describe(self, flag):
                if flag:
                    self._draw()
        """,
        "coin-flow",
    )
    assert findings == []


def test_coin_flow_pragma_suppresses(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        class Engine:
            def _draw(self):
                return self.coins.bits(8)

            def step(self, flag):
                if flag:
                    self._draw()  # repro-lint: disable=coin-flow
        """,
        "coin-flow",
    )
    assert findings == []


# ----------------------------------------------------------------------
# parallel-safety
# ----------------------------------------------------------------------
def test_parallel_safety_flags_lambda_into_pool(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        def sweep(pool, xs):
            return pool.map(lambda x: x + 1, xs)
        """,
        "parallel-safety",
    )
    assert len(findings) == 1
    assert "lambda" in findings[0].message


def test_parallel_safety_flags_local_def_and_bound_method(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        class Sweeper:
            def go(self, executor, xs):
                def work(x):
                    return x

                a = executor.submit(work, xs)
                b = executor.map(self._work, xs)
                return a, b
        """,
        "parallel-safety",
    )
    messages = " | ".join(f.message for f in findings)
    assert "locally defined function `work`" in messages
    assert "bound method `self._work`" in messages
    assert len(findings) == 2


def test_parallel_safety_flags_lambda_at_n_jobs_site(tmp_path):
    # A generic callee advertising n_jobs still pickles its callables.
    findings = lint_source(
        tmp_path,
        """
        def run_sweep(grid):
            return some_external_sweep(
                lambda s: make(s), grid, n_jobs=4
            )
        """,
        "parallel-safety",
    )
    assert len(findings) == 1
    assert "n_jobs" in findings[0].message


def test_parallel_safety_exempts_fleet_dispatch_callees(tmp_path):
    # The repro.parallel fleet entry points shard replicas in-process:
    # lambdas/closures never cross the pickle boundary there.
    findings = lint_source(
        tmp_path,
        """
        def run_sweep(grid):
            def factory(seed):
                return make(seed)

            a = sweep_stabilization_times(
                lambda n: make(n), grid, n_jobs=4
            )
            b = estimate_stabilization_time(factory, 8, 100, n_jobs=2)
            return a, b
        """,
        "parallel-safety",
    )
    assert findings == []


def test_parallel_safety_flags_worker_global_mutation(tmp_path):
    # Indexed path: the worker is resolved through the call graph.
    findings = lint_source(
        tmp_path,
        """
        _CACHE = {}

        def _record(x):
            _CACHE[x] = x

        def _work(x):
            _record(x)
            return x

        def sweep(pool, xs):
            return pool.map(_work, xs)
        """,
        "parallel-safety",
    )
    assert len(findings) == 1
    assert "_CACHE" in findings[0].message
    assert "start-method" in findings[0].message


def test_parallel_safety_same_file_fallback_outside_index(tmp_path):
    # tools/ is outside the dataflow roots: same-file scan still works.
    findings = lint_source(
        tmp_path,
        """
        _SEEN = []

        def _work(x):
            _SEEN.append(x)
            global _SEEN_COUNT
            _SEEN_COUNT = len(_SEEN)
            return x

        def sweep(pool, xs):
            return pool.map(_work, xs)
        """,
        "parallel-safety",
        rel="tools/fixture.py",
    )
    assert len(findings) == 1
    assert "_SEEN_COUNT" in findings[0].message


def test_parallel_safety_clean_module_level_worker(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        def _work(x):
            return x * 2

        def sweep(pool, xs):
            return pool.map(_work, xs)
        """,
        "parallel-safety",
    )
    assert findings == []


def test_parallel_safety_exempts_supervised_run_jobs(tmp_path):
    # SupervisedPool.run_jobs keeps its callable keywords on the
    # master side (local_runner/validate/on_result are supervision
    # hooks) — lambdas there are idiomatic, not a pickle hazard.
    findings = lint_source(
        tmp_path,
        """
        def dispatch(pool, jobs, registry):
            return pool.run_jobs(
                jobs,
                local_runner=lambda job: run_shard(registry, job),
                validate=lambda job, result: True,
            )
        """,
        "parallel-safety",
    )
    assert findings == []


def test_parallel_safety_exempts_master_guarded_mutation(tmp_path):
    # A function that bails out of child processes before mutating
    # (the open_default_journal idiom) is master-side only: the
    # mutation can never happen in a worker's module copy.
    findings = lint_source(
        tmp_path,
        """
        import multiprocessing as mp

        _counter = 0

        def _next_index():
            global _counter
            if mp.parent_process() is not None:
                return None
            _counter += 1
            return _counter

        def _work(x):
            _next_index()
            return x

        def sweep(pool, xs):
            return pool.map(_work, xs)
        """,
        "parallel-safety",
    )
    assert findings == []


def test_parallel_safety_unguarded_mutation_still_flagged(tmp_path):
    # Same shape without the parent_process() guard stays a finding.
    findings = lint_source(
        tmp_path,
        """
        _counter = 0

        def _next_index():
            global _counter
            _counter += 1
            return _counter

        def _work(x):
            _next_index()
            return x

        def sweep(pool, xs):
            return pool.map(_work, xs)
        """,
        "parallel-safety",
    )
    assert len(findings) == 1
    assert "_counter" in findings[0].message


def test_parallel_safety_pragma_suppresses(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        def sweep(pool, xs):
            return pool.map(lambda x: x + 1, xs)  # repro-lint: disable=parallel-safety
        """,
        "parallel-safety",
    )
    assert findings == []


# ----------------------------------------------------------------------
# alias-escape
# ----------------------------------------------------------------------
def test_alias_escape_flags_subscript_store(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        def corrupt(graph):
            d = graph.degrees()
            d[0] = 99
        """,
        "alias-escape",
    )
    assert len(findings) == 1
    assert "degrees()" in findings[0].message


def test_alias_escape_tracks_unpack_and_method_mutation(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        def corrupt(graph):
            indptr, indices = graph.adjacency_csr()
            indices.fill(0)
        """,
        "alias-escape",
    )
    assert len(findings) == 1
    assert "adjacency_csr()" in findings[0].message


def test_alias_escape_tracks_row_views_and_augassign(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        def corrupt(graph, v):
            a = graph.adjacency_dense()
            row = a[v]
            row |= 1
        """,
        "alias-escape",
    )
    assert len(findings) == 1
    assert "adjacency_dense()" in findings[0].message


def test_alias_escape_copy_breaks_the_alias(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import numpy as np

        def fine(graph):
            d = graph.degrees().copy()
            d[0] = 99
            e = graph.degrees()
            e = e.astype(np.int64)
            e[0] = 99
            f = np.array(graph.adjacency_dense())
            f[0, 0] = True
        """,
        "alias-escape",
    )
    assert findings == []


def test_alias_escape_out_keyword_and_ufunc_at(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import numpy as np

        def corrupt(graph, idx, vals):
            d = graph.degrees()
            np.add.at(d, idx, vals)
            np.cumsum(vals, out=d)
        """,
        "alias-escape",
    )
    assert len(findings) == 2


def test_alias_escape_pragma_suppresses(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        def corrupt(graph):
            d = graph.degrees()
            d[0] = 99  # repro-lint: disable=alias-escape
        """,
        "alias-escape",
    )
    assert findings == []


# ----------------------------------------------------------------------
# reduction-budget
# ----------------------------------------------------------------------
def test_reduction_budget_flags_over_budget_loop(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        def _advance(self, rounds):
            # reduction-budget: 1
            for _ in range(rounds):
                a = self.ops.count(self.black)
                b = self.ops.exists(self.white)
        """,
        "reduction-budget",
    )
    assert len(findings) == 1
    assert "2 lexical" in findings[0].message
    assert "reduction-budget: 1" in findings[0].message


def test_reduction_budget_requires_annotation_in_run_paths(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        def run(self):
            while True:
                c = self.ops.count(self.black)
        """,
        "reduction-budget",
    )
    assert len(findings) == 1
    assert "without a" in findings[0].message


def test_reduction_budget_clean_within_budget_and_helpers(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        def run(self, rounds):
            # reduction-budget: 2
            for _ in range(rounds):
                a = self.ops.count(self.black)
                b = self.ops.exists(self.white)

        def helper(self, xs):
            for x in xs:
                self.ops.count(x)
        """,
        "reduction-budget",
    )
    assert findings == []


def test_reduction_budget_annotation_on_loop_line(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        def run(self, rounds):
            for _ in range(rounds):  # reduction-budget: 1
                self.ops.count(self.black)
        """,
        "reduction-budget",
    )
    assert findings == []


def test_reduction_budget_counts_configured_wrappers(tmp_path):
    config = Config(
        root=tmp_path,
        rules={"reduction-budget": {"methods": ["_count_nbrs"]}},
    )
    findings = lint_source(
        tmp_path,
        """
        def run(self):
            while True:
                self._count_nbrs(self.black)
        """,
        "reduction-budget",
        config=config,
    )
    assert len(findings) == 1


def test_reduction_budget_pragma_suppresses(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        def run(self):
            while True:  # repro-lint: disable=reduction-budget
                c = self.ops.count(self.black)
        """,
        "reduction-budget",
    )
    assert findings == []


# ----------------------------------------------------------------------
# Dataflow core (tools/repro_lint/dataflow.py)
# ----------------------------------------------------------------------
def _write_pkg(tmp_path, files):
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))


def test_dataflow_resolves_reexport_chains(tmp_path):
    _write_pkg(
        tmp_path,
        {
            "src/repro/__init__.py": "from repro.core import Engine\n",
            "src/repro/core/__init__.py": (
                "from repro.core.engine import Engine\n"
            ),
            "src/repro/core/engine.py": (
                "class Engine:\n    def run(self):\n        pass\n"
            ),
            "src/repro/user.py": (
                "from repro import Engine\n\n"
                "def make():\n    return Engine()\n"
            ),
        },
    )
    index = ProjectIndex.build(tmp_path)
    assert index.unresolved_imports == []
    assert (
        index.resolve_in_module("repro.user", "Engine")
        == "repro.core.engine.Engine"
    )


def test_dataflow_import_cycles_terminate(tmp_path):
    # Mutually recursive re-exports with no definition anywhere: the
    # resolver must terminate (cycle guard) and report, not recurse.
    _write_pkg(
        tmp_path,
        {
            "src/repro/a.py": "from repro.b import ghost\n",
            "src/repro/b.py": "from repro.a import ghost\n",
        },
    )
    index = ProjectIndex.build(tmp_path)
    assert len(index.unresolved_imports) == 2
    # A resolvable cycle (modules importing each other's real
    # functions) resolves fine.
    _write_pkg(
        tmp_path,
        {
            "src/repro/c.py": (
                "from repro.d import g\n\ndef f():\n    return g()\n"
            ),
            "src/repro/d.py": (
                "from repro.c import f\n\ndef g():\n    return f()\n"
            ),
        },
    )
    index = ProjectIndex.build(tmp_path)
    assert index.resolve_qualified("repro.c.f") == "repro.c.f"
    assert "repro.d.g" in index.callees("repro.c.f")
    assert "repro.c.f" in index.callees("repro.d.g")


def test_dataflow_dynamic_calls_degrade_to_warning(tmp_path):
    _write_pkg(
        tmp_path,
        {
            "src/repro/dyn.py": (
                "def run(table, key):\n"
                "    return table[key]()\n"
            ),
        },
    )
    index = ProjectIndex.build(tmp_path)
    assert any("dynamic call" in w for w in index.dynamic_calls)
    assert index.unresolved_imports == []  # warnings, not failures


def test_dataflow_dispatch_covers_subclass_overrides(tmp_path):
    _write_pkg(
        tmp_path,
        {
            "src/repro/base.py": (
                "class Base:\n"
                "    def step(self):\n"
                "        self._advance()\n"
                "    def _advance(self):\n"
                "        raise NotImplementedError\n"
            ),
            "src/repro/impl.py": (
                "from repro.base import Base\n\n"
                "class Impl(Base):\n"
                "    def _advance(self):\n"
                "        return self.coins.bits(4)\n"
            ),
        },
    )
    index = ProjectIndex.build(tmp_path)
    targets = index.dispatch("repro.base.Base", "_advance")
    assert "repro.impl.Impl._advance" in targets
    # step reaches the drawing override through the dispatch edge.
    assert "repro.base.Base.step" in index.coin_reaching()


def test_dataflow_unresolved_import_surfaces_as_run_lint_warning(tmp_path):
    warnings = []
    findings = lint_source_with_errors(
        tmp_path,
        """
        from repro.nowhere import ghost

        class Engine:
            def step(self, flag):
                if flag:
                    ghost()
        """,
        "coin-flow",
        warnings,
    )
    assert findings == []
    assert any(
        "warning" in w and "unresolved import" in w for w in warnings
    )


def lint_source_with_errors(tmp_path, text, rule, errors, rel=CORE_REL):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text))
    return run_lint(
        [path],
        tmp_path,
        config=Config(root=tmp_path),
        select=[rule],
        on_error=errors.append,
    )


def test_dataflow_repo_has_zero_unresolved_imports():
    # Acceptance gate: every intra-`repro` import in src/ resolves.
    index = ProjectIndex.build(REPO_ROOT)
    assert index.unresolved_imports == [], "\n".join(
        index.unresolved_imports
    )
    # Sanity: the index actually saw the codebase.
    assert len(index.modules) > 50
    assert index.resolve_qualified("repro.core.process.MISProcess")


def test_dataflow_hot_set_and_coin_closure_on_repo():
    index = ProjectIndex.build(REPO_ROOT)
    hot = index.hot_functions()
    draws = index.coin_reaching()
    assert "repro.core.process.MISProcess.step" in hot
    assert "repro.core.two_state.TwoStateMIS._advance" in hot
    assert "repro.core.two_state.TwoStateMIS._advance" in draws
    # The batched engines draw through the row draws' class receivers.
    assert "repro.core.batched._BatchedMISEngine._phi_rows" in draws
    assert (
        "repro.core.batched.BatchedTwoStateMIS._advance_rows_pairs" in draws
    )
    chain = index.draw_chain("repro.core.process.MISProcess.run")
    assert chain, "run() must transitively reach a draw"


# ----------------------------------------------------------------------
# bench-floors (project rule: validates BENCH_*.json artifacts)
# ----------------------------------------------------------------------
def _bench_entry(**overrides):
    entry = {
        "workload": "w",
        "seconds": 1.0,
        "speedup": 5.0,
        "floor": 3.0,
        "commit": "abc1234",
    }
    entry.update(overrides)
    return entry


def test_bench_floors_clean_file(tmp_path):
    path = tmp_path / "BENCH_ok.json"
    path.write_text(json.dumps([_bench_entry()]))
    findings, files = bench_floors.check_root(tmp_path)
    assert files == [path]
    assert findings == []


def test_bench_floors_flags_regression_and_missing_fields(tmp_path):
    path = tmp_path / "BENCH_bad.json"
    path.write_text(
        json.dumps(
            [
                _bench_entry(speedup=1.0),  # below its 3.0 floor
                {"workload": "incomplete"},  # missing fields
                _bench_entry(workload="dup"),
                _bench_entry(workload="dup"),  # duplicate label
                _bench_entry(workload="ungated", floor=0),
            ]
        )
    )
    findings, _ = bench_floors.check_root(tmp_path)
    messages = " | ".join(f.message for f in findings)
    assert "regressed below" in messages
    assert "missing fields" in messages
    assert "duplicate workload label" in messages
    assert "ungated" in messages
    assert len(findings) == 4


def test_bench_floors_reports_absent_trajectory(tmp_path):
    rule = all_rules()["bench-floors"]
    from tools.repro_lint.core import LintContext

    findings = rule.check_project(LintContext(config=Config(root=tmp_path)))
    assert len(findings) == 1
    assert "no BENCH_*.json" in findings[0].message


def test_bench_floors_unreadable_file(tmp_path):
    path = tmp_path / "BENCH_broken.json"
    path.write_text("{not json")
    findings, _ = bench_floors.check_root(tmp_path)
    assert len(findings) == 1
    assert "unreadable" in findings[0].message


# ----------------------------------------------------------------------
# docs-drift (project rule: docs/API.md freshness)
# ----------------------------------------------------------------------
def test_docs_drift_heading_diff():
    committed = "### `a.b` *function*\n### `a.c` *class*\n"
    fresh = "### `a.b` *function*\n### `a.d` *class*\n"
    drift = docs_drift.drifted_headings(committed, fresh)
    assert drift == ["### `a.c` *class*", "### `a.d` *class*"]
    assert docs_drift.drifted_headings(committed, committed) == []


def test_docs_drift_committed_reference_is_fresh():
    # Same invariant as tools/check_docs.py, through the rule's path.
    committed = (REPO_ROOT / "docs" / "API.md").read_text()
    assert committed == docs_drift.fresh_api_text(REPO_ROOT)


# ----------------------------------------------------------------------
# Core machinery
# ----------------------------------------------------------------------
def test_file_level_pragma_suppresses_whole_module(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        # repro-lint: disable-file=dtype-discipline
        import numpy as np

        def build(n):
            return np.zeros(n), np.ones(n)
        """,
        "dtype-discipline",
    )
    assert findings == []


def test_suppressed_checks_line_and_rule():
    src = SourceFile(
        pathlib.Path("x.py"),
        "x.py",
        "a = 1  # repro-lint: disable=dtype-discipline\nb = 2\n",
    )
    hit = Finding("x.py", 1, 0, "dtype-discipline", "m")
    other_line = Finding("x.py", 2, 0, "dtype-discipline", "m")
    other_rule = Finding("x.py", 1, 0, "coin-purity", "m")
    assert src.suppressed(hit)
    assert not src.suppressed(other_line)
    assert not src.suppressed(other_rule)


def test_suppressed_multiline_call_any_statement_line():
    text = (
        "x = build(\n"
        "    1,\n"
        "    2,\n"
        ")  # repro-lint: disable=dtype-discipline\n"
        "y = build(3)\n"
    )
    src = SourceFile(pathlib.Path("x.py"), "x.py", text)
    # Finding attributed to the statement's first line, pragma on its
    # last line: same statement, suppressed.
    assert src.suppressed(Finding("x.py", 1, 4, "dtype-discipline", "m"))
    assert src.suppressed(Finding("x.py", 2, 4, "dtype-discipline", "m"))
    # The next statement is not covered by that pragma.
    assert not src.suppressed(
        Finding("x.py", 5, 4, "dtype-discipline", "m")
    )


def test_suppressed_decorated_def_covers_header(tmp_path):
    text = (
        "@decorate  # repro-lint: disable=hot-loop-alloc\n"
        "def run(\n"
        "    rounds,\n"
        "):\n"
        "    pass\n"
    )
    src = SourceFile(pathlib.Path("x.py"), "x.py", text)
    # Findings on the def header lines share the decorator's statement.
    assert src.suppressed(Finding("x.py", 2, 0, "hot-loop-alloc", "m"))
    assert src.suppressed(Finding("x.py", 1, 1, "hot-loop-alloc", "m"))
    # The body is its own statement, not covered.
    assert not src.suppressed(Finding("x.py", 5, 4, "hot-loop-alloc", "m"))


def test_suppressed_multiline_end_to_end(tmp_path):
    # The rule reports on the call's first line; the pragma sits on the
    # closing-paren line.  Through run_lint, not just SourceFile.
    findings = lint_source(
        tmp_path,
        """
        import numpy as np

        def build(n, m):
            return np.zeros(
                (n, m),
            )  # repro-lint: disable=dtype-discipline
        """,
        "dtype-discipline",
    )
    assert findings == []


def test_path_matches_prefixes_and_globs():
    assert path_matches("src/repro/core/x.py", ("src/repro/core",))
    assert path_matches("src/repro/core/x.py", ("src/repro/core/*.py",))
    assert not path_matches("src/repro/baselines/x.py", ("src/repro/core",))


def test_unknown_rule_selection_raises(tmp_path):
    with pytest.raises(ValueError, match="unknown rule"):
        run_lint([tmp_path], tmp_path, select=["no-such-rule"])


def test_all_expected_rules_registered():
    assert set(all_rules()) >= {
        "coin-purity",
        "coin-flow",
        "cache-invalidation",
        "dtype-discipline",
        "hot-loop-alloc",
        "bench-floors",
        "docs-drift",
        "parallel-safety",
        "alias-escape",
        "reduction-budget",
    }


def test_syntax_error_reported_not_fatal(tmp_path):
    bad = tmp_path / "src" / "repro" / "core" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def broken(:\n")
    errors = []
    findings = run_lint(
        [bad],
        tmp_path,
        config=Config(root=tmp_path),
        select=["dtype-discipline"],
        on_error=errors.append,
    )
    assert findings == []
    assert len(errors) == 1 and "cannot lint" in errors[0]


# ----------------------------------------------------------------------
# End-to-end: the repository itself lints clean at HEAD
# ----------------------------------------------------------------------
def test_repository_lints_clean():
    findings = run_lint(
        [REPO_ROOT / "src"],
        REPO_ROOT,
        config=load_config(REPO_ROOT),
    )
    assert findings == [], "\n".join(f.render() for f in findings)


def test_cli_clean_and_list_rules():
    env_root = str(REPO_ROOT)
    proc = subprocess.run(
        [sys.executable, "-m", "tools.repro_lint", "src"],
        cwd=env_root,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "repro-lint: clean" in proc.stdout

    listed = subprocess.run(
        [sys.executable, "-m", "tools.repro_lint", "--list-rules"],
        cwd=env_root,
        capture_output=True,
        text=True,
    )
    assert listed.returncode == 0
    for rule in ("coin-purity", "bench-floors"):
        assert rule in listed.stdout


def test_cli_rejects_missing_path():
    proc = subprocess.run(
        [sys.executable, "-m", "tools.repro_lint", "no/such/dir"],
        cwd=str(REPO_ROOT),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_cli_default_surface_is_clean():
    # The acceptance gate: the whole configured lint surface at HEAD.
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "tools.repro_lint",
            "src",
            "tests",
            "benchmarks",
            "examples",
            "tools",
        ],
        cwd=str(REPO_ROOT),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "repro-lint: clean" in proc.stdout


def test_cli_json_format(tmp_path):
    fixture = tmp_path / "src" / "repro" / "core" / "fixture.py"
    fixture.parent.mkdir(parents=True)
    fixture.write_text(
        "def resolve(coins, flag):\n"
        "    if flag:\n"
        "        return coins.bits(8)\n"
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "tools.repro_lint",
            "--root",
            str(tmp_path),
            "--select",
            "coin-purity",
            "--format",
            "json",
            "src",
        ],
        cwd=str(REPO_ROOT),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert len(report["findings"]) == 1
    finding = report["findings"][0]
    assert finding["rule"] == "coin-purity"
    assert finding["path"] == "src/repro/core/fixture.py"
    assert finding["line"] == 3


def test_cli_github_format(tmp_path):
    fixture = tmp_path / "src" / "repro" / "core" / "fixture.py"
    fixture.parent.mkdir(parents=True)
    fixture.write_text(
        "def resolve(coins, flag):\n"
        "    if flag:\n"
        "        return coins.bits(8)\n"
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "tools.repro_lint",
            "--root",
            str(tmp_path),
            "--select",
            "coin-purity",
            "--format",
            "github",
            "src",
        ],
        cwd=str(REPO_ROOT),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert (
        "::error file=src/repro/core/fixture.py,line=3,"
        in proc.stdout
    )
    assert "title=repro-lint/coin-purity" in proc.stdout


def test_cli_max_seconds_budget():
    # A budget no real run can meet: exit 1 with the budget message.
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "tools.repro_lint",
            "--select",
            "coin-purity",
            "--max-seconds",
            "0.000001",
            "src",
        ],
        cwd=str(REPO_ROOT),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "runtime budget blown" in proc.stderr
    # And a sane budget passes (the CI gate is 10 s for the full run).
    ok = subprocess.run(
        [
            sys.executable,
            "-m",
            "tools.repro_lint",
            "--select",
            "coin-purity",
            "--max-seconds",
            "60",
            "src",
        ],
        cwd=str(REPO_ROOT),
        capture_output=True,
        text=True,
    )
    assert ok.returncode == 0
