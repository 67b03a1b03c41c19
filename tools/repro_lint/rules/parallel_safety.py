"""parallel-safety: what may cross a process-pool boundary.

Any code that hands work to ``multiprocessing`` or
``concurrent.futures`` workers — or to an API advertising ``n_jobs=`` —
risks the same two silent failure modes:

1. **Unpicklable work units.**  Lambdas, closures, locally defined
   functions/classes and bound methods cannot cross the pickle
   boundary.  This rule flags them *statically* at the call site:
   arguments in worker position at pool/executor calls (``pool.map``,
   ``executor.submit``, ``Process(target=...)``) and callables passed
   alongside an ``n_jobs=`` keyword.  The fleet-dispatch entry points
   of :mod:`repro.parallel` (:data:`_FLEET_SAFE_CALLEES`) are exempt:
   their ``n_jobs`` shards *replicas* as packed records and the
   callable never crosses the boundary.  Likewise exempt:
   ``SupervisedPool.run_jobs`` (:data:`_MASTER_SIDE_POOL_METHODS`),
   whose callable keywords (``local_runner``/``validate``/
   ``on_result``) are supervision hooks invoked in the dispatching
   process — lambdas there are idiomatic, not a pickle hazard.

2. **Worker-side module-global mutation.**  A worker process runs in a
   *copy* of the module: mutating a module-level binding there is lost
   on the parent side (fork) or re-executed per worker (spawn), and
   either way the result depends on the start method.  Using the
   project call graph, the rule walks everything reachable from a
   resolvable worker function and flags ``global`` rebinding and
   in-place mutation of module-level state.  Functions that *guard*
   their mutation behind a master-only check — an ``if`` testing
   ``multiprocessing.parent_process()`` that returns before the
   mutation (the :func:`repro.sim.checkpoint.open_default_journal`
   idiom) — are recognized by :func:`_master_guarded` and exempted:
   a child process provably bails out before reaching the global.

Files outside the indexed package roots degrade to a same-file check:
worker functions defined at module level in the same file are scanned
directly, and unresolvable workers are skipped (never a crash).
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

#: Methods on pool/executor receivers that take a worker callable
#: as their first positional argument.
_POOL_METHODS = {
    "map",
    "imap",
    "imap_unordered",
    "map_async",
    "starmap",
    "starmap_async",
    "submit",
    "apply",
    "apply_async",
}
#: Constructors whose keyword arguments carry worker callables.
_WORKER_CTORS = {"Process", "Pool", "ProcessPoolExecutor", "ThreadPoolExecutor"}
#: Keyword arguments that carry callables across the boundary.
_WORKER_KWARGS = {"target", "func", "function", "initializer"}
#: Callees whose ``n_jobs`` shards replicas as packed records (the
#: repro.parallel fleet dispatch): callable arguments stay on the
#: master side, so closures and lambdas are safe.
_FLEET_SAFE_CALLEES = {
    "run_many_until_stable",
    "estimate_stabilization_time",
    "run_fleet_sharded",
    "_estimate_journaled",
}

#: Pool methods whose callable keywords run on the MASTER side, never
#: crossing a pickle boundary: ``SupervisedPool.run_jobs`` takes
#: ``local_runner`` (deadline degradation), ``validate`` (poison
#: quarantine), and ``on_result`` (checkpoint journaling) — all are
#: invoked by the supervision loop in the dispatching process, so
#: lambdas and closures are the *idiomatic* arguments there.
_MASTER_SIDE_POOL_METHODS = {"run_jobs"}


def _receiver_is_pool(func: ast.Attribute) -> bool:
    name = dotted_name(func.value)
    if name is None:
        return False
    last = name.rsplit(".", 1)[-1].lower()
    return "pool" in last or "executor" in last


class _Scope:
    """Names defined inside one function body (closure territory)."""

    def __init__(self, fn: ast.AST | None, tree: ast.AST) -> None:
        self.local_callables: dict[str, str] = {}  # name -> kind
        self.local_names: set[str] = set()
        if fn is None:
            return
        args = fn.args
        for a in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            self.local_names.add(a.arg)
        for node in ast.walk(fn):
            if node is fn:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.local_callables[node.name] = "locally defined function"
            elif isinstance(node, ast.ClassDef):
                self.local_callables[node.name] = "locally defined class"
            elif isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        self.local_names.add(t.id)
                        if isinstance(node.value, ast.Lambda):
                            self.local_callables[t.id] = "lambda"


@register
class ParallelSafetyRule(Rule):
    name = "parallel-safety"
    description = (
        "no lambdas/closures/bound methods into pool or n_jobs call "
        "sites, no module-global mutation reachable from workers"
    )
    default_paths = None  # everywhere linted

    def check(self, src: SourceFile, ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        # Walk each function scope (and the module top level) once.
        scopes: list[tuple[ast.AST | None, ast.AST]] = [(None, src.tree)]
        for node in ast.walk(src.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append((node, node))
        for fn, tree in scopes:
            scope = _Scope(fn, tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    findings.extend(
                        self._check_site(src, ctx, scope, node)
                    )
        # A call site inside a nested function is seen from both the
        # outer and the inner scope; deduplicate by position.
        unique = {(f.line, f.col, f.message): f for f in findings}
        return list(unique.values())

    # ------------------------------------------------------------------
    def _check_site(
        self,
        src: SourceFile,
        ctx: LintContext,
        scope: _Scope,
        call: ast.Call,
    ) -> list[Finding]:
        site = None
        workers: list[ast.expr] = []
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _MASTER_SIDE_POOL_METHODS
            and _receiver_is_pool(call.func)
        ):
            # SupervisedPool.run_jobs: its callable keywords stay on
            # the master side of the supervision loop — fleet-safe.
            return []
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _POOL_METHODS
            and _receiver_is_pool(call.func)
        ):
            site = f"`.{call.func.attr}` pool call"
            if call.args:
                workers.append(call.args[0])
        else:
            callee = dotted_name(call.func)
            if (
                callee is not None
                and callee.rsplit(".", 1)[-1] in _WORKER_CTORS
            ):
                site = f"`{callee.rsplit('.', 1)[-1]}(...)`"
        if site is not None:
            workers.extend(
                kw.value
                for kw in call.keywords
                if kw.arg in _WORKER_KWARGS
            )
        elif any(kw.arg == "n_jobs" for kw in call.keywords):
            callee = dotted_name(call.func)
            base = callee.rsplit(".", 1)[-1] if callee is not None else None
            if base in _FLEET_SAFE_CALLEES:
                # Fleet dispatch: replicas are sharded in-process and
                # the callable never crosses the pickle boundary.
                return []
            # A function advertising parallelism: every callable
            # argument may end up on the worker side.
            site = "call with `n_jobs=`"
            workers.extend(
                a
                for a in list(call.args)
                + [kw.value for kw in call.keywords]
                if isinstance(a, ast.Lambda)
                or (
                    isinstance(a, ast.Name)
                    and a.id in scope.local_callables
                )
            )
        if site is None or not workers:
            return []

        findings: list[Finding] = []

        def flag(node: ast.expr, message: str) -> None:
            findings.append(
                Finding(
                    path=src.rel,
                    line=node.lineno,
                    col=node.col_offset,
                    rule=self.name,
                    message=message,
                )
            )

        for worker in workers:
            if isinstance(worker, ast.Lambda):
                flag(
                    worker,
                    f"lambda passed to {site}: lambdas do not pickle "
                    "across the process boundary",
                )
            elif (
                isinstance(worker, ast.Name)
                and worker.id in scope.local_callables
            ):
                kind = scope.local_callables[worker.id]
                flag(
                    worker,
                    f"{kind} `{worker.id}` passed to {site}: closures "
                    "and local definitions do not pickle across the "
                    "process boundary",
                )
            elif isinstance(worker, ast.Attribute):
                recv = worker.value
                if isinstance(recv, ast.Name) and (
                    recv.id == "self" or recv.id in scope.local_names
                ):
                    flag(
                        worker,
                        f"bound method `{recv.id}.{worker.attr}` passed "
                        f"to {site}: it drags the whole instance through "
                        "pickle (or fails outright)",
                    )
                else:
                    findings.extend(
                        self._worker_global_mutation(src, ctx, worker)
                    )
            elif isinstance(worker, ast.Name):
                findings.extend(
                    self._worker_global_mutation(src, ctx, worker)
                )
        return findings

    # ------------------------------------------------------------------
    def _worker_global_mutation(
        self, src: SourceFile, ctx: LintContext, worker: ast.expr
    ) -> list[Finding]:
        """Flag module-global mutation reachable from a worker fn."""
        name = dotted_name(worker)
        if name is None:
            return []
        index = ctx.project_index()
        mod = index.module_for(src.rel)
        if mod is not None:
            qname = index.resolve_in_module(mod.name, name)
            if qname is None or qname not in index.functions:
                return []  # unresolvable worker: degrade silently
            closure = {qname}
            queue = [qname]
            while queue:
                for callee in index.callees(queue.pop()):
                    if callee not in closure:
                        closure.add(callee)
                        queue.append(callee)
            findings = []
            for fq in sorted(closure):
                finfo = index.functions[fq]
                fmod = index.modules.get(finfo.module)
                if _master_guarded(finfo.node):
                    continue
                mutated = _global_mutations(
                    finfo.node, fmod.globals if fmod else set()
                )
                for gname in mutated:
                    findings.append(
                        Finding(
                            path=src.rel,
                            line=worker.lineno,
                            col=worker.col_offset,
                            rule=self.name,
                            message=(
                                f"worker `{name}` reaches "
                                f"`{fq.rsplit('.', 1)[-1]}`, which "
                                f"mutates module global `{gname}`; "
                                "worker processes mutate a copy, so "
                                "the result is start-method-dependent"
                            ),
                        )
                    )
            return findings
        # Same-file fallback: scan a module-level def of that name.
        if "." in name:
            return []
        for node in src.tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == name
            ):
                module_globals = {
                    t.id
                    for stmt in src.tree.body
                    if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                    for t in (
                        stmt.targets
                        if isinstance(stmt, ast.Assign)
                        else [stmt.target]
                    )
                    if isinstance(t, ast.Name)
                }
                return [
                    Finding(
                        path=src.rel,
                        line=worker.lineno,
                        col=worker.col_offset,
                        rule=self.name,
                        message=(
                            f"worker `{name}` mutates module global "
                            f"`{gname}`; worker processes mutate a "
                            "copy, so the result is "
                            "start-method-dependent"
                        ),
                    )
                    for gname in _global_mutations(node, module_globals)
                ]
        return []


def _master_guarded(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Whether ``fn`` bails out of child processes before mutating.

    Recognizes the master-only guard idiom::

        if ... mp.parent_process() is not None ...:
            return ...
        global _counter
        _counter += 1

    i.e. a top-level ``if`` whose test calls ``parent_process`` and
    whose body ends in ``return``.  A child process (where
    ``parent_process()`` is non-``None``) provably returns before any
    module-global mutation below the guard, so the mutation is
    master-side only and start-method-independent.
    """
    for stmt in fn.body:
        if not isinstance(stmt, ast.If):
            continue
        calls_parent_process = any(
            isinstance(node, ast.Call)
            and (
                (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "parent_process"
                )
                or (
                    isinstance(node.func, ast.Name)
                    and node.func.id == "parent_process"
                )
            )
            for node in ast.walk(stmt.test)
        )
        if calls_parent_process and stmt.body and isinstance(
            stmt.body[-1], ast.Return
        ):
            return True
    return False


def _global_mutations(
    fn: ast.FunctionDef | ast.AsyncFunctionDef, module_globals: set[str]
) -> list[str]:
    """Module-level names this function rebinds or mutates in place."""
    params = {a.arg for a in fn.args.args + fn.args.kwonlyargs}
    out: list[str] = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            out.extend(node.names)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for t in targets:
                root = t
                while isinstance(root, (ast.Subscript, ast.Attribute)):
                    root = root.value
                if (
                    t is not root  # plain Name assigns are locals
                    and isinstance(root, ast.Name)
                    and root.id in module_globals
                    and root.id not in params
                ):
                    out.append(root.id)
    return sorted(set(out))
