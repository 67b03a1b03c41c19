"""Project-wide symbol table and call graph for the dataflow rules.

The PR 6 rules are file-local AST walks; the contracts they pin are
not.  The §2.1 coin-stream-order contract is *inter-procedural* — a
function that never touches a ``CoinSource`` still desynchronizes the
φ_t stream if something it calls draws and the call sits in a
data-dependent branch — and the parallel-safety / reduction-budget
contracts need to know what the worker side of a pool call can reach.

:class:`ProjectIndex` builds, in one pass over the configured package
roots (default ``src/repro``):

* a **symbol table** — every module, top-level function, class and
  method, keyed by qualified name (``repro.core.process.MISProcess.step``);
* **import resolution** — every ``import``/``from ... import`` binding
  is resolved through the package, chasing ``__init__`` re-export
  chains; intra-package (``repro.*``) targets that do not resolve are
  recorded in :attr:`ProjectIndex.unresolved_imports` (a warning, never
  a crash — the acceptance gate asserts the list is empty on ``src/``);
* a **call graph** — for every function, each call site is resolved to
  its possible targets: direct names through the import table,
  ``self.method()`` through the class hierarchy *including subclass
  overrides* (the receiver may be any descendant), and attribute
  receivers through declared types (``self.ops: NeighborOps = ...``,
  parameter annotations, constructor assignments and return
  annotations).  Calls that cannot be resolved statically (higher-order
  parameters, subscripted callables, ...) are recorded in
  :attr:`ProjectIndex.dynamic_calls` and otherwise skipped — dynamic
  code degrades coverage, not correctness;
* **reachability** from the hot entry points (``run*``/``step``/
  ``_advance*``), the set of functions whose per-round cost the
  engine contracts govern;
* **coin-flow closure** — the set of functions that transitively reach
  a ``CoinSource`` draw, with a witness chain for diagnostics.

Nested functions and lambdas are attributed to their enclosing
function: a reduction inside an ``_aggregate(..., lambda: ...)`` thunk
is charged to the method that installs it.  This over-approximates
(the thunk might not run) in exactly the conservative direction a
linter wants.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass, field

#: Methods that consume entries from a coin stream (mirrors coin-purity).
DRAW_METHODS = (
    "bits",
    "bits_into",
    "bernoulli",
    "bits_rows",
    "bits_rows_at",
    "bernoulli_rows",
)

#: Hot entry-point name prefixes (mirrors hot-loop-alloc).
ENTRY_POINTS = ("run", "_run", "step", "_advance")

#: Default package roots, relative to the repo root.  The first path
#: component that is a package directory gives the package name
#: (``src/repro`` -> package ``repro`` rooted at ``src``).
DEFAULT_ROOTS = ("src/repro",)


def _ann_class_names(ann: ast.AST | None) -> list[str]:
    """Candidate class names in an annotation expression.

    Handles ``X``, ``a.b.X``, ``X | None``, ``Optional[X]`` and quoted
    forward references (``"X | None"``).  Returns dotted names in
    source order; the caller resolves them and keeps the first hit.
    """
    if ann is None:
        return []
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        try:
            ann = ast.parse(ann.value, mode="eval").body
        except SyntaxError:
            return []
    if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
        return _ann_class_names(ann.left) + _ann_class_names(ann.right)
    if isinstance(ann, ast.Subscript):  # Optional[X], list[X], ...
        return _ann_class_names(ann.slice)
    parts: list[str] = []
    node = ann
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        name = ".".join(reversed(parts))
        if name != "None":
            return [name]
    return []


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for Attribute/Name chains, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _receiver_components(node: ast.AST) -> list[str]:
    """Name/attribute components of a receiver chain, unwrapping
    subscripts and calls (``processes[r].coins`` -> [coins, processes])."""
    comps: list[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            comps.append(node.attr)
            node = node.value
        elif isinstance(node, (ast.Subscript, ast.Call)):
            node = node.value if isinstance(node, ast.Subscript) else node.func
        else:
            if isinstance(node, ast.Name):
                comps.append(node.id)
            return comps


@dataclass
class FunctionInfo:
    """One function or method in the project symbol table."""

    qname: str  # repro.core.process.MISProcess.step
    module: str  # repro.core.process
    rel: str  # src/repro/core/process.py
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: str | None = None  # owning class qname, if a method
    #: Call-site targets: ``(lineno, col_offset) -> callee qnames``.
    call_targets: dict[tuple[int, int], tuple[str, ...]] = field(
        default_factory=dict
    )
    #: Whether the body contains a literal CoinSource draw.
    draws_directly: bool = False


@dataclass
class ClassInfo:
    """One class: bases, methods, and declared attribute types."""

    qname: str
    module: str
    rel: str
    node: ast.ClassDef
    base_qnames: tuple[str, ...] = ()
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.<attr>`` -> class qname, from annotations/constructors.
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One module: its tree, import bindings and top-level symbols."""

    name: str  # repro.core.process
    rel: str
    tree: ast.Module
    #: Local binding name -> fully qualified dotted target.
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: Names assigned at module top level (mutable module state).
    globals: set[str] = field(default_factory=set)


class ProjectIndex:
    """Symbol table + call graph over the configured package roots."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: ``"rel:line: unresolved import `target`"`` for intra-package
        #: imports the resolver could not find.  Must be empty on src/.
        self.unresolved_imports: list[str] = []
        #: Call sites the resolver had to give up on (higher-order
        #: arguments, subscripted callables, ...).  Informational only.
        self.dynamic_calls: list[str] = []
        #: Package name prefixes this index claims (e.g. ``("repro",)``).
        self.packages: tuple[str, ...] = ()
        self._subclasses: dict[str, set[str]] = {}
        self._call_graph: dict[str, set[str]] = {}
        self._draws: set[str] | None = None
        self._hot: set[str] | None = None
        self._by_rel: dict[str, ModuleInfo] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        root: pathlib.Path,
        roots: tuple[str, ...] = DEFAULT_ROOTS,
    ) -> "ProjectIndex":
        """Scan the package roots under ``root`` and resolve everything."""
        index = cls()
        packages = []
        for rootspec in roots:
            pkg_dir = root / rootspec
            if not pkg_dir.is_dir():
                continue
            packages.append(pkg_dir.name)
            base = pkg_dir.parent
            for path in sorted(pkg_dir.rglob("*.py")):
                rel = path.relative_to(root).as_posix()
                mod_parts = path.relative_to(base).with_suffix("").parts
                if mod_parts[-1] == "__init__":
                    mod_parts = mod_parts[:-1]
                index._scan_module(".".join(mod_parts), rel, path)
        index.packages = tuple(packages)
        index._link()
        return index

    def _scan_module(
        self, name: str, rel: str, path: pathlib.Path
    ) -> None:
        try:
            tree = ast.parse(path.read_text(), filename=rel)
        except (OSError, SyntaxError) as exc:
            self.dynamic_calls.append(f"{rel}: cannot parse ({exc})")
            return
        mod = ModuleInfo(name=name, rel=rel, tree=tree)
        # Imports anywhere in the module (function-local and
        # TYPE_CHECKING imports included) land in one binding table;
        # shadowing across scopes is not a pattern this codebase uses.
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    mod.imports.setdefault(bound, target)
            elif isinstance(node, ast.ImportFrom):
                if node.level or node.module is None:
                    continue  # no relative imports in this codebase
                for alias in node.names:
                    if alias.name == "*":
                        self.dynamic_calls.append(
                            f"{rel}:{node.lineno}: star import from "
                            f"{node.module} (bindings not tracked)"
                        )
                        continue
                    bound = alias.asname or alias.name
                    mod.imports.setdefault(
                        bound, f"{node.module}.{alias.name}"
                    )
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(
                    qname=f"{name}.{node.name}",
                    module=name,
                    rel=rel,
                    node=node,
                )
                mod.functions[node.name] = info
                self.functions[info.qname] = info
            elif isinstance(node, ast.ClassDef):
                cinfo = ClassInfo(
                    qname=f"{name}.{node.name}",
                    module=name,
                    rel=rel,
                    node=node,
                )
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        finfo = FunctionInfo(
                            qname=f"{cinfo.qname}.{item.name}",
                            module=name,
                            rel=rel,
                            node=item,
                            cls=cinfo.qname,
                        )
                        cinfo.methods[item.name] = finfo
                        self.functions[finfo.qname] = finfo
                mod.classes[node.name] = cinfo
                self.classes[cinfo.qname] = cinfo
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for t in targets:
                    if isinstance(t, (ast.Tuple, ast.List)):
                        for elt in t.elts:
                            if isinstance(elt, ast.Name):
                                mod.globals.add(elt.id)
                    elif isinstance(t, ast.Name):
                        mod.globals.add(t.id)
        self.modules[name] = mod
        self._by_rel[rel] = mod

    # ------------------------------------------------------------------
    # Symbol resolution
    # ------------------------------------------------------------------
    def _is_package_name(self, dotted: str) -> bool:
        head = dotted.split(".", 1)[0]
        return head in self.packages

    def resolve_qualified(
        self, dotted: str, _seen: frozenset[str] = frozenset()
    ) -> str | None:
        """Resolve a fully qualified dotted name to a symbol qname.

        Returns the qname of a module, function, class or method; or
        ``None`` for external names and unresolvable package names.
        ``__init__`` re-export chains are chased (with a cycle guard,
        so mutually importing modules terminate).
        """
        if dotted in _seen:
            return None
        _seen = _seen | {dotted}
        if dotted in self.modules:
            return dotted
        if dotted in self.functions or dotted in self.classes:
            return dotted
        # Longest module prefix + attribute path.
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            mod_name = ".".join(parts[:cut])
            mod = self.modules.get(mod_name)
            if mod is None:
                continue
            rest = parts[cut:]
            head = rest[0]
            if head in mod.functions and len(rest) == 1:
                return mod.functions[head].qname
            if head in mod.globals:
                # Module-level constant / data binding.
                return f"{mod_name}.{head}"
            if head in mod.classes:
                cinfo = mod.classes[head]
                if len(rest) == 1:
                    return cinfo.qname
                if len(rest) == 2 and rest[1] in cinfo.methods:
                    return cinfo.methods[rest[1]].qname
                # Attribute of a class (constant, descriptor): treat
                # the class itself as the resolution.
                return cinfo.qname
            if head in mod.imports:
                chained = ".".join([mod.imports[head]] + rest[1:])
                return self.resolve_qualified(chained, _seen)
            return None
        return None

    def resolve_in_module(self, module: str, dotted: str) -> str | None:
        """Resolve a dotted name as seen from inside ``module``."""
        mod = self.modules.get(module)
        if mod is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in mod.imports:
            full = mod.imports[head] + (("." + rest) if rest else "")
            return self.resolve_qualified(full)
        if head in mod.functions and not rest:
            return mod.functions[head].qname
        if head in mod.classes:
            target = f"{module}.{dotted}"
            return self.resolve_qualified(target)
        return None

    def module_for(self, rel: str) -> ModuleInfo | None:
        """The scanned module for a repo-relative path, if indexed."""
        return self._by_rel.get(rel)

    # ------------------------------------------------------------------
    # Linking: imports, hierarchy, call graph
    # ------------------------------------------------------------------
    def _link(self) -> None:
        for mod in self.modules.values():
            for bound, target in mod.imports.items():
                if not self._is_package_name(target):
                    continue
                if self.resolve_qualified(target) is None:
                    line = 0
                    for node in ast.walk(mod.tree):
                        if isinstance(node, (ast.Import, ast.ImportFrom)):
                            names = [
                                (a.asname or a.name.split(".")[-1])
                                for a in node.names
                            ]
                            if bound in names or bound in [
                                a.name.split(".")[0] for a in node.names
                            ]:
                                line = node.lineno
                                break
                    self.unresolved_imports.append(
                        f"{mod.rel}:{line}: unresolved import "
                        f"`{target}` (bound as `{bound}`)"
                    )
        # Class hierarchy.
        for cinfo in self.classes.values():
            bases = []
            for base in cinfo.node.bases:
                name = _dotted(base)
                if name is None:
                    continue
                resolved = self.resolve_in_module(cinfo.module, name)
                if resolved in self.classes:
                    bases.append(resolved)
                    self._subclasses.setdefault(resolved, set()).add(
                        cinfo.qname
                    )
            cinfo.base_qnames = tuple(bases)
        for cinfo in self.classes.values():
            self._collect_attr_types(cinfo)
        for finfo in self.functions.values():
            self._resolve_calls(finfo)

    def mro(self, class_qname: str) -> list[str]:
        """Project-local linearization: the class, then bases, BFS."""
        out: list[str] = []
        queue = [class_qname]
        while queue:
            q = queue.pop(0)
            if q in out:
                continue
            out.append(q)
            cinfo = self.classes.get(q)
            if cinfo is not None:
                queue.extend(cinfo.base_qnames)
        return out

    def descendants(self, class_qname: str) -> set[str]:
        """All (transitive) project-local subclasses."""
        out: set[str] = set()
        queue = [class_qname]
        while queue:
            for child in self._subclasses.get(queue.pop(), ()):
                if child not in out:
                    out.add(child)
                    queue.append(child)
        return out

    def dispatch(self, class_qname: str, method: str) -> tuple[str, ...]:
        """Possible targets of ``<instance of class>.method()``.

        The statically bound definition (first hit in the MRO) plus
        every override in a descendant — the receiver may be any
        subclass at runtime.
        """
        targets: list[str] = []
        for q in self.mro(class_qname):
            cinfo = self.classes.get(q)
            if cinfo is not None and method in cinfo.methods:
                targets.append(cinfo.methods[method].qname)
                break
        for q in self.descendants(class_qname):
            cinfo = self.classes.get(q)
            if cinfo is not None and method in cinfo.methods:
                targets.append(cinfo.methods[method].qname)
        return tuple(dict.fromkeys(targets))

    def _class_of_annotation(
        self, module: str, ann: ast.AST | None
    ) -> str | None:
        for name in _ann_class_names(ann):
            resolved = self.resolve_in_module(module, name)
            if resolved in self.classes:
                return resolved
        return None

    def _class_of_call(self, module: str, call: ast.Call) -> str | None:
        """Class qname a call expression evaluates to, if derivable."""
        name = _dotted(call.func)
        if name is None:
            return None
        resolved = self.resolve_in_module(module, name)
        if resolved in self.classes:
            return resolved  # constructor call
        finfo = self.functions.get(resolved) if resolved else None
        if finfo is not None:
            return self._class_of_annotation(
                finfo.module, finfo.node.returns
            )
        return None

    def _collect_attr_types(self, cinfo: ClassInfo) -> None:
        """``self.<attr>`` types from annotations and constructors."""
        for item in cinfo.node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                resolved = self._class_of_annotation(
                    cinfo.module, item.annotation
                )
                if resolved:
                    cinfo.attr_types[item.target.id] = resolved
        for method in cinfo.methods.values():
            for node in ast.walk(method.node):
                target = None
                value_cls = None
                if isinstance(node, ast.AnnAssign):
                    target = node.target
                    value_cls = self._class_of_annotation(
                        cinfo.module, node.annotation
                    )
                elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(node.value, ast.Call):
                        value_cls = self._class_of_call(
                            cinfo.module, node.value
                        )
                if (
                    target is not None
                    and value_cls is not None
                    and isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    cinfo.attr_types.setdefault(target.attr, value_cls)

    def _local_types(self, finfo: FunctionInfo) -> dict[str, str]:
        """Local variable / parameter name -> class qname."""
        types: dict[str, str] = {}
        args = finfo.node.args
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
        ):
            resolved = self._class_of_annotation(
                finfo.module, arg.annotation
            )
            if resolved:
                types[arg.arg] = resolved
        for node in ast.walk(finfo.node):
            target = None
            value_cls = None
            if isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                target = node.target.id
                value_cls = self._class_of_annotation(
                    finfo.module, node.annotation
                )
            elif (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
            ):
                target = node.targets[0].id
                value_cls = self._resolve_value_class(finfo, node.value)
            if target is not None and value_cls is not None:
                types.setdefault(target, value_cls)
        return types

    def _resolve_value_class(
        self, finfo: FunctionInfo, call: ast.Call
    ) -> str | None:
        """Class a call's result has: constructors, return annotations,
        including ``self.method()`` calls."""
        direct = self._class_of_call(finfo.module, call)
        if direct is not None:
            return direct
        name = _dotted(call.func)
        if name is None or finfo.cls is None:
            return None
        parts = name.split(".")
        if parts[0] == "self" and len(parts) == 2:
            for target in self.dispatch(finfo.cls, parts[1]):
                tinfo = self.functions.get(target)
                if tinfo is not None:
                    cls = self._class_of_annotation(
                        tinfo.module, tinfo.node.returns
                    )
                    if cls is not None:
                        return cls
        return None

    def _resolve_calls(self, finfo: FunctionInfo) -> None:
        """Populate ``finfo.call_targets`` and the call graph."""
        edges = self._call_graph.setdefault(finfo.qname, set())
        local_types = self._local_types(finfo)

        def attr_type(owner: str) -> str | None:
            """Type of ``self.<owner>`` through the MRO's attr tables."""
            if finfo.cls is None:
                return None
            for q in self.mro(finfo.cls):
                cinfo = self.classes.get(q)
                if cinfo is not None and owner in cinfo.attr_types:
                    return cinfo.attr_types[owner]
            return None

        for node in ast.walk(finfo.node):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute) and node.func.attr in (
                DRAW_METHODS
            ):
                # Any "coin"-ish component in the receiver chain marks
                # a literal draw — including subscripted receivers like
                # ``processes[r].coins.bits_into(...)`` and the row
                # draws' class receivers (``CoinSource.bits_rows(...)``).
                if any(
                    "coin" in comp.lower()
                    for comp in _receiver_components(node.func.value)
                ):
                    finfo.draws_directly = True
                recv = _dotted(node.func.value)
                recv_cls = None
                if recv is not None:
                    parts = recv.split(".")
                    if len(parts) == 1:
                        recv_cls = local_types.get(parts[0])
                    elif parts[0] == "self" and len(parts) == 2:
                        recv_cls = attr_type(parts[1])
                if recv_cls is not None and any(
                    "Coin" in q.rsplit(".", 1)[-1]
                    for q in self.mro(recv_cls)
                ):
                    finfo.draws_directly = True
            name = _dotted(node.func)
            key = (node.lineno, node.col_offset)
            if name is None:
                self.dynamic_calls.append(
                    f"{finfo.rel}:{node.lineno}: dynamic call in "
                    f"`{finfo.qname}` (callee is not a name)"
                )
                continue
            targets = self._targets_for_name(
                finfo, name, local_types, attr_type
            )
            if targets:
                finfo.call_targets[key] = targets
                edges.update(
                    t for t in targets if t in self.functions
                )
            # Unresolved bare names are external (np, builtins) or
            # higher-order parameters; both are out of scope here.

    def _targets_for_name(
        self,
        finfo: FunctionInfo,
        name: str,
        local_types: dict[str, str],
        attr_type,
    ) -> tuple[str, ...]:
        parts = name.split(".")
        # self.method() -> hierarchy dispatch (incl. overrides).
        if parts[0] == "self" and finfo.cls is not None:
            if len(parts) == 2:
                return self.dispatch(finfo.cls, parts[1])
            if len(parts) == 3:  # self.attr.method()
                owner_cls = attr_type(parts[1])
                if owner_cls is not None:
                    return self.dispatch(owner_cls, parts[2])
            return ()
        # local.method() through declared local types.
        if len(parts) == 2 and parts[0] in local_types:
            return self.dispatch(local_types[parts[0]], parts[1])
        # Constructor call of a locally-typed name: Class(...)
        if len(parts) == 1 and parts[0] in local_types:
            return ()
        # Plain name / imported symbol / module attribute.
        resolved = self.resolve_in_module(finfo.module, name)
        if resolved is None:
            return ()
        if resolved in self.classes:
            # Constructor: the call runs __init__.
            init = self.dispatch(resolved, "__init__")
            return init or (resolved,)
        if resolved in self.functions:
            return (resolved,)
        return ()

    # ------------------------------------------------------------------
    # Derived analyses
    # ------------------------------------------------------------------
    def callees(self, qname: str) -> set[str]:
        return self._call_graph.get(qname, set())

    def coin_reaching(self) -> set[str]:
        """Functions that transitively reach a ``CoinSource`` draw."""
        if self._draws is not None:
            return self._draws
        seeds = {
            f.qname for f in self.functions.values() if f.draws_directly
        }
        # The draw entry points themselves: the DRAW_METHODS on
        # classes whose lineage mentions Coin.
        for cinfo in self.classes.values():
            if any(
                "Coin" in q.rsplit(".", 1)[-1] for q in self.mro(cinfo.qname)
            ):
                for method in DRAW_METHODS:
                    if method in cinfo.methods:
                        seeds.add(cinfo.methods[method].qname)
        # Reverse closure.
        reverse: dict[str, set[str]] = {}
        for src, dsts in self._call_graph.items():
            for dst in dsts:
                reverse.setdefault(dst, set()).add(src)
        out = set(seeds)
        queue = list(seeds)
        while queue:
            for caller in reverse.get(queue.pop(), ()):
                if caller not in out:
                    out.add(caller)
                    queue.append(caller)
        self._draws = out
        return out

    def draw_chain(self, qname: str) -> list[str]:
        """A witness path from ``qname`` to a literal draw (for messages)."""
        draws = self.coin_reaching()
        if qname not in draws:
            return []
        finfo = self.functions.get(qname)
        if finfo is not None and finfo.draws_directly:
            return [qname]
        parent: dict[str, str] = {}
        queue = [qname]
        seen = {qname}
        while queue:
            cur = queue.pop(0)
            for nxt in sorted(self.callees(cur)):
                if nxt in seen or nxt not in draws:
                    continue
                parent[nxt] = cur
                info = self.functions.get(nxt)
                if info is not None and info.draws_directly:
                    chain = [nxt]
                    while chain[-1] in parent:
                        chain.append(parent[chain[-1]])
                    return list(reversed(chain))
                seen.add(nxt)
                queue.append(nxt)
        return [qname]

    def hot_functions(self) -> set[str]:
        """Functions reachable from a ``run*``/``step``/``_advance*``
        entry point (the entry points themselves included)."""
        if self._hot is not None:
            return self._hot
        entries = {
            f.qname
            for f in self.functions.values()
            if any(
                f.node.name == p or f.node.name.startswith(p)
                for p in ENTRY_POINTS
            )
        }
        out = set(entries)
        queue = list(entries)
        while queue:
            for callee in self.callees(queue.pop()):
                if callee not in out:
                    out.add(callee)
                    queue.append(callee)
        self._hot = out
        return out

    def is_hot(self, qname: str) -> bool:
        return qname in self.hot_functions()

    def warnings(self) -> list[str]:
        """Human-readable analysis warnings (never failures)."""
        return list(self.unresolved_imports)
