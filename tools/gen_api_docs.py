#!/usr/bin/env python3
"""Generate docs/API.md from the package's docstrings.

Walks every module under ``repro``, extracts module / class / function
docstring summaries (first paragraph), and emits a single browsable
markdown reference.  Regenerate with::

    python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import pkgutil
import sys


def first_paragraph(doc: str | None) -> str:
    """First docstring paragraph, collapsed to one line."""
    if not doc:
        return "*(undocumented)*"
    para = doc.strip().split("\n\n")[0]
    return " ".join(line.strip() for line in para.splitlines())


def iter_modules():
    import repro

    yield "repro", repro
    pkg_path = pathlib.Path(repro.__file__).parent
    for info in sorted(
        pkgutil.walk_packages([str(pkg_path)], prefix="repro."),
        key=lambda i: i.name,
    ):
        if info.name.endswith("__main__"):
            continue
        try:
            yield info.name, importlib.import_module(info.name)
        except Exception as exc:  # pragma: no cover - diagnostics only
            print(f"skip {info.name}: {exc}", file=sys.stderr)


def public_members(module):
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_"):
            continue
        if inspect.ismodule(obj):
            continue
        defined_here = getattr(obj, "__module__", None) == module.__name__
        if not defined_here:
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            yield name, obj


def class_members(cls) -> dict:
    """Public attributes of ``cls`` as it resolves them: its own, plus
    those it inherits from private (``_``-prefixed) bases, which get no
    entry of their own."""
    members, seen = {}, set()
    for base in cls.__mro__:
        listed = base is cls or base.__name__.startswith("_")
        for name, value in vars(base).items():
            if name.startswith("_") or name in seen:
                continue
            seen.add(name)
            if listed:
                members[name] = value
    return members


def render() -> str:
    lines = [
        "# API reference",
        "",
        "*Generated by `python tools/gen_api_docs.py` — do not edit by "
        "hand.*",
        "",
    ]
    for mod_name, module in iter_modules():
        members = list(public_members(module))
        lines.append(f"## `{mod_name}`")
        lines.append("")
        lines.append(first_paragraph(module.__doc__))
        lines.append("")
        for name, obj in members:
            kind = "class" if inspect.isclass(obj) else "function"
            try:
                sig = str(inspect.signature(obj))
            except (TypeError, ValueError):
                sig = "(...)"
            lines.append(f"### `{mod_name}.{name}` *{kind}*")
            lines.append("")
            lines.append(f"```python\n{name}{sig}\n```")
            lines.append("")
            lines.append(first_paragraph(inspect.getdoc(obj)))
            lines.append("")
            if inspect.isclass(obj):
                for meth_name, meth in sorted(class_members(obj).items()):
                    if not (
                        inspect.isfunction(meth)
                        or isinstance(meth, property)
                    ):
                        continue
                    target = meth.fget if isinstance(meth, property) else meth
                    lines.append(
                        f"- **`{meth_name}`** — "
                        f"{first_paragraph(inspect.getdoc(target))}"
                    )
                lines.append("")
    return "\n".join(lines)


def main() -> None:
    out = pathlib.Path(__file__).resolve().parent.parent / "docs" / "API.md"
    out.parent.mkdir(exist_ok=True)
    out.write_text(render())
    print(f"wrote {out} ({out.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
