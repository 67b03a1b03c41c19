"""Docs-code consistency guards.

Documentation drift is a reproduction-killer: these tests pin the
experiment registry, the bench files, and the markdown documents to
each other.
"""

import ast
import importlib
import pathlib
import re

from repro.experiments.registry import list_experiments

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_design_md_indexes_every_experiment():
    text = (ROOT / "DESIGN.md").read_text()
    for eid, _ in list_experiments():
        assert re.search(rf"\b{eid}\b", text), f"{eid} missing from DESIGN.md"


def test_experiments_md_covers_every_experiment():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    for eid, _ in list_experiments():
        assert re.search(rf"## {eid} ", text) or re.search(
            rf"## {eid}\b", text
        ), f"{eid} missing from EXPERIMENTS.md"


def test_every_experiment_has_a_bench_target():
    bench_dir = ROOT / "benchmarks"
    bench_text = "\n".join(
        p.read_text() for p in bench_dir.glob("bench_*.py")
    )
    for eid, _ in list_experiments():
        assert f'regen("{eid}")' in bench_text, (
            f"{eid} has no bench regeneration target"
        )


def test_readme_mentions_core_artifacts():
    text = (ROOT / "README.md").read_text()
    for needle in (
        "TwoStateMIS",
        "ThreeColorMIS",
        "EXPERIMENTS.md",
        "DESIGN.md",
        "python -m repro.experiments",
    ):
        assert needle in text, needle


def test_examples_listed_in_readme():
    text = (ROOT / "README.md").read_text()
    for script in (ROOT / "examples").glob("*.py"):
        assert script.name in text, f"{script.name} not listed in README"


def test_docs_exist():
    assert (ROOT / "docs" / "API.md").exists()
    assert (ROOT / "docs" / "TUTORIAL.md").exists()


def _resolve(dotted):
    """Import the longest module prefix of ``dotted``, getattr the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module_name)
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def _fenced_imports(text):
    """``repro.…`` names imported by the Python code blocks of ``text``."""
    names = set()
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S):
        try:
            tree = ast.parse(block)
        except SyntaxError:
            continue  # shell, output or prose, not Python
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] == "repro"
            ):
                names.update(f"{node.module}.{a.name}" for a in node.names)
    return names


def test_docs_name_live_symbols():
    # CHANGES.md and ROADMAP.md are history and may name deleted code.
    docs = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/TUTORIAL.md")
    names = set()
    for doc in docs:
        text = (ROOT / doc).read_text()
        names.update(re.findall(r"`(repro(?:\.[A-Za-z_]\w*)+)", text))
        names.update(_fenced_imports(text))
    assert names
    dead = []
    for name in sorted(names):
        try:
            _resolve(name)
        except (ImportError, AttributeError):
            dead.append(name)
    assert not dead, f"docs name symbols that do not exist: {dead}"
