"""Tests for the repo tooling (docs generator)."""

import pathlib
import sys

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))


def test_api_docs_render_covers_key_symbols():
    import gen_api_docs

    text = gen_api_docs.render()
    for symbol in (
        "repro.core.two_state.TwoStateMIS",
        "repro.core.three_color.ThreeColorMIS",
        "repro.core.switch.RandomizedLogSwitch",
        "repro.graphs.graph.Graph",
        "repro.sim.runner.run_until_stable",
        "repro.theory.bounds.lemma6_probability",
    ):
        assert symbol in text, symbol


def test_api_docs_list_methods_of_private_bases():
    import gen_api_docs

    text = gen_api_docs.render()

    def methods(symbol):
        section = text.split(f"### `{symbol}`", 1)[1].split("\n### ", 1)[0]
        return {
            line.split("`")[1]
            for line in section.splitlines()
            if line.startswith("- **`")
        }

    assert {"heard", "mis"} <= methods("repro.core.reference.ReferenceTwoState")
    assert "corrupt" in methods("repro.core.two_state.TwoStateMIS")


def test_first_paragraph_handling():
    import gen_api_docs

    assert gen_api_docs.first_paragraph(None) == "*(undocumented)*"
    assert gen_api_docs.first_paragraph(
        "Line one\ncontinued.\n\nSecond para."
    ) == "Line one continued."


def test_checked_in_api_doc_is_fresh():
    # The committed docs/API.md must match a regeneration (guards
    # against drift between code and docs).
    import gen_api_docs

    committed = (
        TOOLS.parent / "docs" / "API.md"
    ).read_text()
    assert committed == gen_api_docs.render()


def test_check_docs_fresh_passes(capsys):
    import check_docs

    assert check_docs.main([]) == 0
    assert "up to date" in capsys.readouterr().out


def test_check_docs_detects_staleness(monkeypatch, tmp_path, capsys):
    import check_docs

    stale = tmp_path / "API.md"
    stale.write_text("# stale contents\n")
    monkeypatch.setattr(check_docs, "API_MD", stale)
    assert check_docs.main([]) == 1
    assert "stale" in capsys.readouterr().out
    # --fix rewrites the file and then the check passes.
    assert check_docs.main(["--fix"]) == 0
    assert check_docs.main([]) == 0
