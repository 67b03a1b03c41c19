"""Tests for the command-line interfaces (repro.__main__ and
repro.experiments.__main__)."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.__main__ import main as repro_main
from repro.experiments.__main__ import main as experiments_main


class TestReproCli:
    def test_run_gnp(self, capsys):
        code = repro_main([
            "run", "--graph", "gnp", "--n", "120", "--p", "0.05",
            "--process", "2-state", "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "stabilized after" in out
        assert "MIS size" in out

    def test_run_with_trace_and_mis(self, capsys):
        code = repro_main([
            "run", "--graph", "clique", "--n", "32",
            "--process", "3-state", "--trace", "--print-mis",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "|V_t|" in out
        assert "MIS:" in out

    @pytest.mark.parametrize(
        "process", ["2-state", "3-state", "3-color", "beeping", "stone-age"]
    )
    def test_all_processes_run(self, process, capsys):
        code = repro_main([
            "run", "--graph", "star", "--n", "24",
            "--process", process, "--seed", "1",
        ])
        assert code == 0

    @pytest.mark.parametrize(
        "process, family", [("beeping", "2-state"), ("stone-age", "3-state")]
    )
    def test_network_processes_trace_on_their_family_budget(
        self, process, family, capsys
    ):
        from repro.graphs import star_graph
        from repro.theory.budgets import recommended_budget

        code = repro_main([
            "run", "--graph", "star", "--n", "24",
            "--process", process, "--trace",
        ])
        assert code == 0
        out = capsys.readouterr().out
        budget = recommended_budget(star_graph(24), family)
        assert f"budget: {budget} rounds" in out
        assert "|V_t|" in out

    def test_budget_exhaustion_exit_code(self, capsys):
        code = repro_main([
            "run", "--graph", "clique", "--n", "64",
            "--process", "2-state", "--max-rounds", "0",
        ])
        assert code == 1
        assert "DID NOT STABILIZE" in capsys.readouterr().out

    def test_unknown_graph_family(self):
        with pytest.raises(SystemExit):
            repro_main(["run", "--graph", "mystery"])

    def test_malformed_edge_list_exits_with_location(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n0 x\n")
        with pytest.raises(SystemExit, match=r"bad\.txt:2: expected an int"):
            repro_main(["run", "--edge-list", str(path)])

    def test_unknown_process(self):
        with pytest.raises(SystemExit):
            repro_main(["run", "--process", "4-state"])

    def test_budget_command(self, capsys):
        code = repro_main(["budget", "--graph", "tree", "--n", "128"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2-state:" in out and "3-color:" in out

    def test_edge_list_input(self, tmp_path, capsys):
        from repro.graphs.generators import cycle_graph
        from repro.io import write_edge_list

        path = tmp_path / "g.txt"
        write_edge_list(cycle_graph(12), path)
        code = repro_main([
            "run", "--edge-list", str(path), "--process", "2-state",
        ])
        assert code == 0


class TestDoctor:
    def test_doctor_is_healthy(self):
        from repro.parallel import leaked_segments

        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        paths = [str(src), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        result = subprocess.run(
            [sys.executable, "-m", "repro", "doctor"],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        lines = result.stdout.splitlines()
        assert result.returncode == 0, result.stdout + result.stderr
        assert lines[-1] == "healthy"
        assert not [line for line in lines if "[FAIL]" in line]
        assert leaked_segments() == []


class TestExperimentsCli:
    def test_list(self, capsys):
        assert experiments_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E14" in out

    def test_run_single(self, capsys):
        assert experiments_main(["run", "E9"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            experiments_main(["run", "E99"])

    def test_checkpoint_writes_scoped_journals(self, tmp_path, capsys):
        from repro.sim.checkpoint import (
            get_default_checkpoint_dir,
            set_default_checkpoint_dir,
        )

        try:
            code = experiments_main(
                ["run", "E1", "--checkpoint", str(tmp_path)]
            )
            assert code == 0
            journals = list(tmp_path.glob("E1-*.journal"))
            assert journals, "campaigns were not journaled"
            # Resuming replays the journals and still passes.
            code = experiments_main(
                ["run", "E1", "--checkpoint", str(tmp_path), "--resume"]
            )
            assert code == 0
            assert get_default_checkpoint_dir() == tmp_path
        finally:
            set_default_checkpoint_dir(None)

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(SystemExit):
            experiments_main(["run", "E9", "--resume"])


class TestReportCommand:
    def test_report_writes_markdown(self, tmp_path, capsys, monkeypatch):
        # Patch the registry to a single cheap experiment so the report
        # command is fast in CI.
        import repro.experiments.registry as registry

        original = dict(registry._REGISTRY)
        registry._REGISTRY.clear()
        registry._REGISTRY["E9"] = original["E9"]
        try:
            out = tmp_path / "report.md"
            code = experiments_main(["report", "--out", str(out)])
            assert code == 0
            text = out.read_text()
            assert "# Experiment report" in text
            assert "E9" in text and "PASS" in text
        finally:
            registry._REGISTRY.clear()
            registry._REGISTRY.update(original)
