"""Tests for the command-line harness (fast paths only)."""

from collections import Counter

import pytest

from repro.harness import cli
from repro.harness.experiments import EXPERIMENTS


class TestArgumentHandling:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["teleport"])

    def test_help_exits_cleanly(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--help"])
        assert excinfo.value.code == 0

    def test_command_registry_complete(self):
        expected = {
            "report", "exp1", "exp2", "baselines", "thresholds",
            "split-policy", "placement", "failover", "overhead",
            "heuristics", "granularity",
        }
        assert set(cli.COMMANDS) == expected


class TestQuickRuns:
    def test_exp1_quick_prints_figure7_table(self, capsys):
        assert cli.main(["exp1", "--quick", "--seeds", "1"]) == 0
        output = capsys.readouterr().out
        assert "Figure 7" in output
        assert "TAgents" in output
        assert "centralized (ms)" in output
        assert "hash (ms)" in output

    def test_exp2_quick_prints_figure8_table(self, capsys):
        assert cli.main(["exp2", "--quick", "--seeds", "1"]) == 0
        output = capsys.readouterr().out
        assert "Figure 8" in output
        assert "residence (ms)" in output

    def test_chart_flag_adds_ascii_chart(self, capsys):
        cli.main(["exp1", "--quick", "--seeds", "1", "--chart"])
        output = capsys.readouterr().out
        assert "A=centralized" in output

    def test_json_export_flag(self, capsys, tmp_path):
        target = tmp_path / "series.json"
        cli.main(["exp1", "--quick", "--seeds", "1", "--json", str(target)])
        capsys.readouterr()
        import json

        document = json.loads(target.read_text())
        assert set(document) == {"centralized", "hash", "_meta"}
        assert all("mean_ms" in point for point in document["hash"])
        assert document["_meta"]["seeds"] == [1]
        settings = document["_meta"]["settings"]
        assert settings["cells"] == settings["cache_hits"] + settings["cache_misses"]
        assert settings["jobs"] >= 1

    def test_overhead_quick(self, capsys):
        assert cli.main(["overhead", "--quick", "--seeds", "1"]) == 0
        output = capsys.readouterr().out
        assert "msgs/locate" in output
        for name in ("centralized", "chord", "hash"):
            assert name in output

    def test_thresholds_quick(self, capsys):
        assert cli.main(["thresholds", "--quick", "--seeds", "1"]) == 0
        output = capsys.readouterr().out
        assert "T_max" in output


class TestAll:
    def test_all_runs_each_row_once(self, monkeypatch, capsys):
        runs = Counter()
        for row in EXPERIMENTS:

            def counted(seeds, quick, executor, name=row.name, run=row.run):
                runs[name] += 1
                return run(seeds, quick, executor)

            monkeypatch.setattr(row, "run", counted)
        assert cli.main(["all", "--quick", "--seeds", "1", "-j", "1", "--no-cache"]) == 0
        assert runs == {row.name: 1 for row in EXPERIMENTS}
        output = capsys.readouterr().out
        for row in EXPERIMENTS:
            assert output.count(f"\n===== {row.name} =====\n{row.title}\n") == 1


class TestEntryPoint:
    def test_console_script_target_exists(self):
        """pyproject's console script points at this callable."""
        assert callable(cli.main)
