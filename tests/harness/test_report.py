"""Tests for the markdown report generator and the rows' shape checks."""

from types import SimpleNamespace

import pytest

from repro.harness import cli, report
from repro.harness.experiments import EXPERIMENTS, experiment
from repro.harness.report import generate_report
from repro.harness.sweeps import SweepPoint


def make_series(central, hashed, iagents, xs=(10, 100)):
    """A fabricated figure: one seed per point, the hash points' runs
    reporting ``iagents`` final IAgents."""
    return {
        "centralized": [
            SweepPoint(x=x, mechanism="centralized", per_seed_means=[v], runs=[])
            for x, v in zip(xs, central)
        ],
        "hash": [
            SweepPoint(
                x=x,
                mechanism="hash",
                per_seed_means=[v],
                runs=[SimpleNamespace(metrics=SimpleNamespace(final_iagents=count))],
            )
            for x, v, count in zip(xs, hashed, iagents)
        ],
    }


def verdicts(name, series):
    return [ok for _, ok in experiment(name).checks(series)]


class TestShapeChecks:
    def test_exp1_passing_shape(self):
        # A midpoint: "centralized grows overall" reads the second point.
        series = make_series(
            central=[15.0, 100.0, 300.0], hashed=[12.0, 13.0, 15.0],
            iagents=[1, 2, 4], xs=(10, 50, 100),
        )
        assert all(verdicts("exp1", series))

    def test_exp1_failing_shape_detected(self):
        series = make_series(central=[15.0, 16.0], hashed=[12.0, 40.0], iagents=[1, 1])
        assert not all(verdicts("exp1", series))

    def test_exp2_passing_shape(self):
        series = make_series(
            central=[100.0, 15.0], hashed=[14.0, 13.0], iagents=[4, 1], xs=(100, 2000)
        )
        assert all(verdicts("exp2", series))

    def test_exp2_checks_hash_at_every_mobility_level(self):
        series = make_series(
            central=[100.0, 25.0, 15.0], hashed=[14.0, 30.0, 13.0],
            iagents=[4, 2, 1], xs=(100, 500, 2000),
        )
        failing = [label for label, ok in experiment("exp2").checks(series) if not ok]
        assert failing == ["hash beats centralized at every mobility level"]


@pytest.fixture(scope="module")
def quick_report():
    return generate_report(seeds=(1,), quick=True)


class TestGenerateReport:
    def test_quick_report_structure(self, quick_report):
        assert quick_report.startswith("# Measured evaluation report")
        assert "Figure 7" in quick_report
        assert "Figure 8" in quick_report
        assert "| TAgents |" in quick_report
        assert "Quick mode truncates" in quick_report
        # Every row once, its table followed by a verdict per check.
        for row in EXPERIMENTS:
            assert quick_report.count(f"## {row.title}\n") == 1
        assert quick_report.count("Shape claims:") == len(EXPERIMENTS)
        verdicts = [line for line in quick_report.splitlines() if line.startswith("- ")]
        assert len(verdicts) > len(EXPERIMENTS)
        assert all(line.startswith(("- PASS: ", "- FAIL: ")) for line in verdicts)

    def test_report_is_markdown_table_shaped(self, quick_report):
        tables, current = [], []
        for line in quick_report.splitlines() + [""]:
            if line.startswith("|"):
                current.append(line)
            elif current:
                tables.append(current)
                current = []
        assert len(tables) == len(EXPERIMENTS)
        for table in tables:
            widths = {line.count("|") for line in table}
            assert len(widths) == 1  # consistent column count within a table


class TestCliReport:
    @pytest.fixture(autouse=True)
    def one_row(self, monkeypatch):
        """The CLI plumbing, not the measurements: report the first row only."""
        monkeypatch.setattr(report, "EXPERIMENTS", EXPERIMENTS[:1])

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert cli.main(
            ["report", "--quick", "--seeds", "1", "--no-cache", "--out", str(target)]
        ) == 0
        assert "report written" in capsys.readouterr().out
        assert target.read_text().startswith("# Measured evaluation report")

    def test_report_to_stdout(self, capsys):
        cli.main(["report", "--quick", "--seeds", "1", "--no-cache"])
        assert "# Measured evaluation report" in capsys.readouterr().out
