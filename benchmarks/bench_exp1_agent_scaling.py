"""EXP1 -- paper Figure 7 (Experiment I): location time vs #TAgents.

The row ``exp1`` of :data:`repro.harness.experiments.EXPERIMENTS` holds
the setting, the claim and the shape checks asserted here.
"""

from conftest import run_row


def test_figure7_agent_scaling(benchmark, seeds, executor):
    run_row("exp1", benchmark, seeds, executor)
