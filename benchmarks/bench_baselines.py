"""ABL-B -- every location mechanism on the paper's Experiment I sweep.

The row ``baselines`` of :data:`repro.harness.experiments.EXPERIMENTS` holds
the setting, the claim and the shape checks asserted here.
"""

from conftest import run_row


def test_all_baselines_on_exp1(benchmark, seeds, executor):
    run_row("baselines", benchmark, seeds, executor)
