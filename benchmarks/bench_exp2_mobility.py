"""EXP2 -- paper Figure 8 (Experiment II): location time vs mobility.

The row ``exp2`` of :data:`repro.harness.experiments.EXPERIMENTS` holds
the setting, the claim and the shape checks asserted here.
"""

from conftest import run_row


def test_figure8_mobility(benchmark, seeds, executor):
    run_row("exp2", benchmark, seeds, executor)
