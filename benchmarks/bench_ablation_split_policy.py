"""ABL-S -- the split-policy ablation on an oscillating, skewed workload.

The row ``split-policy`` of :data:`repro.harness.experiments.EXPERIMENTS` holds
the setting, the claim and the shape checks asserted here.
"""

from conftest import run_row


def test_split_policy(benchmark, seeds, executor):
    run_row("split-policy", benchmark, seeds, executor)
