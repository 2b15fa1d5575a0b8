"""ABL-T -- sensitivity to the rehashing thresholds.

The row ``thresholds`` of :data:`repro.harness.experiments.EXPERIMENTS` holds
the setting, the claim and the shape checks asserted here.
"""

from conftest import run_row


def test_tmax_sensitivity(benchmark, seeds, executor):
    run_row("thresholds", benchmark, seeds, executor)
