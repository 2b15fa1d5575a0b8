"""ABL-P -- the IAgent-placement extension (paper §7).

The row ``placement`` of :data:`repro.harness.experiments.EXPERIMENTS` holds
the setting, the claim and the shape checks asserted here.
"""

from conftest import run_row


def test_placement_extension(benchmark, seeds, executor):
    run_row("placement", benchmark, seeds, executor)
