"""ABL-F -- the primary/backup HAgent extension (paper §7).

The row ``failover`` of :data:`repro.harness.experiments.EXPERIMENTS` holds
the setting, the claim and the shape checks asserted here.
"""

from conftest import run_row


def test_hagent_failover(benchmark, seeds, executor):
    run_row("failover", benchmark, seeds, executor)
