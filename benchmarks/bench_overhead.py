"""COST -- message-overhead accounting across mechanisms.

The row ``overhead`` of :data:`repro.harness.experiments.EXPERIMENTS` holds
the setting, the claim and the shape checks asserted here.
"""

from conftest import run_row


def test_message_overhead(benchmark, seeds, executor):
    run_row("overhead", benchmark, seeds, executor)
