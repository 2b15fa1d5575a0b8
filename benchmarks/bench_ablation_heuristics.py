"""ABL-H / ABL-G -- the two §4-§5 "future work" heuristics, measured.

The rows ``heuristics`` and ``granularity`` of
:data:`repro.harness.experiments.EXPERIMENTS` hold the settings, the
claims and the shape checks asserted here.
"""

from conftest import run_row


def test_adaptive_thresholds(benchmark, seeds, executor):
    run_row("heuristics", benchmark, seeds, executor)


def test_stats_granularity(benchmark, seeds, executor):
    run_row("granularity", benchmark, seeds, executor)
