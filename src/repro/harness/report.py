"""Full-report generation: re-measure everything, emit one markdown doc.

``generate_report`` runs every row of
:data:`repro.harness.experiments.EXPERIMENTS` once and renders each as
its claim, a markdown table and its shape checks, PASS or FAIL -- the
tables EXPERIMENTS.md records and the checks the benchmarks assert --
so a downstream user can regenerate the entire evaluation with one
command and diff it against the committed document:

    python -m repro.harness.cli report --out report.md
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.harness.executor import Executor
from repro.harness.experiments import EXPERIMENTS
from repro.harness.tables import markdown_table

__all__ = ["generate_report"]


def generate_report(
    seeds: Sequence[int] = (1, 2, 3),
    quick: bool = False,
    executor: Optional[Executor] = None,
) -> str:
    """Measure and render the evaluation report (markdown)."""
    sections = [
        "# Measured evaluation report",
        "",
        f"Seeds: {list(seeds)}; quick mode: {quick}. "
        "Regenerate with `python -m repro.harness.cli report`.",
        ""
        if not quick
        else "\n> Quick mode truncates the sweeps to their light ends and "
        "shrinks every workload, so shape claims below may read FAIL; run "
        "without `--quick` for the real evaluation.\n",
    ]
    for row in EXPERIMENTS:
        result = row.run(seeds, quick, executor)
        sections += [
            f"## {row.title}",
            "",
            row.claim,
            "",
            markdown_table(*row.cells(result)),
            "",
            "Shape claims:",
            *(f"- {'PASS' if ok else 'FAIL'}: {label}" for label, ok in row.checks(result)),
            "",
        ]
    return "\n".join(sections)
