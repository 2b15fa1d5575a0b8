"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's figures (or one of the
DESIGN.md extension ablations): it runs the experiment under
``pytest-benchmark`` (so the wall-clock cost of regenerating the figure
is itself tracked), prints the paper-style table, and asserts the
*shape* claims -- who wins, by roughly what factor -- rather than
absolute milliseconds, since our substrate is a simulator rather than
the authors' Sun Blade LAN (DESIGN.md §2). The simulator experiments
that have a CLI command are rows of
:data:`repro.harness.experiments.EXPERIMENTS`, and their benchmarks
are one :func:`run_row` call each.

Benchmarks accept ``--repro-seeds N`` to control replications (default
1 for speed; EXPERIMENTS.md numbers were produced with 3) and
``--repro-jobs N`` to fan sweep cells over N worker processes (default
1: serial, so the benchmark clock measures single-process cost; raise
it to regenerate figures faster when timings are not being compared).
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--repro-seeds",
        type=int,
        default=1,
        help="replications per experiment point (default 1)",
    )
    parser.addoption(
        "--repro-jobs",
        type=int,
        default=1,
        help="worker processes for sweep cells (default 1 = serial)",
    )


@pytest.fixture
def seeds(request):
    count = request.config.getoption("--repro-seeds")
    return tuple(range(1, count + 1))


@pytest.fixture
def executor(request):
    """A fresh uncached Executor honouring ``--repro-jobs``.

    Uncached on purpose: a benchmark that silently served cells from
    the run cache would record a meaningless wall clock.
    """
    from repro.harness.executor import Executor

    return Executor(jobs=request.config.getoption("--repro-jobs"))


def once(benchmark, func):
    """Run ``func`` exactly once under the benchmark clock."""
    return benchmark.pedantic(func, rounds=1, iterations=1)


def run_row(name, benchmark, seeds, executor):
    """Run experiment row ``name`` once under the benchmark clock, print
    its title and table, and assert each of its checks by its label."""
    from repro.harness.experiments import experiment

    row = experiment(name)
    result = once(benchmark, lambda: row.run(seeds, False, executor))
    print(f"\n{row.title}")
    print(row.table(result))
    for label, ok in row.checks(result):
        assert ok, label
