"""The experiment harness: build, run, replicate, tabulate.

* :mod:`repro.harness.experiment` -- run one scenario under one
  mechanism and collect metrics;
* :mod:`repro.harness.executor` -- flatten grids into cells, fan them
  over a worker pool, reassemble in input order;
* :mod:`repro.harness.cache` -- content-addressed store of finished
  run metrics (scenario + mechanism + seed + code fingerprint);
* :mod:`repro.harness.sweeps` -- replications over seeds and parameter
  sweeps over scenario grids;
* :mod:`repro.harness.tables` -- render the rows/series the paper's
  figures report;
* :mod:`repro.harness.cli` -- ``python -m repro.harness.cli exp1 ...``.
"""
