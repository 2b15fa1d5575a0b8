"""Workload generation: roaming agent populations and query streams.

* :mod:`repro.workloads.mobility` -- residence-time distributions and
  itinerary models (which node an agent visits next);
* :mod:`repro.workloads.population` -- the TAgents (the paper's roaming
  "target agents") and population construction/churn;
* :mod:`repro.workloads.queries` -- query clients that repeatedly locate
  random TAgents and record the paper's "location time" metric;
* :mod:`repro.workloads.scenarios` -- packaged parameter sets, including
  the reconstructed settings of the paper's Experiments I and II.
"""
