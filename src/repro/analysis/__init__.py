"""Analytical companions to the simulation.

:mod:`repro.analysis.queueing` derives closed-form predictions for the
experiments -- the centralized scheme's response-time growth and the
hash mechanism's steady-state IAgent population -- which the test suite
cross-checks against the simulator. Agreement between an independent
analytical model and the discrete-event implementation is the strongest
internal-validity evidence a simulation study can offer.
"""
