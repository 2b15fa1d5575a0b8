"""Discrete-event mobile-agent platform (the Aglets substitute).

The paper implemented its location mechanism on IBM Aglets 2.0, a Java
mobile-agent platform, and measured it on a LAN of Sun Blade workstations.
Neither is available here, so this package provides the closest synthetic
equivalent: a deterministic discrete-event simulation of a mobile-agent
platform with

* a virtual-time event loop with lightweight generator-based processes
  (:mod:`repro.platform.simulator`, :mod:`repro.platform.events`),
* a network model with per-link latency, jitter and loss
  (:mod:`repro.platform.network`),
* nodes hosting agents, each agent served by a *serial* mailbox with a
  configurable per-message service time (:mod:`repro.platform.mailbox`,
  :mod:`repro.platform.node`) -- this serial service is what makes a
  centralized location agent a measurable bottleneck, exactly the effect
  the paper's evaluation exercises,
* agent lifecycle and migration (:mod:`repro.platform.agents`,
  :mod:`repro.platform.runtime`), and
* fault injection for the fault-tolerance extension
  (:mod:`repro.platform.failures`) and seeded, replayable chaos
  schedules shared with the live cluster driver
  (:mod:`repro.platform.chaos`).

All randomness flows through named, seeded streams
(:mod:`repro.platform.random`), so every experiment is reproducible
bit-for-bit from its seed.
"""
