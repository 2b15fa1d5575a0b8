"""repro: a scalable hash-based mobile-agent location mechanism.

A faithful, simulation-backed reproduction of

    Georgia Kastidou, Evaggelia Pitoura, George Samaras.
    "A Scalable Hash-Based Mobile Agent Location Mechanism."
    ICDCS Workshops 2003.

The package layers as follows (see DESIGN.md for the full inventory):

* :mod:`repro.platform` -- a deterministic discrete-event mobile-agent
  platform (the Aglets substitute): nodes, network, mailboxes, agents,
  migration, fault injection.
* :mod:`repro.core` -- the paper's contribution: the extendible hash
  tree, the IAgent/LHAgent/HAgent roles, dynamic rehashing, and the
  :class:`~repro.core.mechanism.HashLocationMechanism` facade; plus the
  paper's §7 extensions (IAgent placement, primary/backup HAgent).
* :mod:`repro.baselines` -- the centralized comparator of the paper's
  evaluation and three related-work schemes (forwarding pointers,
  HLR/VLR home registry, Chord-style consistent hashing).
* :mod:`repro.workloads` / :mod:`repro.metrics` /
  :mod:`repro.harness` -- populations, query streams, statistics and
  the experiment runner that regenerates every figure.

Quickstart::

    from repro import (
        AgentRuntime, HashLocationMechanism, spawn_population,
        ConstantResidence,
    )

    runtime = AgentRuntime()
    runtime.create_nodes(8)
    runtime.install_location_mechanism(HashLocationMechanism())
    agents = spawn_population(runtime, 20, ConstantResidence(0.5))
    runtime.sim.run(until=5.0)

    def find(agent_id):
        node = yield from runtime.location.locate("node-0", agent_id)
        return node

    print(runtime.sim.run_process(find(agents[0].agent_id)))
"""

import importlib
from typing import Any

__version__ = "1.9.0"

#: The documented root names, each mapped to the module that defines
#: it. Resolved on first use, so ``import repro.<subpackage>`` loads
#: only what that subpackage imports.
_EXPORTS = {
    "Agent": "repro.platform.agents",
    "AgentId": "repro.platform.naming",
    "AgentRuntime": "repro.platform.runtime",
    "CentralizedMechanism": "repro.baselines.centralized",
    "ChordMechanism": "repro.baselines.chord",
    "ConstantResidence": "repro.workloads.mobility",
    "ExponentialResidence": "repro.workloads.mobility",
    "ForwardingPointersMechanism": "repro.baselines.forwarding",
    "HashLocationMechanism": "repro.core.mechanism",
    "HashMechanismConfig": "repro.core.config",
    "HashTree": "repro.core.hash_tree",
    "HomeRegistryMechanism": "repro.baselines.home_registry",
    "LocationMechanism": "repro.baselines.base",
    "MobileAgent": "repro.platform.agents",
    "QueryWorkload": "repro.workloads.queries",
    "Scenario": "repro.workloads.scenarios",
    "Simulator": "repro.platform.simulator",
    "TAgent": "repro.workloads.population",
    "Timeout": "repro.platform.events",
    "exp1_scenario": "repro.workloads.scenarios",
    "exp2_scenario": "repro.workloads.scenarios",
    "run_experiment": "repro.harness.experiment",
    "spawn_population": "repro.workloads.population",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
