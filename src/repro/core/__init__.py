"""The paper's contribution: the hash-based agent location mechanism.

Layering, bottom-up:

* :mod:`repro.core.labels` / :mod:`repro.core.hash_tree` -- the pure
  data structure: an extendible hash function over agent-id bit strings,
  represented as a binary *hash tree* whose edges carry multi-bit labels
  (first bit = valid bit, rest skipped). Splitting and merging leaves
  rehashes only the agents of the involved IAgents (paper §3-§4).
* :mod:`repro.core.load` -- sliding-window request-rate statistics, the
  signal that drives rehashing against the ``T_max``/``T_min``
  thresholds.
* :mod:`repro.core.iagent_state` -- the IAgent's record table as a
  sans-IO state machine, shared with the live service.
* :mod:`repro.core.iagent` / :mod:`repro.core.lhagent` /
  :mod:`repro.core.hagent` -- the three agent roles (paper §2.2) built
  on the platform substrate.
* :mod:`repro.core.rehashing` -- the split/merge policy engine and the
  sans-IO split/merge saga both coordinators step.
* :mod:`repro.core.mechanism` -- the facade the platform's tracked
  agents talk to: register / report_move / locate.
* :mod:`repro.core.placement`, :mod:`repro.core.replication` -- the two
  extensions the paper lists as ongoing work (§7): IAgent placement
  toward their agents, and a primary/backup HAgent.
"""
