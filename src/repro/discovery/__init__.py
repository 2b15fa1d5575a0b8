"""Discovery subsystem: similarity and capability search (ROADMAP item 2).

Two query families on top of the location mechanism:

* **Similarity** -- "which agents have ids within Hamming distance d of
  X?" answered by a prefix-pruned walk over the hash tree
  (:meth:`repro.core.hash_tree.HashTree.find_within_hamming`) that
  selects candidate IAgents, followed by an exact scan of only those
  IAgents' record tables (:mod:`repro.discovery.hamming`).
* **Capability** -- agents register typed capability sets (e.g.
  ``{"ocr": {"langs": ["en"]}, "gpu": true}``) that travel with their
  location records through put/extract/adopt and survive splits, merges
  and WAL recovery; clients discover "any agent matching predicate P"
  (:mod:`repro.discovery.capability`).

Both run the same algorithm in the simulator and the live service (the
candidate step lives on :class:`repro.core.hash_function.HashFunction`, so
LHAgent secondaries serve it from their cached copies), and both are
multi-result: per-shard partial results are merged at the client with
per-item §4.3 stale-copy fallback.

:mod:`repro.discovery.drill` is the live acceptance drill behind
``python -m repro discover`` -- mixed locate + discovery traffic whose
every result is verified against driver-side ground truth.
"""
