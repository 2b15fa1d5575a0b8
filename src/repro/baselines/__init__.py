"""Location-mechanism comparators.

:mod:`repro.baselines.centralized` is the paper's own comparator (§5): a
single central agent serving every registration, movement update and
query. The other three implement the related-work schemes of §6 so the
cross-mechanism benchmark (ABL-B) can put the hash mechanism in context:

* :mod:`repro.baselines.forwarding` -- Voyager-style name service with
  forwarding pointers left at visited nodes;
* :mod:`repro.baselines.home_registry` -- Ajanta-style HLR/VLR: a home
  registry per creation domain plus per-domain visitor registries;
* :mod:`repro.baselines.chord` -- a consistent-hashing directory over a
  Chord-like ring (the paper contrasts its load-balancing goal with
  Chord's item-balancing goal);
* :mod:`repro.baselines.flooding` -- the no-directory strawman (§6
  notes most platforms of the era shipped no location mechanism at
  all): locate by probing every node.
"""
