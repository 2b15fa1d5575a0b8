"""The requester's loop: resolve, ask, refresh-and-retry (paper §2.3 + §4.3).

Sans-IO, written once for the simulator's ``HashLocationMechanism`` and
the live ``ServiceClient``. A requester resolves the responsible IAgent
through its node's LHAgent, asks it, and recovers from a stale secondary
copy by refreshing it and asking again; a multi-result query does the
same over a *set* of candidate IAgents, where one stale candidate voids
the whole round.

A saga is a generator over the driver's ``counters`` (anything with
``bump(name, amount=1)``). Everything that needs a network it *yields* to the
driver stepping it:

  ("resolve", agent, stale)        ->  the LHAgent's mapping; ``stale`` is
                                       ``None`` (``whois``) or the version
                                       to ``refresh`` the copy past
  ("ask", mapping, op, body)       ->  the IAgent's reply dict
  ("pause", attempt, why)          ->  falsy to give up (deadline spent)
  ("candidates", agent, d, stale)  ->  ``(candidates, versions)``; ``stale``
                                       echoes a voided round's ``versions``
  ("fan-out", op, candidates, bodies)
                                   ->  the replies, in candidate order; the
                                       driver may stop after the first bad one

A request the driver could not perform is answered ``None``; the saga,
not the driver, decides what that means. A mapping is opaque here but
for its ``version``: one the driver cannot address is an *ask* it
answers ``None``. The saga says *when* to pause -- ``why`` is
:data:`UNRESOLVED`, :data:`UNREACHABLE` or the IAgent's status -- and the
driver how long; zero is a valid answer. Both sagas return a reply dict:
the IAgent's own, or ``{"status": why}`` once the budget is spent.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Tuple

from repro.core.iagent_state import NO_RECORD, NOT_RESPONSIBLE, OK
from repro.discovery.hamming import merge_matches

__all__ = ["UNREACHABLE", "UNRESOLVED", "discover_saga", "request_saga"]

#: The LHAgent gave no mapping (or no candidate set).
UNRESOLVED = "unresolved"
#: The resolved IAgent did not answer: crashed, moved or merged away.
UNREACHABLE = "unreachable"

Saga = Generator[Tuple[Any, ...], Any, Dict[str, Any]]


def request_saga(
    counters: Any,
    max_retries: int,
    agent: Any,
    op: str,
    body: Dict,
    tolerate_no_record: bool = False,
) -> Saga:
    """One single-result operation on ``agent``'s IAgent, with recovery.

    Each recovery costs one round of the ``max_retries`` budget:

    * no mapping -- pause, refresh the copy, re-resolve;
    * the IAgent is gone from where the copy placed it -- same;
    * ``not-responsible`` -- the copy was stale (§4.3): refresh at once;
    * ``no-record`` with ``tolerate_no_record`` -- the copy was right but
      the record is in flight between IAgents mid-rehash: pause and
      resolve again, with nothing to refresh past.
    """
    bump = counters.bump
    mapping = yield ("resolve", agent, None)
    stale, why = -1, UNRESOLVED
    for attempt in range(max_retries):
        if mapping is None:
            why = UNRESOLVED
        else:
            stale = mapping.get("version", -1)
            reply = yield ("ask", mapping, op, body)
            why = UNREACHABLE if reply is None else reply.get("status")
            if why == NOT_RESPONSIBLE:
                bump("not_responsible")
            elif why == NO_RECORD and tolerate_no_record:
                bump("no_record_retries")
            elif reply is not None:
                return reply
        bump("retries")
        if why != NOT_RESPONSIBLE and not (yield ("pause", attempt, why)):
            break
        if why == NO_RECORD:
            mapping, stale = (yield ("resolve", agent, None)), -1
        else:
            bump("refreshes")
            mapping = yield ("resolve", agent, stale)
    return {"status": why}


def discover_saga(counters: Any, max_retries: int, op: str, body: Dict) -> Saga:
    """One multi-result query: candidates, fan out, merge.

    Candidates are pruned by the query's ``agent`` and radius ``d`` when
    ``body`` has them (similarity; a capability query asks every
    IAgent). Every candidate is asked with the coverage ``pattern`` the
    copy attributed to it. Any candidate that bounces or does not answer voids
    the *whole* round -- a merged set is never assembled from two views
    of the tree -- and the next round names the versions this one was
    computed from, so the LHAgent refreshes past them first. Returns
    ``{"status": "ok", "matches": merged}``.
    """
    bump = counters.bump
    stale, why = None, UNRESOLVED
    for attempt in range(max_retries):
        found = yield ("candidates", body.get("agent"), body.get("d"), stale)
        if found is None:
            why = UNRESOLVED
        else:
            candidates, versions = found
            bodies = [dict(body, pattern=cand.get("pattern")) for cand in candidates]
            replies = yield ("fan-out", op, candidates, bodies)
            bad = [
                UNREACHABLE if reply is None else reply.get("status")
                for reply in replies
                if reply is None or reply.get("status") != OK
            ]
            if not bad:
                matches = merge_matches([reply.get("matches", []) for reply in replies])
                return {"status": OK, "matches": matches}
            if NOT_RESPONSIBLE in bad:
                bump("not_responsible", bad.count(NOT_RESPONSIBLE))
            bump("discovery_retries")
            stale, why = versions, bad[0]
        bump("retries")
        if not (yield ("pause", attempt, why)):
            break
    return {"status": why}
