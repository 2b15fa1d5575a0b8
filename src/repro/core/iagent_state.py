"""The IAgent's record table as one sans-IO state machine.

The paper's IAgent is a leaf's table of ``agent id -> precise current
location`` that answers ``not-responsible`` outside its coverage (§2.2,
§4.3) and hands records over on split and merge (§4.1-§4.2). This module
holds that table once, with no clock, no sockets and no simulator: the
simulator agent (:class:`repro.core.iagent.IAgent`) and the live
endpoint (``repro.service.server.IAgentEndpoint``) are drivers that feed
it ``(body, now)`` and act on what it returns.

The table is a plain dict -- ``{"coverage", "records", "capabilities"}``,
records being ``agent -> [node, seq]`` -- because that dict *is* the
durable snapshot shape. Every mutation takes one path:

    validate -> build the journal entry -> ``apply(table, entry)``
             -> return ``(reply, entry)``

:meth:`IAgentState.apply` is the only code that performs a transition,
so a driver that journals the returned entries and later replays them
through the same ``apply`` rebuilds the table exactly; there is no
second interpretation of the log. A mutation that was refused or lost
its sequence race returns ``entry=None``: nothing changed, nothing to
journal. Load statistics are soft state outside the table: the methods
update the injected ``stats`` object around ``apply``, replay does not.

The hand-off *bundle* exchanged on split / merge is any mapping whose
dict-valued keys are per-agent tables (``records``, ``loads``,
``capabilities``, and whatever else a driver lets ride along -- the
simulator's relay ``pending`` mail); scalar keys (``status``,
``pattern``, an RPC envelope's fields) are not part of the hand-off.
:func:`merge_handoffs` and :func:`route_handoff` own that format for the
coordinators.
"""

from __future__ import annotations

from itertools import filterfalse
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.discovery.capability import matches_predicate, validate_capabilities
from repro.discovery.hamming import ids_within

__all__ = [
    "IAgentState",
    "NO_RECORD",
    "NOT_RESPONSIBLE",
    "OK",
    "compile_coverage",
    "merge_handoffs",
    "pattern_matches",
    "route_handoff",
    "table_field",
]

#: Status strings of the IAgent protocol.
OK = "ok"
NOT_RESPONSIBLE = "not-responsible"
NO_RECORD = "no-record"

#: What a mutation returns: the reply, and the journal entry it applied
#: (``None`` when nothing changed).
Outcome = Tuple[Dict[str, Any], Optional[Dict[str, Any]]]


def pattern_matches(pattern: Optional[str], bits: str) -> bool:
    """Whether id ``bits`` fall inside a coverage ``pattern``.

    ``pattern`` uses ``0``/``1`` for constrained positions and ``x`` for
    wildcards (see :meth:`repro.core.labels.HyperLabel.pattern`). ``""``
    covers everything; ``None`` covers nothing (a freshly created IAgent
    that has not been handed its coverage yet).
    """
    if pattern is None:
        return False
    if len(pattern) > len(bits):
        return False
    return all(p in ("x", b) for p, b in zip(pattern, bits))


_MASK_DIGITS = str.maketrans("01x", "110")


def _covers_nothing(agent: Any) -> bool:
    return False


def compile_coverage(pattern: Optional[str]) -> Callable[[Any], bool]:
    """``pattern_matches(pattern, agent.bits)`` as a test on the id's
    integer: the pattern becomes ``(length, mask, want)`` once, and an
    id is covered when its top ``length`` bits, masked, equal ``want``
    -- no bit string is formatted per id."""
    if pattern is None or not set(pattern) <= {"0", "1", "x"}:
        return _covers_nothing
    length = len(pattern)
    mask = int(pattern.translate(_MASK_DIGITS) or "0", 2)
    want = int(pattern.replace("x", "0") or "0", 2)

    def covers(agent: Any) -> bool:
        value, width = agent
        spare = width - length
        return spare >= 0 and (value >> spare) & mask == want

    return covers


def _admits(records: Dict, agent: Any, seq: int) -> bool:
    """The sequence gate: a write wins unless a newer one is held."""
    held = records.get(agent)
    return held is None or seq >= held[1]


def _put(table: Dict[str, Any], entry: Dict[str, Any]) -> bool:
    """The ``put`` transition: store the row unless a newer sequence is
    held; whether it won."""
    agent, seq = entry["agent"], entry["seq"]
    records = table["records"]
    if not _admits(records, agent, seq):
        return False
    records[agent] = [entry["node"], seq]
    if "caps" in entry:
        table["capabilities"][agent] = entry["caps"]
    return True


class table_field:
    """A driver attribute that reads and writes one field of its
    ``state.table`` (drivers keep ``coverage`` / ``records`` /
    ``capabilities`` assignable without holding a second copy)."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __get__(self, driver: Any, owner: Any = None) -> Any:
        if driver is None:
            return self
        return driver.state.table[self.name]

    def __set__(self, driver: Any, value: Any) -> None:
        driver.state.table[self.name] = value


class IAgentState:
    """One hash-tree leaf's directory shard: table + soft load stats."""

    __slots__ = ("table", "stats", "_compiled_for", "_covers")

    def __init__(self, coverage: Optional[str], stats: Any) -> None:
        self.table = self.initial_table()
        self.table["coverage"] = coverage
        #: ``LoadStatistics`` or ``GroupedLoadStatistics``; never asked which.
        self.stats = stats
        self._compiled_for = coverage
        self._covers = compile_coverage(coverage)

    def covers(self, agent: Any) -> bool:
        """Whether ``agent`` falls inside the current coverage.

        The table is a plain dict that ``apply``, replay and the drivers
        all write, so the compiled test is keyed on the pattern it was
        compiled from and renewed when the table holds another.
        """
        return self._coverage_test()(agent)

    def _coverage_test(self) -> Callable[[Any], bool]:
        """The compiled test for the coverage the table holds now."""
        pattern = self.table["coverage"]
        if pattern != self._compiled_for:
            self._compiled_for = pattern
            self._covers = compile_coverage(pattern)
        return self._covers

    @staticmethod
    def initial_table() -> Dict[str, Any]:
        """The durable-state shape: coverage + records + capabilities."""
        return {"coverage": None, "records": {}, "capabilities": {}}

    # -- the one transition function ------------------------------------

    @staticmethod
    def apply(table: Dict[str, Any], entry: Dict[str, Any]) -> Any:
        """Perform one journal entry's transition on ``table``.

        Returns the transition's by-product -- whether a ``put`` won its
        sequence race, the ``{"records", "capabilities"}`` an ``extract``
        or ``clear`` displaced -- which replay ignores.
        """
        kind = entry["op"]
        if kind == "put":
            return _put(table, entry)
        records = table["records"]
        capabilities = table["capabilities"]
        if kind == "del":
            records.pop(entry["agent"], None)
            capabilities.pop(entry["agent"], None)
        elif kind == "caps":
            if entry["caps"] is None:
                capabilities.pop(entry["agent"], None)
            elif entry["agent"] in records:
                capabilities[entry["agent"]] = entry["caps"]
        elif kind == "coverage":
            table["coverage"] = entry["pattern"]
        elif kind == "extract":
            pattern = entry["pattern"]
            table["coverage"] = pattern
            gone = list(filterfalse(compile_coverage(pattern), records))
            return {
                "records": {agent: records.pop(agent) for agent in gone},
                "capabilities": {
                    agent: capabilities.pop(agent)
                    for agent in gone
                    if agent in capabilities
                },
            }
        elif kind == "clear":
            table.update(IAgentState.initial_table())
            return {"records": records, "capabilities": capabilities}
        elif kind == "adopt":
            if "pattern" in entry:
                table["coverage"] = entry["pattern"]
            caps_in = entry.get("capabilities", {})
            for agent, record in entry["records"].items():
                if _admits(records, agent, record[1]):
                    records[agent] = record
                    if agent in caps_in:
                        capabilities[agent] = caps_in[agent]
        else:  # pragma: no cover - would be a writer bug
            raise ValueError(f"unknown IAgent mutation {kind!r}")
        return None

    # -- mutations: validate -> entry -> apply -> (reply, entry) --------

    def put(self, body: Dict, now: float) -> Outcome:
        """``register`` / ``update``: store ``[node, seq]`` (and an
        optional capability set) unless a newer sequence is held."""
        agent = body["agent"]
        if not self.covers(agent):
            return {"status": NOT_RESPONSIBLE}, None
        entry = {"op": "put", "agent": agent, "node": body["node"], "seq": body.get("seq", 0)}
        caps = body.get("capabilities")
        if caps is not None:
            entry["caps"] = validate_capabilities(caps)
        won = _put(self.table, entry)
        self.stats.record_update(agent, now)
        return {"status": OK}, entry if won else None

    def put_rows(
        self,
        records: Dict[Any, Sequence],
        capabilities: Optional[Dict[Any, Dict]],
        now: float,
        entries: List[Dict[str, Any]],
    ) -> List[Any]:
        """:meth:`put` of every ``agent -> [node, seq]`` row of a batch
        (``capabilities`` holds the rows that carry a set), in one pass:
        each admitted row's ``put`` entry is appended to ``entries`` in
        row order, and the agents this leaf does not cover are returned.

        A malformed capability set raises with the rows before it
        applied, counted and in ``entries`` -- N single puts would have
        journaled them -- and it and the rows after it untouched.
        """
        covers, table = self._coverage_test(), self.table
        counted: List[Any] = []
        bounced: List[Any] = []
        try:
            for agent, (node, seq) in records.items():
                if not covers(agent):
                    bounced.append(agent)
                    continue
                entry = {"op": "put", "agent": agent, "node": node, "seq": seq}
                caps = capabilities.get(agent) if capabilities else None
                if caps is not None:
                    entry["caps"] = validate_capabilities(caps)
                counted.append(agent)
                if _put(table, entry):
                    entries.append(entry)
        finally:
            self.stats.record_updates(counted, now)
        return bounced

    def unregister(self, body: Dict) -> Outcome:
        agent = body["agent"]
        table = self.table
        if not self.covers(agent):
            return {"status": NOT_RESPONSIBLE}, None
        if not _admits(table["records"], agent, body.get("seq", 0)):
            return {"status": OK}, None  # a late farewell from before a re-register
        self.stats.forget_agent(agent)
        if agent not in table["records"]:
            return {"status": OK}, None
        entry = {"op": "del", "agent": agent}
        self.apply(table, entry)
        return {"status": OK}, entry

    def set_capabilities(self, body: Dict, now: float) -> Outcome:
        """Attach (or with ``None`` clear) a held agent's capability set."""
        agent = body["agent"]
        table = self.table
        if not self.covers(agent):
            return {"status": NOT_RESPONSIBLE}, None
        if agent not in table["records"]:
            return {"status": NO_RECORD}, None
        caps = body.get("capabilities")
        if caps is not None:
            validate_capabilities(caps)
        entry = {"op": "caps", "agent": agent, "caps": caps}
        self.apply(table, entry)
        self.stats.record_update(agent, now)
        return {"status": OK}, entry

    def set_coverage(self, body: Dict) -> Outcome:
        entry = {"op": "coverage", "pattern": body["pattern"]}
        self.apply(self.table, entry)
        return {"status": OK}, entry

    def extract(self, body: Dict, now: float) -> Outcome:
        """Shrink coverage to ``pattern``; hand back everything outside it.

        Replay recomputes the displaced records from the pattern, so the
        journal entry is O(1) however many records moved.
        """
        entry = {"op": "extract", "pattern": body["pattern"]}
        displaced = self.apply(self.table, entry)
        self.stats.total.reset(now)
        return self._handoff(displaced), entry

    def extract_all(self) -> Outcome:
        """Give up everything (this IAgent is being merged away)."""
        entry = {"op": "clear"}
        return self._handoff(self.apply(self.table, entry)), entry

    def hand_off(
        self, keep: Optional[str], patterns: Sequence[str], now: float
    ) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
        """Give records up to other leaves (split / merge): :meth:`extract`
        down to ``keep`` (``None``: :meth:`extract_all`), then split the
        displaced bundle by the destinations' ``patterns``.

        Returns one bundle per pattern, in order, each carrying its
        pattern -- what that destination adopts -- and the journal
        entry. A lone destination takes everything displaced, as a
        split's new leaf does; among several, an agent goes to the first
        pattern that covers it.
        """
        if keep is None:
            displaced, entry = self.extract_all()
        else:
            displaced, entry = self.extract({"pattern": keep}, now)
        del displaced["status"]
        if len(patterns) == 1:
            displaced["pattern"] = patterns[0]
            return [displaced], entry
        tests = [compile_coverage(pattern) for pattern in patterns]
        bundles: List[Dict[str, Any]] = [{"pattern": pattern} for pattern in patterns]
        for key, part in displaced.items():
            tables = [bundle.setdefault(key, {}) for bundle in bundles]
            for agent, value in part.items():
                for covers, table in zip(tests, tables):
                    if covers(agent):
                        table[agent] = value
                        break
        return bundles, entry

    def _handoff(self, displaced: Dict[str, Dict]) -> Dict[str, Any]:
        """The hand-off bundle for displaced records; their load
        accumulators leave with them."""
        records = displaced["records"]
        return {
            "status": OK,
            "records": records,
            "loads": self.stats.release(records),
            "capabilities": displaced["capabilities"],
        }

    def adopt(self, body: Dict) -> Outcome:
        """Take over a hand-off bundle (and optionally new coverage).

        Adopted records come from another shard, so (unlike extract)
        they ride in the journal entry itself. Bundle keys this table
        does not know (a driver's own cargo) are left to the driver.
        A row that is already a ``[node, seq]`` list is kept, not copied:
        :meth:`apply` replaces a held row and never mutates one, so two
        tables may share it.
        """
        entry: Dict[str, Any] = {
            "op": "adopt",
            "records": {
                agent: record if type(record) is list else list(record)
                for agent, record in body.get("records", {}).items()
            },
        }
        if body.get("capabilities"):
            entry["capabilities"] = dict(body["capabilities"])
        if "pattern" in body:
            entry["pattern"] = body["pattern"]
        self.apply(self.table, entry)
        self.stats.absorb(body.get("loads", {}))
        return {"status": OK}, entry

    # -- reads ------------------------------------------------------------

    def locate(self, body: Dict, now: float) -> Dict[str, Any]:
        agent = body["agent"]
        table = self.table
        if not self.covers(agent):
            return {"status": NOT_RESPONSIBLE}
        self.stats.record_query(agent, now)
        record = table["records"].get(agent)
        if record is None:
            return {"status": NO_RECORD}
        return {"status": OK, "node": record[0], "seq": record[1]}

    def locate_rows(self, agents: Iterable[Any], now: float) -> Dict[Any, List]:
        """:meth:`locate` of many agents: ``agent -> [node, seq]`` for
        each one answered ``ok`` (the held row itself, not a copy)."""
        covers, record_query = self._coverage_test(), self.stats.record_query
        records = self.table["records"]
        found = {}
        for agent in agents:
            if covers(agent):
                record_query(agent, now)
                record = records.get(agent)
                if record is not None:
                    found[agent] = record
        return found

    def get_loads(self, body: Dict, now: float) -> Dict[str, Any]:
        """The accumulated load on either side of each candidate id bit
        in ``body["bits"]`` (paper §4.1): what the split planner asks,
        answered where the statistics are kept."""
        return {
            "status": OK,
            "rate": self.stats.rate(now),
            "divisions": self.stats.divide(body["bits"]),
        }

    def _check_candidate_pattern(self, body: Dict) -> Optional[Dict]:
        """Staleness gate for multi-result queries.

        The querying side learned of this IAgent from a secondary copy
        and passes the coverage pattern that copy attributed to it. If
        the actual coverage differs -- this leaf split, merged or was
        taken over since -- answering would silently return a partial
        result set, so bounce with NOT_RESPONSIBLE and let the §4.3
        refresh loop recompute the candidates.
        """
        pattern = body.get("pattern")
        if pattern is not None and pattern != self.table["coverage"]:
            return {"status": NOT_RESPONSIBLE}
        return None

    def discover_similar(self, body: Dict) -> Dict[str, Any]:
        stale = self._check_candidate_pattern(body)
        if stale is not None:
            return stale
        records = self.table["records"]
        matches = [
            {
                "agent": other,
                "node": records[other][0],
                "seq": records[other][1],
                "distance": dist,
            }
            for other, dist in ids_within(records, body["agent"], body["d"])
        ]
        return {"status": OK, "matches": matches}

    def discover_capability(self, body: Dict) -> Dict[str, Any]:
        stale = self._check_candidate_pattern(body)
        if stale is not None:
            return stale
        predicate = body["predicate"]
        records, capabilities = self.table["records"], self.table["capabilities"]
        # Filter first, sort the (much smaller) match set after: sorting
        # the whole capability table per query dominates batched rounds.
        hits = sorted(
            agent
            for agent, caps in capabilities.items()
            if agent in records and matches_predicate(caps, predicate)
        )
        matches = [
            {
                "agent": agent,
                "node": records[agent][0],
                "seq": records[agent][1],
                "capabilities": capabilities[agent],
            }
            for agent in hits
        ]
        return {"status": OK, "matches": matches}


# ----------------------------------------------------------------------
# The hand-off bundle, coordinator side
# ----------------------------------------------------------------------


def merge_handoffs(replies: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Split side: fold every affected leaf's ``extract`` reply into the
    one bundle the new leaf adopts."""
    bundle: Dict[str, Any] = {"records": {}}
    for reply in replies:
        for key, part in reply.items():
            if isinstance(part, dict):
                bundle.setdefault(key, {}).update(part)
    return bundle


def route_handoff(
    tree: Any, bundle: Dict[str, Any], absorbers: Iterable[Any] = ()
) -> Dict[Any, Dict[str, Any]]:
    """Merge side: split one bundle by the leaf ``tree.lookup_id`` names
    for each agent. Every leaf in ``absorbers`` gets a (possibly empty)
    bundle, since its coverage changed even if it receives nothing."""
    routed: Dict[Any, Dict[str, Any]] = {absorber: {} for absorber in absorbers}
    leaf_of: Dict[Any, Any] = {}
    for key, part in bundle.items():
        if not isinstance(part, dict):
            continue
        for agent, value in part.items():
            leaf = leaf_of.get(agent)
            if leaf is None:
                leaf = leaf_of[agent] = tree.lookup_id(agent)
            routed.setdefault(leaf, {}).setdefault(key, {})[agent] = value
    return routed
