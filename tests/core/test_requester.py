"""The requester sagas, stepped by hand and by both real drivers.

``script`` steps a saga against a list of canned answers, so each
recovery rule is one short table. ``TestBothDrivers`` then feeds the
same answers to ``HashLocationMechanism`` (its ``runtime.rpc`` answered
in memory, its generator stepped without a simulator) and to a
``ServiceClient`` (its channel answered in memory): under both, the
saga must make the same requests in the same order and count them the
same way. (The RPCs differ by design: the simulator's requester asks
its LHAgent to resolve and for discovery candidates, the live one
computes both from its own copy. With that copy already held, the live
driver makes a single-record op's first round itself and builds the
saga only when the answer is not ``ok``: it then feeds the saga that
round's mapping and reply, so the requests it records are the
simulator's all the same.)
(``tests/core/test_rehash_saga.py`` runs the sagas against real
``IAgentState`` leaves with a rehash suspended mid-way.)
"""

import asyncio
import random
from types import SimpleNamespace

import pytest

from repro.core.config import HashMechanismConfig
from repro.core.errors import LocateFailedError
from repro.core.hash_function import HashFunction
from repro.core.hash_tree import HashTree, SplitCandidate
from repro.core.mechanism import HashLocationMechanism
from repro.core.requester import discover_saga, request_saga
from repro.platform.events import Future
from repro.platform.messages import AgentNotFound
from repro.platform.naming import AgentId
from repro.service.client import (
    ClientConfig,
    RemoteOpError,
    ServiceClient,
    ServiceLocateError,
)

from tests.conftest import copy_reply, patch_backoff, snapshot_reply
from tests.core.test_rehash_saga import Tally

AGENT = AgentId(0x5EED << 40)


def mapping(iagent, version):
    return {"iagent": iagent, "node": "node-1", "addr": ["10.0.0.1", 7], "version": version}


def script(saga, answers):
    """Answer ``saga``'s requests from ``answers`` in order; returns
    ``(its return value, the requests it made)``."""
    answers, made, reply = list(answers), [], None
    while True:
        try:
            request = saga.send(reply)
        except StopIteration as done:
            assert not answers, f"unused answers: {answers}"
            return done.value, made
        made.append(request)
        reply = answers.pop(0)


class TestRequestSaga:
    def run(self, answers, max_retries=4, tolerate_no_record=True):
        counters = Tally()
        saga = request_saga(
            counters, max_retries, AGENT, "locate", {"agent": AGENT}, tolerate_no_record
        )
        reply, made = script(saga, answers)
        # In brief: the agent is always AGENT, a mapping is its IAgent.
        brief = {
            "resolve": lambda agent, stale: ("resolve", stale),
            "ask": lambda mapping, op, body: ("ask", mapping["iagent"]),
            "pause": lambda attempt, why: ("pause", attempt, why),
        }
        return reply, [brief[kind](*args) for kind, *args in made], counters

    def test_happy_path_is_two_requests_and_no_counter(self):
        first = mapping("ia-a", 1)
        ok = {"status": "ok", "node": "node-3"}
        counters = Tally()
        body = {"agent": AGENT}
        reply, made = script(request_saga(counters, 4, AGENT, "locate", body), [first, ok])
        assert reply is ok and counters == {}
        assert made == [("resolve", AGENT, None), ("ask", first, "locate", body)]

    def test_bounce_refreshes_past_the_mapping_version_without_a_pause(self):
        answers = [
            mapping("ia-a", 1),
            {"status": "not-responsible"},
            mapping("ia-b", 2),
            {"status": "ok", "node": "node-3"},
        ]
        reply, made, counters = self.run(answers)
        assert reply["node"] == "node-3"
        assert made == [("resolve", None), ("ask", "ia-a"), ("resolve", 1), ("ask", "ia-b")]
        assert counters == {"retries": 1, "not_responsible": 1, "refreshes": 1}

    def test_unanswered_hops_pause_then_refresh(self):
        # No mapping at all, then a mapping whose IAgent is gone, then a
        # refresh the LHAgent could not serve: each pauses and refreshes
        # past the last version it saw (-1 when it never saw one).
        answers = [
            None,
            True,
            mapping("ia-a", 4),
            None,
            True,
            None,
            True,
            mapping("ia-b", 5),
            {"status": "ok", "node": "node-3"},
        ]
        reply, made, counters = self.run(answers)
        assert reply["status"] == "ok"
        assert made == [
            ("resolve", None),
            ("pause", 0, "unresolved"),
            ("resolve", -1),
            ("ask", "ia-a"),
            ("pause", 1, "unreachable"),
            ("resolve", 4),
            ("pause", 2, "unresolved"),
            ("resolve", 4),
            ("ask", "ia-b"),
        ]
        assert counters == {"retries": 3, "refreshes": 3}

    def test_no_record_waits_and_resolves_again_with_nothing_to_refresh(self):
        answers = [
            mapping("ia-a", 1),
            {"status": "no-record"},
            True,
            None,  # the plain whois failed: there is no version to get past
            True,
            mapping("ia-a", 1),
            {"status": "ok", "node": "node-3"},
        ]
        reply, made, counters = self.run(answers)
        assert reply["status"] == "ok"
        assert made[2:6] == [
            ("pause", 0, "no-record"),
            ("resolve", None),
            ("pause", 1, "unresolved"),
            ("resolve", -1),
        ]
        assert counters == {"retries": 2, "no_record_retries": 1, "refreshes": 1}

    def test_no_record_is_an_answer_unless_tolerated(self):
        answers = [mapping("ia-a", 1), {"status": "no-record"}]
        reply, _made, counters = self.run(answers, tolerate_no_record=False)
        assert reply == {"status": "no-record"} and counters == {}

    def test_budget_and_a_refused_pause_both_end_with_the_last_status(self):
        bounce = {"status": "not-responsible"}
        answers = [mapping("ia-a", 1)] + [bounce, mapping("ia-a", 1)] * 3
        reply, made, counters = self.run(answers, max_retries=3)
        assert reply == {"status": "not-responsible"}
        assert counters == {"retries": 3, "not_responsible": 3, "refreshes": 3}
        assert made.count(("ask", "ia-a")) == 3
        # The driver's deadline is spent: a falsy pause gives up at once.
        reply, made, counters = self.run([mapping("ia-a", 1), None, False])
        assert reply == {"status": "unreachable"}
        assert made[-1] == ("pause", 0, "unreachable") and counters == {"retries": 1}


class TestDiscoverSaga:
    BODY = {"agent": AGENT, "d": 2}

    def run(self, answers, max_retries=4):
        counters = Tally()
        saga = discover_saga(counters, max_retries, "discover-similar", self.BODY)
        reply, made = script(saga, answers)
        return reply, made, counters

    def test_one_bad_candidate_voids_the_round_and_names_its_versions(self):
        left = {"iagent": "ia-a", "pattern": "0"}
        right = {"iagent": "ia-b", "pattern": "1"}
        hit = {"agent": AgentId(1), "node": "n", "seq": 0, "distance": 1}
        answers = [
            ([left, right], [[0, 7]]),
            [{"status": "ok", "matches": [hit]}, {"status": "not-responsible"}],
            True,
            ([left, right], [[0, 8]]),
            [{"status": "ok", "matches": [hit]}, None],
            True,
            None,
            True,
            ([left], [[0, 9]]),
            [{"status": "ok", "matches": [hit]}],
        ]
        reply, made, counters = self.run(answers)
        assert reply == {"status": "ok", "matches": [hit]}
        assert made[1] == (
            "fan-out",
            "discover-similar",
            [left, right],
            [dict(self.BODY, pattern="0"), dict(self.BODY, pattern="1")],
        )
        assert [r[3] for r in made if r[0] == "candidates"] == [
            None,
            [[0, 7]],
            [[0, 8]],
            [[0, 8]],
        ]
        assert [r[1:] for r in made if r[0] == "pause"] == [
            (0, "not-responsible"),
            (1, "unreachable"),
            (2, "unresolved"),
        ]
        assert counters == {"retries": 3, "discovery_retries": 2, "not_responsible": 1}

    def test_budget_spent_returns_the_last_status(self):
        round_ = [([{"iagent": "ia-a", "pattern": ""}], 3), [None], True]
        reply, _made, counters = self.run(round_ * 2, max_retries=2)
        assert reply == {"status": "unreachable"}
        assert counters == {"retries": 2, "discovery_retries": 2}


# ----------------------------------------------------------------------
# One script, both drivers
# ----------------------------------------------------------------------

VANISHED = object()

COUNTED = ("retries", "refreshes", "not_responsible", "no_record_retries", "discovery_retries")


def split_copy(version, left, right):
    """A copy at ``version`` split on the first id bit: ``left`` serves
    the ids starting 0, ``right`` those starting 1, both on node-1. A
    discovery round's candidates are computed from it: by the
    simulator's LHAgent, and by the live requester itself."""
    tree = HashTree(left)
    tree.apply_split(SplitCandidate(left, "simple", 1), right)
    return HashFunction(version, tree, dict.fromkeys((left, right), "node-1"))


def brief(request):
    """One saga request, down to what both drivers must agree on."""
    kind, *args = request
    if kind == "ask":
        found, op, body = args
        return kind, found["iagent"], op, body.get("pattern")
    if kind == "fan-out":
        return kind, args[0], [cand["iagent"] for cand in args[1]]
    if kind == "candidates":
        stale = args[2]
        return kind, stale[0][1] if isinstance(stale, list) else stale
    if kind == "resolve":
        return kind, args[1]  # the version to get past
    return kind, *args  # pause: attempt, why


@pytest.fixture
def requests(monkeypatch):
    """Every request either driver's saga makes, in order, as ``brief``."""
    made = []

    def recording(factory):
        def saga(*args, **kwargs):
            inner, reply = factory(*args, **kwargs), None
            try:
                while True:
                    request = inner.send(reply)
                    made.append(brief(request))
                    reply = yield request
            except StopIteration as done:
                return done.value

        return saga

    for driver in ("repro.core.mechanism", "repro.service.client"):
        monkeypatch.setattr(f"{driver}.request_saga", recording(request_saga))
        monkeypatch.setattr(f"{driver}.discover_saga", recording(discover_saga))
    return made


def through_simulator(answers, operation):
    """``operation(mechanism, node)`` with every ``runtime.rpc`` answered
    from ``answers``; the generator is stepped here, ``Timeout``s skipped."""
    answers = list(answers)

    def rpc(src, dst_node, dst_agent, op, body, timeout=None):
        future = Future()
        answer = answers.pop(0)
        if isinstance(answer, HashFunction):  # what the LHAgent computes from it
            cands = answer.candidates(body["agent"], body["d"])
            answer = {"candidates": cands, "version": answer.version}
        if answer is VANISHED:
            future.set_exception(AgentNotFound("agent-not-found"))
        else:
            future.set_result(answer)
        return future

    mechanism = HashLocationMechanism(HashMechanismConfig())
    mechanism.runtime = SimpleNamespace(rpc=rpc)
    mechanism.lhagents = {"node-0": SimpleNamespace(agent_id="lhagent")}
    generator = operation(mechanism, "node-0")
    value = failure = None
    try:
        while True:
            if failure is not None:
                yielded = generator.throw(failure)
            else:
                yielded = generator.send(value)
            value = failure = None
            if isinstance(yielded, Future):
                failure = yielded.exception()
                value = None if failure else yielded.result()
    except StopIteration as done:
        result = done.value
    assert not answers
    counters = mechanism.counters
    counted = {name: counters.extra.get(name, 0) for name in COUNTED}
    counted.update(retries=counters.retries, refreshes=counters.refreshes)
    return result, counted


class _ScriptedChannel:
    """The live driver resolves against its own copy, so a scripted
    mapping reaches it as the snapshot its LHAgent serves a pull with;
    a mapping the script holds for a resolve the driver answered
    locally must be the one it holds. It computes discovery candidates
    from its own copy too: a scripted copy is that pull's snapshot."""

    def __init__(self, answers, held=None):
        self.answers, self.held = list(answers), held

    async def call(self, addr, to, op, body, timeout=None, hedge=None):
        answer = self.answers.pop(0)
        if isinstance(answer, HashFunction):
            assert op == "get-hash-delta"
            return snapshot_reply(answer, "node-1", ["10.0.0.1", 7])
        if op == "get-hash-delta":
            self.held = answer
            return copy_reply(answer["iagent"], answer["node"], answer["addr"], answer["version"])
        if to != "lhagent" and isinstance(answer, dict) and "iagent" in answer:
            assert answer == self.held, "a local resolve the LHAgent would not have given"
            answer = self.answers.pop(0)
        if answer is VANISHED:
            raise RemoteOpError("agent-not-found: no such agent here")
        return answer


def through_client(answers, operation, held=False):
    """``operation(client)`` with every channel call answered from
    ``answers``; with ``held``, the client already holds the copy the
    script's first mapping comes from, so it resolves that one itself."""
    channel = _ScriptedChannel(answers, answers[0] if held else None)
    config = ClientConfig(max_retries=6)
    client = ServiceClient(
        "node-0", ("10.0.0.0", 1), config=config, channel=channel, rng=random.Random(5)
    )
    if held:
        first = answers[0]
        reply = copy_reply(first["iagent"], first["node"], first["addr"], first["version"])
        assert client._held.absorb(0, reply)
    with pytest.MonkeyPatch.context() as monkeypatch:
        patch_backoff(monkeypatch, 0.001, 0.002)
        result = asyncio.run(operation(client))
    assert not channel.answers
    counters = client.counters.as_dict()
    return result, {name: counters[name] for name in COUNTED}


class TestBothDrivers:
    OK = {"status": "ok", "node": "node-3", "seq": 2}
    HIT = {"agent": AgentId(1), "node": "node-2", "seq": 0, "distance": 1}

    LOCATES = {
        "stale copy, bounce, refresh, ok": (
            [mapping("ia-a", 1), {"status": "not-responsible"}, mapping("ia-b", 2), OK],
            [
                ("resolve", None),
                ("ask", "ia-a", "locate", None),
                ("resolve", 1),
                ("ask", "ia-b", "locate", None),
            ],
            {"retries": 1, "refreshes": 1, "not_responsible": 1},
        ),
        "vanished IAgent": (
            [mapping("ia-a", 3), VANISHED, mapping("ia-b", 3), OK],
            [
                ("resolve", None),
                ("ask", "ia-a", "locate", None),
                ("pause", 0, "unreachable"),
                ("resolve", 3),
                ("ask", "ia-b", "locate", None),
            ],
            {"retries": 1, "refreshes": 1},
        ),
        "no-record, then ok": (
            [mapping("ia-a", 1), {"status": "no-record"}, mapping("ia-a", 1), OK],
            [
                ("resolve", None),
                ("ask", "ia-a", "locate", None),
                ("pause", 0, "no-record"),
                ("resolve", None),
                ("ask", "ia-a", "locate", None),
            ],
            {"retries": 1, "no_record_retries": 1},
        ),
    }

    @pytest.mark.parametrize("case", LOCATES)
    def test_same_locate_script_same_requests_same_counters(self, case, requests):
        answers, made, counted = self.LOCATES[case]
        counted = {name: counted.get(name, 0) for name in COUNTED}
        simulated = through_simulator(
            answers, lambda mechanism, node: mechanism.locate(node, AGENT)
        )
        assert requests == made
        del requests[:]
        live = through_client(answers, lambda client: client.locate(AGENT))
        assert requests == made
        assert simulated == live == ("node-3", counted)

    @pytest.mark.parametrize("case", LOCATES)
    def test_same_script_with_the_copy_held_the_inline_round_draws_it(
        self, case, requests
    ):
        """The live client asks the first IAgent itself and hands the
        saga that round: the saga records the simulator's requests."""
        answers, made, counted = self.LOCATES[case]
        counted = {name: counted.get(name, 0) for name in COUNTED}
        simulated = through_simulator(
            answers, lambda mechanism, node: mechanism.locate(node, AGENT)
        )
        assert requests == made
        del requests[:]
        live = through_client(answers, lambda client: client.locate(AGENT), held=True)
        assert requests == made
        assert simulated == live == ("node-3", counted)

    OK_FIRST = {
        "locate": (
            lambda mechanism, node: mechanism.locate(node, AGENT),
            lambda client: client.locate(AGENT),
            "node-3",
        ),
        "update": (
            lambda mechanism, node: mechanism.report_move(
                SimpleNamespace(agent_id=AGENT, node_name="node-0")
            ),
            lambda client: client.update(AGENT, "node-0", 2),
            None,
        ),
    }

    @pytest.mark.parametrize("op", OK_FIRST)
    def test_an_ok_first_answer_builds_no_saga_live(self, op, requests):
        simulate, perform, value = self.OK_FIRST[op]
        answers = [mapping("ia-a", 1), self.OK]
        simulated = through_simulator(answers, simulate)
        assert requests == [("resolve", None), ("ask", "ia-a", op, None)]
        del requests[:]
        live = through_client(answers, perform, held=True)
        assert requests == []
        assert simulated == live == (value, dict.fromkeys(COUNTED, 0))

    def test_one_stale_discovery_candidate(self, requests):
        answers = [
            split_copy(4, "ia-0", "ia-1"),
            {"status": "ok", "matches": [self.HIT]},
            {"status": "not-responsible"},
            split_copy(5, "ia-0", "ia-1x"),
            {"status": "ok", "matches": [self.HIT]},
            {"status": "ok", "matches": []},
        ]
        made = [
            ("candidates", None),
            ("fan-out", "discover-similar", ["ia-0", "ia-1"]),
            ("pause", 0, "not-responsible"),
            ("candidates", 4),
            ("fan-out", "discover-similar", ["ia-0", "ia-1x"]),
        ]
        counted = dict.fromkeys(COUNTED, 0)
        counted.update(retries=1, not_responsible=1, discovery_retries=1)
        simulated = through_simulator(
            answers,
            lambda mechanism, node: mechanism.discover_similar(node, AGENT, 3),
        )
        assert requests == made
        del requests[:]
        live = through_client(answers, lambda client: client.discover_similar(AGENT, 3))
        assert requests == made
        assert simulated == live == ([self.HIT], counted)

    def test_budget_spent_raises_each_drivers_own_error(self):
        bounce = {"status": "not-responsible"}
        answers = [mapping("ia-a", 1)] + [bounce, mapping("ia-a", 1)] * 6
        with pytest.raises(LocateFailedError, match="not-responsible"):
            through_simulator(
                answers, lambda mechanism, node: mechanism.locate(node, AGENT)
            )
        with pytest.raises(ServiceLocateError, match="not-responsible"):
            through_client(answers, lambda client: client.locate(AGENT))
