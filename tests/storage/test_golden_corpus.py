"""The one storage format, pinned byte for byte.

A scripted coordinator (simple and complex splits, merges, moves, an
epoch claim) and a scripted IAgent (put, del, capabilities, extract,
adopt) each journal through a :class:`DurableStore` that snapshots every
5 records, the way their live drivers do. Each script writes its data
dir twice: the two runs must be byte-identical, and the sha256 of every
WAL segment and snapshot file must equal the one committed here, so a
change of one byte in the format-2 encoding fails this test.
"""

import hashlib

import pytest

from repro.core.coordinator_state import CoordinatorState
from repro.core.iagent_state import IAgentState
from repro.core.load import LoadStatistics
from repro.platform.naming import AgentId, AgentNamer
from repro.storage import DurableStore

#: (what, owner selector, candidate selector): splits take the
#: candidate of their kind the selectors name; a merge folds the leaf.
COORDINATOR_SCRIPT = [
    ("simple", 0, 0),
    ("simple", 1, 1),
    ("complex", 0, 0),
    ("simple", 2, 3),
    ("move", 1, 0),
    ("merge", 2, 0),
    ("complex", 1, 1),
    ("simple", 3, 2),
    ("epoch", 0, 0),
    ("merge", 0, 0),
    ("simple", 4, 0),
    ("complex", 2, 0),
    ("merge", 3, 0),
    ("move", 0, 1),
    ("simple", 0, 5),
]

NODES = ["node-0", "node-1", "node-é"]


def journal(store, state, entry):
    """What a live driver does with a mutation's entry: log it, then
    fold the log into a snapshot when one is due."""
    if entry is not None:
        store.log(entry)
        if store.should_snapshot:
            store.snapshot(state())


def scripted_coordinator(root):
    state = CoordinatorState(0, 1, AgentNamer(seed=3, width=8), 16)
    store = DurableStore(root, "hagent", fsync="never", snapshot_every=5)
    for port, name in enumerate(NODES, start=7000):
        journal(store, state.bundle, state.register_node(name, "127.0.0.1", port))
    journal(store, state.bundle, state.bootstrap(state.namer.next_id(), "node-0"))
    kinds = set()
    for what, owner_selector, selector in COORDINATOR_SCRIPT:
        tree = state.function.tree
        owners = tree.owners()
        owner = owners[owner_selector % len(owners)]
        if what == "epoch":
            entry = state.raise_epoch(state.epoch + 1)
        elif what == "move":
            entry, _ = state.publish(
                {"op": "move", "owner": owner, "node": NODES[selector % len(NODES)]}
            )
        elif what == "merge":
            if len(owners) == 1:
                continue
            entry, _ = state.publish({"op": "merge", "owner": owner})
        else:
            candidates = [c for c in tree.split_candidates(owner, scope="path") if c.kind == what]
            if not candidates:
                continue
            chosen = candidates[selector % len(candidates)]
            entry, _ = state.publish(
                {
                    "op": "split",
                    "kind": chosen.kind,
                    "owner": owner,
                    "bit": chosen.bit_position,
                    "new_owner": state.namer.next_id(),
                    "new_node": NODES[selector % len(NODES)],
                }
            )
        kinds.add(what)
        journal(store, state.bundle, entry)
    store.close()
    return kinds


def scripted_iagent(root):
    ids = [AgentId((0x9E37_79B9_7F4A_7C15 * (index + 1)) % (1 << 64), 64) for index in range(12)]
    state = IAgentState("", LoadStatistics(10.0))
    store = DurableStore(root, "iagent", fsync="never", snapshot_every=5)
    now = 100.0

    def table():
        return state.table

    for seq, agent in enumerate(ids, start=1):
        body = {"agent": agent, "node": NODES[seq % 3], "seq": seq}
        if seq % 4 == 0:
            body["capabilities"] = {"gpu": seq % 8 == 0, "zone": "eu"}
        journal(store, table, state.put(body, now)[1])
    journal(store, table, state.unregister({"agent": ids[2], "seq": 3})[1])
    journal(store, table, state.set_capabilities(
        {"agent": ids[5], "capabilities": {"relay": True, "slots": 4}}, now)[1])
    journal(store, table, state.put({"agent": ids[1], "node": "node-é", "seq": 20}, now)[1])
    journal(store, table, state.extract({"pattern": "1"}, now)[1])
    journal(store, table, state.adopt(
        {
            "records": {AgentId(0xC001_D00D_0000_0001, 64): ["node-2", 4],
                        AgentId(0x8000_0000_0000_0101, 64): ["node-0", 1]},
            "loads": {},
            "capabilities": {AgentId(0xC001_D00D_0000_0001, 64): {"relay": True}},
            "pattern": "",
        }
    )[1])
    journal(store, table, state.unregister({"agent": ids[7], "seq": 8})[1])
    store.close()


def written(root):
    """Every file under ``root``: relative path -> bytes."""
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def digest(files):
    sha = hashlib.sha256()
    for name, data in sorted(files.items()):
        sha.update(name.encode() + b"\0" + len(data).to_bytes(8, "big") + data)
    return sha.hexdigest()


@pytest.mark.parametrize(
    "script, expected",
    [
        (scripted_coordinator, "bcc0bd8479a9e37d74eae4f52c539a3febb92028c8905b2b7e2e24afd49f5743"),
        (scripted_iagent, "a87e33cc3d6bf472099d406c73b8d2460b45c412214487682f232acc0496f3a0"),
    ],
    ids=["coordinator", "iagent"],
)
def test_two_runs_write_the_same_bytes_and_the_pinned_ones(tmp_path, script, expected):
    script(tmp_path / "first")
    script(tmp_path / "second")
    first, second = written(tmp_path / "first"), written(tmp_path / "second")
    assert first == second
    assert any(name.endswith(".snap") for name in first)
    assert any(name.endswith(".log") for name in first)
    assert digest(first) == expected, sorted(first)


def test_the_coordinator_script_splits_both_ways_and_merges(tmp_path):
    assert scripted_coordinator(tmp_path) >= {"simple", "complex", "merge", "move", "epoch"}
