"""Perf contracts: properties of the live path read off a profiled run.

Each contract is a call count or a caller table from a cProfile of one
``benchmarks/e2e/run.py`` workload at seed 7 -- not a time, so a slow
runner cannot flake it. Each workload is profiled once per session, by
the fixture named after it, in a fresh interpreter: what ran earlier in
the session cannot change its counts. The fixture also dumps the profile
as ``<workload>.prof`` under pytest's base temporary directory
(``--basetemp``). A contract that counts per unit of work fails when the
profile holds no such unit, so a profile of the wrong run fails instead
of passing. The counts each contract was written against, and their
history, are in docs/REPORT.md. One contract alone:
``pytest benchmarks/test_profile_contracts.py -k <part of its name>``
profiles only the workload it reads. Needs Python 3.11+ (code objects'
``co_qualname``).
"""

from __future__ import annotations

import cProfile
import gc
import multiprocessing
import runpy
import sys
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

import pytest

RUN = Path(__file__).resolve().parent / "e2e" / "run.py"

#: Client counters that move only when an op's first answer was not ok.
RECOVERY = (
    "not_responsible",
    "retries",
    "refreshes",
    "no_record_retries",
    "transport_retries",
    "wrong_shard_retries",
)

#: A profiled function: (file, qualname). A builtin's file is "~", and
#: generated code (a dataclass's ``__init__``) is named by its function's
#: ``__qualname__``, so each code object keeps its own count.
Key = Tuple[str, str]


class Counts:
    """Call counts and caller tables per code object of one profile."""

    def __init__(self, profile: cProfile.Profile) -> None:
        named = {
            function.__code__: function.__qualname__
            for function in gc.get_objects()
            if type(function).__name__ == "function"
            and function.__code__.co_filename == "<string>"
        }

        def key(code: Any) -> Key:
            if isinstance(code, str):
                return ("~", code)
            return (code.co_filename, named.get(code, code.co_qualname))

        self.calls: Dict[Key, int] = Counter()
        self.callers: Dict[Key, Dict[Key, int]] = defaultdict(Counter)
        for entry in profile.getstats():
            caller = key(entry.code)
            self.calls[caller] += entry.callcount
            for call in entry.calls or ():
                self.callers[key(call.code)][caller] += call.callcount

    def functions(self, path: str, name: str) -> Iterator[Tuple[Key, int]]:
        """Each profiled function in a file ending ``path`` whose qualname
        is ``name`` or ends ``.name``, with its calls."""
        for (file, qualname), calls in self.calls.items():
            if file.endswith(path) and (qualname == name or qualname.endswith("." + name)):
                yield (file, qualname), calls

    def count(self, path: str, name: str) -> int:
        return sum(calls for _, calls in self.functions(path, name))

    def called_from(self, path: str, name: str, *callers: str) -> Dict[Key, int]:
        """Calls of ``name`` per caller, for callers in files ending one of
        ``callers``."""
        table: Dict[Key, int] = Counter()
        for function, _ in self.functions(path, name):
            for caller, calls in self.callers[function].items():
                if caller[0].endswith(callers):
                    table[caller] += calls
        return table


def called(profile: cProfile.Profile, path: str, name: str) -> int:
    """Calls so far of function ``name`` defined in a file ending ``path``
    (a generator's or a coroutine's count is its steps)."""
    return sum(
        entry.callcount
        for entry in profile.getstats()
        if not isinstance(entry.code, str)
        and entry.code.co_name == name
        and entry.code.co_filename.endswith(path)
    )


def profiled(workload: str, seconds: int, trace: int, out: Path) -> Dict[str, Any]:
    """:func:`profile_run` in a fresh interpreter."""
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(profile_run, (workload, seconds, trace, out))


def profile_run(workload: str, seconds: int, trace: int, out: Path) -> Dict[str, Any]:
    """Profile one ``run.py --workload`` run in this process and dump it
    to ``out/<workload>.prof``: its ``counts``, and per measured window of
    the load generator the ``saga_steps``, ``locate_steps`` and client
    ``counters`` it moved (``windows``)."""
    if str(RUN.parent) not in sys.path:
        sys.path.insert(0, str(RUN.parent))
    import e2e_harness

    profile = cProfile.Profile()
    windows: List[Dict[str, Any]] = []
    loop = e2e_harness.ClosedLoop
    begin, finish = loop.begin, loop.finish

    def marks() -> Tuple[int, int]:
        return (
            called(profile, "core/requester.py", "request_saga"),
            called(profile, "service/client.py", "locate"),
        )

    def begin_marked(self: Any) -> None:
        self.profile_marks = marks()
        begin(self)

    def finish_marked(self: Any) -> None:
        closing = not self.done
        finish(self)
        if closing:
            (steps, locates), (steps_0, locates_0) = marks(), self.profile_marks
            windows.append(
                {"saga_steps": steps - steps_0, "locate_steps": locates - locates_0,
                 "counters": self.counters}
            )

    argv = sys.argv
    sys.argv = [str(RUN), "--workload", workload, "--seed", "7",
                "--seconds", str(seconds), "--trace", str(trace)]
    loop.begin, loop.finish = begin_marked, finish_marked
    profile.enable()
    try:
        runpy.run_path(str(RUN), run_name="__main__")
    except SystemExit:
        pass
    finally:
        profile.disable()
        sys.argv = argv
        loop.begin, loop.finish = begin, finish
    profile.dump_stats(str(out / f"{workload}.prof"))
    return {"counts": Counts(profile), "windows": windows}


@pytest.fixture(scope="session")
def locate_seq(tmp_path_factory) -> Dict[str, Any]:
    """The traced sequential-locate run (``locate-seq``, 6 s, traced)."""
    return profiled("locate-seq", 6, 1, tmp_path_factory.getbasetemp())


@pytest.fixture(scope="session")
def rehash_storm(tmp_path_factory) -> Counts:
    """The split path (``rehash-storm``, 6 s, untraced)."""
    return profiled("rehash-storm", 6, 0, tmp_path_factory.getbasetemp())["counts"]


@pytest.fixture(scope="session")
def move_durable(tmp_path_factory) -> Counts:
    """The journaled write path (``move-durable``, 6 s, untraced)."""
    return profiled("move-durable", 6, 0, tmp_path_factory.getbasetemp())["counts"]


# ----------------------------------------------------------------------
# locate-seq: the one-hop read path
# ----------------------------------------------------------------------


def test_one_record_per_rpc_no_hedging_wrapper_on_the_locate_path(locate_seq):
    """A hedged read is a state of its request record, not a layer: nothing named
    _hedged_call runs, and asyncio's ensure_future has no caller in service/client.py,
    nor in service/transport.py beyond FramedServer.spawn."""
    counts = locate_seq["counts"]
    failures = [
        f"{file} {qualname} was called {calls} times"
        for (file, qualname), calls in counts.functions("", "_hedged_call")
    ]
    spawned = counts.called_from(
        "asyncio/tasks.py", "ensure_future", "service/client.py", "service/transport.py"
    )
    failures += [
        f"ensure_future called {calls} times from {file} {qualname}"
        for (file, qualname), calls in spawned.items()
        if qualname != "FramedServer.spawn"
    ]
    passes = counts.count("asyncio/base_events.py", "_run_once")
    frames = counts.count("service/transport.py", "_on_frame")
    print(f"_run_once calls {passes}, server _on_frame calls {frames}: "
          f"{passes / max(1, frames):.2f} loop passes per served frame")
    if not frames:
        failures.append("the profile holds no server _on_frame call")
    assert not failures, "\n".join(failures)


def test_an_ok_answer_builds_no_requester_saga(locate_seq):
    """In a measured window where every locate was answered ok, core/requester.py
    request_saga never runs: the client's inline first round is the whole op."""
    all_ok = [
        window
        for window in locate_seq["windows"]
        if window["locate_steps"] and not any(window["counters"].get(name) for name in RECOVERY)
    ]
    assert all_ok, "the profile holds no measured window of locates all answered ok"
    stepped = [window for window in all_ok if window["saga_steps"]]
    assert not stepped, f"request_saga stepped in {len(stepped)} of {len(all_ok)}: {stepped[:3]}"


def test_no_bit_strings_on_the_read_path(locate_seq):
    """The hash tree resolves on the id's integer: AgentId.bits has no caller in
    core/hash_function.py (the traced pass formats op.agent.bits itself)."""
    formatted = locate_seq["counts"].called_from(
        "platform/naming.py", "AgentId.bits", "core/hash_function.py"
    )
    assert not formatted, "\n".join(
        f"AgentId.bits called {calls} times from {file} {qualname}"
        for (file, qualname), calls in formatted.items()
    )


def test_the_rpc_envelope_is_a_frame_header(locate_seq):
    """Per live encode (wire.encode_call / encode_reply called from the transport),
    binary._read_uvarint runs under 1.0 times and _write_uvarint under 3.0: a steady
    call or reply is one struct pack around its body, not a walked value."""
    counts = locate_seq["counts"]
    calls = {name: counts.count("platform/binary.py", name)
             for name in ("_read_uvarint", "_write_uvarint", "_encode_value")}
    encodes = sum(
        sum(counts.called_from("service/wire.py", name, "service/transport.py").values())
        for name in ("encode_call", "encode_reply")
    )
    sends = counts.calls[("~", "<method 'send' of '_socket.socket' objects>")]
    frames = counts.count("service/transport.py", "_on_frame")
    assert encodes and frames, (
        "the profile holds no transport encode_call / encode_reply or server _on_frame call"
    )
    per_encode = {name: count / encodes for name, count in calls.items()}
    print(f"{encodes} encode_call + encode_reply calls from the transport; per call: "
          + ", ".join(f"{name} {ratio:.2f}" for name, ratio in per_encode.items()))
    print(f"socket send calls {sends}, server _on_frame calls {frames}: "
          f"{sends / frames:.2f} sends per served frame (client's and server's)")
    failures = [
        f"binary.{name} runs {per_encode[name]:.2f} times per live encode (limit {limit})"
        for name, limit in (("_read_uvarint", 1.0), ("_write_uvarint", 3.0))
        if per_encode[name] >= limit
    ]
    assert not failures, "\n".join(failures)


# ----------------------------------------------------------------------
# rehash-storm: the split path
# ----------------------------------------------------------------------


def test_no_generated_code_runs_per_record_in_the_storm(rehash_storm):
    """No generated code object (a dataclass's __init__ / __hash__ / __eq__, a
    NamedTuple's __new__) runs more than 10 000 times: nothing built per record,
    per agent or per op is one. A profile holding none was not read."""
    generated = sorted(
        ((calls, qualname) for (file, qualname), calls in rehash_storm.calls.items()
         if file == "<string>"),
        reverse=True,
    )
    print("generated code objects, most called first:")
    for calls, qualname in generated[:10]:
        print(f"  {calls:>9} {qualname}")
    assert generated, "the profile holds no generated code object"
    failures = [
        f"<string> {qualname} ran {calls} times in the interpreter"
        for calls, qualname in generated
        if calls > 10_000
    ]
    assert not failures, "\n".join(failures)


def test_no_label_is_built_in_the_storm(rehash_storm):
    """An IAgent's coverage is read off its leaf's path: nothing in a storm builds
    a core/labels.py Label or HyperLabel."""
    built = [
        f"core/labels.py {qualname} ran {calls} times: a Label or HyperLabel was built"
        for (_, qualname), calls in rehash_storm.functions("core/labels.py", "__init__")
        if calls
    ]
    assert not built, "\n".join(built)


def test_the_coordinator_folds_no_hand_off_in_the_storm(rehash_storm):
    """A split's records cross the wire once, giver to taker: core/iagent_state.py
    merge_handoffs never runs."""
    folded = rehash_storm.count("core/iagent_state.py", "merge_handoffs")
    assert not folded, f"core/iagent_state.py merge_handoffs ran {folded} times"


def test_no_per_record_load_calls_in_the_storm(rehash_storm):
    """get-loads answers sums where the loads are kept and a hand-off moves its
    accumulators per bundle: core/load.py loads() never runs, and load_of /
    forget_agent / adopt_agent run at most 1 000 times each."""
    failures = [
        f"core/load.py {qualname} was called {calls} times"
        for (_, qualname), calls in rehash_storm.functions("core/load.py", "loads")
    ]
    failures += [
        f"core/load.py {qualname} ran {calls} times"
        for name in ("load_of", "forget_agent", "adopt_agent")
        for (_, qualname), calls in rehash_storm.functions("core/load.py", name)
        if calls > 1_000
    ]
    assert not failures, "\n".join(failures)


def test_no_bit_strings_in_the_storm(rehash_storm):
    """shard_of, the tree's lookup_id and the hand-off's coverage test read the id's
    integer: AgentId.bits has no caller in the six modules of the split path."""
    formatted = rehash_storm.called_from(
        "platform/naming.py",
        "AgentId.bits",
        "core/load.py",
        "service/routing.py",
        "core/hash_function.py",
        "core/iagent_state.py",
        "core/hash_tree.py",
        "discovery/hamming.py",
    )
    assert not formatted, "\n".join(
        f"AgentId.bits called {calls} times from {file} {qualname}"
        for (file, qualname), calls in formatted.items()
    )


def test_no_python_level_id_hashing_in_the_storm(rehash_storm):
    """An AgentId is a tuple subclass, so hashing and comparing one never enters
    the interpreter: no __hash__ / __eq__ in platform/naming.py runs over 10 000 times."""
    failures = [
        f"platform/naming.py {qualname} ran {calls} times in the interpreter"
        for name in ("__hash__", "__eq__")
        for (_, qualname), calls in rehash_storm.functions("platform/naming.py", name)
        if calls > 10_000
    ]
    assert not failures, "\n".join(failures)


def test_a_split_decodes_its_records_once(rehash_storm):
    """binary._decode_aid_table runs at most 2.1 times per IAgentState.adopt (the
    taker's records and loads), after subtracting the one table each register-batch
    request and locate-batch reply carries."""
    decodes = rehash_storm.count("platform/binary.py", "_decode_aid_table")
    batches = sum(
        rehash_storm.count("service/server.py", name)
        for name in ("op_register_batch", "op_locate_batch")
    )
    adopts = rehash_storm.count("core/iagent_state.py", "IAgentState.adopt")
    decodes -= batches
    print(f"binary._decode_aid_table {decodes} calls for {adopts} IAgentState.adopt calls")
    assert adopts, "the profile holds no IAgentState.adopt call"
    assert decodes <= 2.1 * adopts, (
        f"binary._decode_aid_table ran {decodes / adopts:.2f} times per adopt (limit 2.1)"
    )


def test_a_channel_dials_one_regular_connection_per_peer(rehash_storm):
    """service/transport.py dial runs at most 60 times (3 repeats x 20 channel-peer
    pairs at seed 7), plus one per hedged duplicate, which may dial the peer's hedge
    connection."""
    dials = rehash_storm.count("service/transport.py", "dial")
    duplicates = rehash_storm.count("service/client.py", "_send_duplicate")
    print(f"{dials} connections dialed, {duplicates} hedged duplicates sent")
    assert dials, "the profile holds no transport.dial call"
    assert dials <= 60 + duplicates, f"transport.dial ran {dials} times (limit 60 + {duplicates})"


# ----------------------------------------------------------------------
# move-durable: the journaled write path
# ----------------------------------------------------------------------


def test_no_tagged_json_on_the_durable_write_path(move_durable):
    """WAL records and snapshots are in the wire's value codec: a journaled mutation
    is one binary encode and one write, and platform/jsonable.py to_jsonable never runs."""
    lowered = move_durable.count("platform/jsonable.py", "to_jsonable")
    appends = move_durable.count("storage/wal.py", "WriteAheadLog.append")
    print(f"jsonable.to_jsonable {lowered} calls for {appends} WriteAheadLog.append calls")
    assert appends, "the profile holds no WriteAheadLog.append call"
    assert not lowered, f"platform/jsonable.py to_jsonable ran {lowered} times"


def test_no_envelope_dataclass_on_the_live_path(move_durable):
    """An RPC is its header fields end to end: no generated __init__ (a Request or
    Response envelope) is called from service/wire.py or service/transport.py."""
    built = [
        f"{qualname} ran {calls} times from {caller_file} {caller}"
        for (file, qualname), _ in move_durable.functions("<string>", "__init__")
        for (caller_file, caller), calls in move_durable.callers[(file, qualname)].items()
        if caller_file.endswith(("service/wire.py", "service/transport.py"))
    ]
    assert not built, "\n".join(built)
