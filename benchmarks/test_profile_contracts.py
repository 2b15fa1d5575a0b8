"""Perf contracts: properties of the live path read off a profiled run.

Each contract is a call count or a caller table from a cProfile of one
``benchmarks/e2e/run.py`` workload at seed 7, run in this process -- not
a time, so a slow runner cannot flake it. Every contract also checks
that the profile holds the code it is about (its positive control), so
a profile of the wrong run fails instead of passing. The counts each
contract was written against are in docs/REPORT.md.
"""

from __future__ import annotations

import cProfile
import pstats
import runpy
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

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


def profiled(workload: str, seconds: int, trace: int) -> Dict[str, Any]:
    """Profile one ``run.py --workload`` run in process: its ``stats``,
    and per measured window of the load generator the ``saga_steps``,
    ``locate_steps`` and client ``counters`` it moved (``windows``)."""
    sys.path[:0] = [str(RUN.parent)]
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
    return {"stats": pstats.Stats(profile), "windows": windows}


@pytest.fixture(scope="session")
def locate_seq() -> Dict[str, Any]:
    """The traced sequential-locate run (``locate-seq``, 6 s, traced)."""
    return profiled("locate-seq", 6, 1)


def entries(stats: pstats.Stats, path: str, name: str):
    """Every profiled function ``name`` defined in a file ending ``path``."""
    for (file, _line, function), entry in stats.stats.items():
        if file.endswith(path) and function == name:
            yield entry


def test_one_record_per_rpc_no_hedging_wrapper_on_the_locate_path(locate_seq):
    """A hedged read is a state of its request record, not a layer: nothing named
    _hedged_call runs, and asyncio's ensure_future has no caller in service/client.py,
    nor in service/transport.py beyond FramedServer.spawn."""
    stats = locate_seq["stats"]
    failures = []
    for (path, _line, name), entry in stats.stats.items():
        if name == "_hedged_call":
            failures.append(f"{path} {name} was called {entry[1]} times")
        if path.endswith("asyncio/tasks.py") and name == "ensure_future":
            for (caller, _, function), counts in entry[4].items():
                if caller.endswith("service/client.py") or (
                    caller.endswith("service/transport.py") and function != "spawn"
                ):
                    failures.append(
                        f"ensure_future called {counts[0]} times from {caller} {function}"
                    )
    passes = sum(entry[1] for entry in entries(stats, "asyncio/base_events.py", "_run_once"))
    frames = sum(entry[1] for entry in entries(stats, "service/transport.py", "_on_frame"))
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
