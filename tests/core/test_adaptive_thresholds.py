"""Tests for the adaptive threshold heuristic (§5 future work)."""

import pytest

from repro.workloads.mobility import ConstantResidence
from repro.workloads.population import spawn_population

from tests.conftest import build_runtime, drain, in_running_loop, install_hash_mechanism


class TestThresholdsFor:
    def test_fixed_mode_returns_configured_pair(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime, t_max=70.0, t_min=7.0)
        report = {"service_estimate": 0.010}
        assert mechanism.hagent.policy.thresholds_for(report) == (70.0, 7.0)

    def test_adaptive_mode_derives_from_service_time(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime, threshold_mode="adaptive")
        t_max, t_min = mechanism.hagent.policy.thresholds_for(
            {"service_estimate": 0.008}
        )
        assert t_max == pytest.approx(50.0)
        assert t_min == pytest.approx(5.0)

    def test_adaptive_scales_with_hardware_speed(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime, threshold_mode="adaptive")
        fast, _ = mechanism.hagent.policy.thresholds_for({"service_estimate": 0.002})
        slow, _ = mechanism.hagent.policy.thresholds_for({"service_estimate": 0.020})
        assert fast == 10 * slow

    def test_adaptive_without_measurement_falls_back_to_fixed(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(
            runtime, threshold_mode="adaptive", t_max=42.0, t_min=4.2
        )
        assert mechanism.hagent.policy.thresholds_for({}) == (42.0, 4.2)
        assert mechanism.hagent.policy.thresholds_for(
            {"service_estimate": 0.0}
        ) == (42.0, 4.2)

    def test_config_validation(self):
        from repro.core.config import HashMechanismConfig

        with pytest.raises(ValueError):
            HashMechanismConfig(threshold_mode="vibes").validate()


class TestAdaptiveIntegration:
    def test_adaptive_splits_on_slow_hardware_where_fixed_cannot(self):
        """With 25 ms service, a 50 msg/s threshold is unreachable (the
        mailbox saturates at 40 msg/s); the adaptive heuristic derives
        a reachable one and the directory still scales."""

        def run(mode):
            runtime = build_runtime(nodes=6)
            mechanism = install_hash_mechanism(
                runtime,
                threshold_mode=mode,
                iagent_service_time=0.025,
            )
            spawn_population(runtime, 40, ConstantResidence(0.3))
            drain(runtime, 12.0)
            return mechanism.iagent_count

        assert run("fixed") == 1
        assert run("adaptive") >= 3


class TestBothCoordinators:
    """One report script through the simulator HAgent and the live
    HAgentServer: the shared RehashPolicy gives both the same verdicts,
    ``threshold_mode`` included (the live one used to ignore it), and
    the shared saga makes both publish and log the same rehashes."""

    # t_max=50, t_min=5, patience 2; a 4 ms service estimate makes the
    # adaptive pair (100, 10). (rate, mature, service_estimate) ->
    # verdict under fixed, under adaptive.
    SCRIPT = [
        ((60.0, True, 0.004), "split", None),
        ((120.0, True, 0.004), "split", "split"),
        ((120.0, False, 0.004), None, None),
        ((7.0, True, 0.004), None, None),  # adaptive: first report under 10
        ((7.0, True, 0.004), None, "merge"),
        ((2.0, True, None), None, None),  # unmeasured: both use the fixed pair
        ((20.0, True, None), None, None),  # ...and the streak starts over
        ((2.0, True, None), None, None),
        ((2.0, True, None), "merge", "merge"),
    ]

    @pytest.mark.parametrize("mode", ["fixed", "adaptive"])
    @in_running_loop
    def test_same_reports_same_verdicts(self, mode):
        from repro.service.coordinator import HAgentServer
        from repro.service.server import ServiceConfig

        verdicts = []

        def rehash(kind):
            def run(owner):
                verdicts.append(kind)
                return
                yield

            return run

        runtime = build_runtime()
        mechanism = install_hash_mechanism(
            runtime, t_max=50.0, t_min=5.0, merge_patience=2, threshold_mode=mode
        )
        hagent = mechanism.hagent
        hagent._split, hagent._merge = rehash("split"), rehash("merge")

        server = HAgentServer(ServiceConfig(mechanism=mechanism.config))
        (owner,) = mechanism.iagents
        server.function.bootstrap(owner, "node-0", runtime.namer.width)

        def spawn(coro, name):
            coro.close()
            verdicts.append(name.split("-")[0])

        server.spawn = spawn

        def both(rate, mature, service):
            body = {"owner": owner, "rate": rate, "mature": mature}
            if service is not None:
                body["service_estimate"] = service
            seen = []
            for deliver in (
                lambda: list(hagent._on_load_report(dict(body))),
                lambda: server._op_load_report(dict(body)),
            ):
                del verdicts[:]
                deliver()
                seen.append(verdicts[0] if verdicts else None)
            return seen

        # On a one-leaf tree nothing is mergeable, however idle.
        assert [both(2.0, True, None) for _ in range(3)] == [[None, None]] * 3
        grow = {
            "op": "split",
            "kind": "simple",
            "owner": owner,
            "bit": 1,
            "new_owner": runtime.namer.next_id(),
            "new_node": "node-1",
        }
        hagent.function.publish(dict(grow))
        server.function.publish(dict(grow))
        column = 1 if mode == "fixed" else 2
        for row in self.SCRIPT:
            assert both(*row[0]) == [row[column]] * 2, row

    def test_same_scenario_same_published_entries_and_log(self):
        """Split a 16-record leaf, then merge the new leaf back: once in
        virtual time, once through an ``HAgentServer`` whose fenced
        sender is answered from in-memory ``IAgentState`` leaves (the
        simulator relays each hand-off, the live sources push theirs)."""
        import asyncio

        from repro.core.iagent_state import IAgentState
        from repro.core.load import LoadStatistics
        from repro.platform.messages import Request
        from repro.platform.naming import AgentId
        from repro.service.coordinator import HAgentServer
        from repro.service.server import ServiceConfig

        agents = [AgentId(index << 60) for index in range(16)]

        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime, merge_patience=1, cooldown=0.0)
        hagent = mechanism.hagent
        (owner,) = mechanism.iagents
        for agent in agents:
            mechanism.iagents[owner].handle(
                Request(op="register", body={"agent": agent, "node": "node-1"})
            )

        def report(owner, rate):
            body = {"owner": owner, "rate": rate, "mature": True}
            runtime.sim.run_process(hagent._on_load_report(body))

        report(owner, 1000.0)
        report(hagent.journal[-1]["new_owner"], 0.1)

        server = HAgentServer(ServiceConfig(mechanism=mechanism.config))
        root = server.namer.next_id()
        server.function.bootstrap(root, "node-0", 64)
        for port, name in enumerate(["node-0", "node-1"]):
            server.state.register_node(name, "127.0.0.1", port)
        leaves = {root: IAgentState("", LoadStatistics(2.0))}
        for agent in agents:
            leaves[root].put({"agent": agent, "node": "node-1"}, 0.0)

        async def rpc_node(node, op, body, target="host", timeout=None):
            if op == "host-iagent":
                leaves[body["owner"]] = IAgentState(None, LoadStatistics(2.0))
            elif op == "retire-iagent":
                del leaves[body["owner"]]
            elif op == "get-loads":
                return leaves[target].get_loads(body, 0.0)
            else:
                # The source's endpoint: give up, then push to each taker.
                assert op == "hand-off", op
                destinations = body["destinations"]
                bundles, _entry = leaves[target].hand_off(
                    body["pattern"], [pattern for *_, pattern in destinations], 0.0
                )
                for (taker, _addr, _pattern), bundle in zip(destinations, bundles):
                    leaves[taker].adopt(bundle)
                return {"status": "ok", "took": [len(b["records"]) for b in bundles]}

        server._rpc_node = rpc_node

        async def live():
            await server._split(root)
            await server._merge(server.journal[-1]["new_owner"])

        asyncio.run(live())
        assert list(leaves) == [root] and len(leaves[root].table["records"]) == 16

        def published(journal):
            names = {}
            return [
                {
                    key: names.setdefault(value, len(names))
                    if key in ("owner", "new_owner")
                    else value
                    for key, value in entry.items()
                    if key not in ("epoch", "new_node")
                }
                for entry in journal
            ]

        assert published(hagent.journal) == published(server.journal)
        assert [entry["op"] for entry in server.journal] == ["split", "merge"]
        assert (hagent.splits, hagent.merges) == (server.splits, server.merges) == (1, 1)

        stamps = {"time", "iagents"}  # the simulator's own, on every entry
        for sim, live_entry in zip(hagent.rehash_log, server.rehash_log):
            assert set(sim) - stamps == set(live_entry)
            for key in ("event", "version", "kind", "moved"):
                assert sim[key] == live_entry[key]
        assert [entry["event"] for entry in server.rehash_log] == ["split", "merge"]
        assert server.rehash_log[0]["moved"] == server.rehash_log[1]["moved"] == 8
