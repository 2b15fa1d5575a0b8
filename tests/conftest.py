"""Shared fixtures and helpers for the whole test suite."""

from __future__ import annotations

import asyncio
import functools

import pytest

from repro.core.config import RETRY_BACKOFF, HashMechanismConfig
from repro.core.hash_function import HashFunction
from repro.core.hash_tree import HashTree
from repro.core.mechanism import HashLocationMechanism
from repro.platform.naming import AgentNamer
from repro.platform.random import RandomStreams
from repro.platform.runtime import AgentRuntime
from repro.platform.simulator import Simulator


def build_runtime(seed: int = 1, nodes: int = 4) -> AgentRuntime:
    """A fresh runtime with ``nodes`` nodes and deterministic seeding."""
    runtime = AgentRuntime(
        sim=Simulator(),
        streams=RandomStreams(seed=seed),
        namer=AgentNamer(seed=seed),
    )
    runtime.create_nodes(nodes)
    return runtime


def install_hash_mechanism(
    runtime: AgentRuntime, **config_overrides
) -> HashLocationMechanism:
    """Install a hash mechanism with test-friendly defaults."""
    config = HashMechanismConfig().with_overrides(**config_overrides)
    mechanism = HashLocationMechanism(config)
    runtime.install_location_mechanism(mechanism)
    return mechanism


def patch_retries(
    monkeypatch: pytest.MonkeyPatch,
    module: str,
    max_retries: int,
    retry_backoff: float = RETRY_BACKOFF,
) -> None:
    """Give the simulated mechanism in ``module`` (the one reading the
    ``MAX_RETRIES`` / ``RETRY_BACKOFF`` constants, e.g.
    ``"repro.core.mechanism"``) another retry budget for one test."""
    monkeypatch.setattr(f"{module}.MAX_RETRIES", max_retries)
    monkeypatch.setattr(f"{module}.RETRY_BACKOFF", retry_backoff)


def in_running_loop(test):
    """Run a synchronous test body inside one ``asyncio.run``: a live
    server reads the running loop's clock, so a script that drives its
    endpoints directly still needs a loop around it."""

    @functools.wraps(test)
    def wrapper(*args, **kwargs):
        async def body():
            return test(*args, **kwargs)

        return asyncio.run(body())

    return wrapper


def patch_backoff(monkeypatch: pytest.MonkeyPatch, base: float, cap: float) -> None:
    """Shrink the live client's retry backoff (``BACKOFF_BASE`` /
    ``BACKOFF_CAP``) for one test."""
    monkeypatch.setattr("repro.service.client.BACKOFF_BASE", base)
    monkeypatch.setattr("repro.service.client.BACKOFF_CAP", cap)


def copy_reply(owner, node: str, addr, version: int = 1) -> dict:
    """What a stub LHAgent answers a requester's ``get-hash-delta`` pull
    with: the snapshot of a one-leaf function at ``version`` whose only
    IAgent, ``owner``, lives on ``node`` at ``addr``."""
    return snapshot_reply(HashFunction(version, HashTree(owner), {owner: node}), node, addr)


def snapshot_reply(function: HashFunction, node: str, addr) -> dict:
    """The same pull answered with the snapshot of ``function``, whose
    IAgents all live on ``node`` at ``addr``."""
    reply = function.bundle()
    reply.update(mode="full", shard=0, epoch=1, shards=1, node_addrs={node: list(addr)})
    return reply


def run_until(runtime: AgentRuntime, predicate, step: float = 0.1, timeout: float = 60.0):
    """Advance simulated time until ``predicate()`` or ``timeout``."""
    deadline = runtime.sim.now + timeout
    while not predicate() and runtime.sim.now < deadline:
        runtime.sim.run(until=runtime.sim.now + step)
    assert predicate(), f"condition not reached within {timeout} simulated seconds"


def drain(runtime: AgentRuntime, seconds: float) -> None:
    """Run the simulation for a fixed span of simulated time."""
    runtime.sim.run(until=runtime.sim.now + seconds)


@pytest.fixture
def runtime() -> AgentRuntime:
    return build_runtime()


@pytest.fixture
def hash_runtime():
    """A runtime with the hash mechanism installed."""
    rt = build_runtime()
    mechanism = install_hash_mechanism(rt)
    return rt, mechanism
