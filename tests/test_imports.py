"""A module loads only what it imports.

The package inits re-export nothing, so a live node process imports the
service without the simulator, and the root's documented names resolve
from their defining modules on first use.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parent.parent / "src"

#: The root names the README quickstart, ``examples/`` and docs/API.md
#: import from ``repro``, each with the module that defines it.
ROOT_NAMES = {
    "Agent": "repro.platform.agents",
    "AgentId": "repro.platform.naming",
    "AgentRuntime": "repro.platform.runtime",
    "CentralizedMechanism": "repro.baselines.centralized",
    "ChordMechanism": "repro.baselines.chord",
    "ConstantResidence": "repro.workloads.mobility",
    "ExponentialResidence": "repro.workloads.mobility",
    "ForwardingPointersMechanism": "repro.baselines.forwarding",
    "HashLocationMechanism": "repro.core.mechanism",
    "HashMechanismConfig": "repro.core.config",
    "HashTree": "repro.core.hash_tree",
    "HomeRegistryMechanism": "repro.baselines.home_registry",
    "LocationMechanism": "repro.baselines.base",
    "MobileAgent": "repro.platform.agents",
    "QueryWorkload": "repro.workloads.queries",
    "Scenario": "repro.workloads.scenarios",
    "Simulator": "repro.platform.simulator",
    "TAgent": "repro.workloads.population",
    "Timeout": "repro.platform.events",
    "exp1_scenario": "repro.workloads.scenarios",
    "exp2_scenario": "repro.workloads.scenarios",
    "run_experiment": "repro.harness.experiment",
    "spawn_population": "repro.workloads.population",
}

#: Simulator machinery a live process has no use for.
SIMULATOR = (
    "repro.platform.simulator",
    "repro.platform.runtime",
    "repro.platform.agents",
    "repro.platform.events",
    "repro.platform.network",
    "repro.platform.mailbox",
    "repro.core.mechanism",
    "repro.core.iagent",
    "repro.core.hagent",
    "repro.core.lhagent",
    "repro.harness.executor",
    "repro.harness.experiment",
)


def test_live_process_loads_no_simulator():
    script = (
        f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
        "import repro.service.cluster, repro.service.loadgen, repro.harness.cli\n"
        "print(sorted(sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    loaded = ast.literal_eval(result.stdout)
    assert [
        name
        for name in loaded
        if name in SIMULATOR or name.split(".")[:2] == ["repro", "baselines"]
    ] == []


def test_root_exports_are_the_documented_names():
    assert sorted(repro.__all__) == sorted(ROOT_NAMES)


@pytest.mark.parametrize("name, module", sorted(ROOT_NAMES.items()))
def test_root_name_is_its_defining_modules_object(name, module):
    namespace: dict = {}
    exec(f"from repro import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(module), name)


def test_unknown_root_name_raises_but_a_subpackage_imports():
    with pytest.raises(AttributeError):
        repro.NoSuchName
    from repro import harness

    assert harness is importlib.import_module("repro.harness")


def test_only_the_root_and_storage_inits_import():
    imports = {}
    for init in sorted((SRC / "repro").rglob("__init__.py")):
        tree = ast.parse(init.read_text())
        modules = [
            node.module if isinstance(node, ast.ImportFrom) else alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        ]
        if modules:
            imports[init.parent.name] = modules
    assert sorted(imports) == ["repro", "storage"]
    assert not [m for m in imports["repro"] if m.split(".")[0] == "repro"]
    assert all(m.startswith("repro.storage.") for m in imports["storage"])
