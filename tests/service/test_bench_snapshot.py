"""``bench_service_rpc.py`` sets only its own keys in BENCH_service.json.

The file is shared: ``bench_service_load.py`` owns ``capacity`` and
``bench_service_netem.py`` owns ``netem``. A standalone run of the RPC
bench must leave both as it found them.
"""

import importlib.util
import json
from pathlib import Path

BENCH = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_service_rpc.py"


def test_standalone_run_keeps_foreign_sections(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_service_rpc", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    fresh = {"schema": 4, "quick": True, "locate": {"sequential": {"ops": 1}}}
    monkeypatch.setattr(bench, "run", lambda *args: dict(fresh))
    output = tmp_path / "BENCH_service.json"
    foreign = {"capacity": {"knee_ops_s": 1263}, "netem": {"p99_ratio": 4.2}}
    output.write_text(json.dumps({**foreign, "schema": 3, "quick": False}))

    assert bench.main(["--quick", "--output", str(output)]) == 0
    assert json.loads(output.read_text()) == {**foreign, **fresh}

    # With no file yet, the run's own sections are the whole snapshot.
    output.unlink()
    assert bench.main(["--quick", "--output", str(output)]) == 0
    assert json.loads(output.read_text()) == fresh
