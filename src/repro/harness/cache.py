"""Content-addressed run cache: identical inputs, cached metrics.

Every experiment run is fixed-seed deterministic, so a run is fully
described by its inputs: the scenario's canonical dictionary, the
mechanism name, the replication seed and the code that executed it.
:class:`RunCache` hashes those four into one digest and persists the
run's :class:`~repro.metrics.collectors.MetricsCollector` as JSON under
that digest -- re-running an unchanged figure becomes a file read, and
touching any source file under ``src/repro`` transparently invalidates
every entry (the code fingerprint is part of the key).

Cells whose scenario embeds ad-hoc callables (lambdas, closures) have no
stable canonical form; :func:`cache_key` returns ``None`` for them and
the executor simply runs them fresh every time. Module-level functions
*are* stable (they are addressed by qualified name and covered by the
code fingerprint), so the packaged ablation topologies stay cacheable.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional

from repro.metrics.collectors import MetricsCollector, TimeSeries
from repro.platform.naming import AgentId

__all__ = [
    "DEFAULT_CACHE_DIR",
    "RunCache",
    "cache_key",
    "canonical_value",
    "code_fingerprint",
    "metrics_from_dict",
    "metrics_to_dict",
]

#: Default on-disk location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Bump when the entry format changes; part of every key.
_FORMAT_VERSION = 1


class _Uncanonical(Exception):
    """Raised when a value has no stable canonical representation."""


# ----------------------------------------------------------------------
# Canonicalisation and keying
# ----------------------------------------------------------------------

def canonical_value(value: Any) -> Any:
    """A JSON-able, content-stable form of one scenario ingredient.

    Raises :class:`_Uncanonical` for values (lambdas, closures, open
    handles, ...) whose identity cannot be captured by content.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, AgentId):
        # Ahead of the tuple branch: an id is not the pair of ints it is
        # built on, and must not share a cache key with one.
        return {"__dataclass__": "AgentId", "value": value.value, "width": value.width}
    if isinstance(value, (list, tuple)):
        return [canonical_value(item) for item in value]
    if isinstance(value, dict):
        return {str(key): canonical_value(value[key]) for key in sorted(value)}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: canonical_value(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__dataclass__": type(value).__qualname__, **fields}
    if callable(value):
        # Module-level functions and classes are addressed by qualified
        # name; the code fingerprint covers their behaviour. Lambdas and
        # closures have no stable address.
        name = getattr(value, "__qualname__", "")
        module = getattr(value, "__module__", "")
        if not module or not name or "<lambda>" in name or "<locals>" in name:
            raise _Uncanonical(f"no canonical form for callable {value!r}")
        return {"__callable__": f"{module}:{name}"}
    # Plain model objects (residence models, itineraries): class name
    # plus their instance dict, provided the dict itself canonicalises.
    state = getattr(value, "__dict__", None)
    if isinstance(state, dict):
        return {
            "__object__": f"{type(value).__module__}:{type(value).__qualname__}",
            "state": {
                str(key): canonical_value(state[key]) for key in sorted(state)
            },
        }
    raise _Uncanonical(f"no canonical form for {type(value).__name__}")


def _iter_source_files(root: Path):
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" not in path.parts:
            yield path


_FINGERPRINT_CACHE: Dict[str, str] = {}


def code_fingerprint(source_root: Optional[Path] = None) -> str:
    """SHA-256 over every ``src/repro`` source file (path + contents).

    Any edit to the package changes the fingerprint and therefore every
    cache key -- stale results can never be served after a code change.
    """
    if source_root is None:
        import repro

        source_root = Path(repro.__file__).resolve().parent
    cache_token = str(source_root)
    cached = _FINGERPRINT_CACHE.get(cache_token)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for path in _iter_source_files(source_root):
        digest.update(str(path.relative_to(source_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    fingerprint = digest.hexdigest()
    _FINGERPRINT_CACHE[cache_token] = fingerprint
    return fingerprint


def cache_key(
    scenario, mechanism: str, seed: int, fingerprint: str
) -> Optional[str]:
    """The content digest of one run cell, or ``None`` if uncacheable."""
    try:
        payload = {
            "version": _FORMAT_VERSION,
            "fingerprint": fingerprint,
            "scenario": canonical_value(scenario),
            "mechanism": mechanism,
            "seed": seed,
        }
    except _Uncanonical:
        return None
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


# ----------------------------------------------------------------------
# Metrics round-trip
# ----------------------------------------------------------------------

def _encode_event_value(value: Any) -> Any:
    """JSON-encode one rehash-log ingredient; AgentIds exactly."""
    if isinstance(value, AgentId):
        return {"__agentid__": [value.value, value.width]}
    if isinstance(value, (list, tuple)):
        return [_encode_event_value(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _encode_event_value(v) for k, v in value.items()}
    return value


def _decode_event_value(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value) == {"__agentid__"}:
            raw, width = value["__agentid__"]
            return AgentId(value=raw, width=width)
        return {k: _decode_event_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode_event_value(item) for item in value]
    return value


def metrics_to_dict(metrics: MetricsCollector) -> Dict[str, Any]:
    """A complete JSON form of one run's collector (loss-free floats)."""
    return {
        "mechanism": metrics.mechanism,
        "location_times": list(metrics.location_times),
        "update_times": list(metrics.update_times),
        "failed_locates": metrics.failed_locates,
        "counters": dict(metrics.counters),
        "rehash_events": [
            _encode_event_value(event) for event in metrics.rehash_events
        ],
        "iagent_series": [[t, v] for t, v in metrics.iagent_series.samples],
        "messages_sent": metrics.messages_sent,
        "bytes_sent": metrics.bytes_sent,
        "sim_time": metrics.sim_time,
        "sim_events": metrics.sim_events,
    }


def metrics_from_dict(document: Dict[str, Any]) -> MetricsCollector:
    """Rebuild the collector; floats survive JSON bit-identically."""
    series = TimeSeries("iagents")
    series.samples = [(t, v) for t, v in document["iagent_series"]]
    return MetricsCollector(
        mechanism=document["mechanism"],
        location_times=list(document["location_times"]),
        update_times=list(document["update_times"]),
        failed_locates=document["failed_locates"],
        counters=dict(document["counters"]),
        rehash_events=[
            _decode_event_value(event) for event in document["rehash_events"]
        ],
        iagent_series=series,
        messages_sent=document["messages_sent"],
        bytes_sent=document["bytes_sent"],
        sim_time=document["sim_time"],
        sim_events=document["sim_events"],
    )


# ----------------------------------------------------------------------
# The cache proper
# ----------------------------------------------------------------------

class RunCache:
    """Digest-addressed store of finished run metrics under ``root``.

    ``hits``/``misses`` count lookups since construction; the executor
    reports them through its stats and the ``--json`` export.
    """

    def __init__(
        self,
        root: os.PathLike = DEFAULT_CACHE_DIR,
        fingerprint: Optional[str] = None,
    ) -> None:
        self.root = Path(root)
        self.fingerprint = fingerprint or code_fingerprint()
        self.hits = 0
        self.misses = 0

    def key_for(self, scenario, mechanism: str, seed: int) -> Optional[str]:
        return cache_key(scenario, mechanism, seed, self.fingerprint)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: Optional[str]) -> Optional[MetricsCollector]:
        """The cached collector for ``key``, or ``None`` on a miss."""
        if key is None:
            return None
        path = self._path(key)
        try:
            document = json.loads(path.read_text())
            metrics = metrics_from_dict(document["metrics"])
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return metrics

    def put(self, key: Optional[str], metrics: MetricsCollector) -> bool:
        """Persist ``metrics`` under ``key``; best-effort, never raises."""
        if key is None:
            return False
        document = {"key": key, "metrics": metrics_to_dict(metrics)}
        try:
            encoded = json.dumps(document)
        except (TypeError, ValueError):
            return False  # a collector holding non-JSON extras
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp = self._path(key).with_suffix(".tmp")
            tmp.write_text(encoded)
            os.replace(tmp, self._path(key))
        except OSError:
            return False
        return True

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
