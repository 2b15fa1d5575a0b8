"""In-process network emulation for the live service stack.

A :class:`NetemController` sits between the asyncio transports and the
framed RPC protocol: :mod:`repro.service.transport` passes every
connection's transport through :meth:`NetemController.wrap` and writes
its frames to the returned shim (reads are untouched), so each
*direction* of each link passes through exactly one shim -- the sending
end. The shim injects, per frame write:

* base latency plus uniform jitter (independent draw per frame, so
  hedged duplicates really do race distinct delays),
* probabilistic frame loss (the write is silently discarded; the RPC
  layer recovers by adaptive timeout + retry/hedge, exactly as it
  would on an unreliable MANET-style datagram link),
* slow-loris delivery (the frame trickles out in small chunks with a
  pause between each),
* asymmetric partitions (all writes in one direction dropped while the
  other flows), and
* connection resets (live sockets to an endpoint aborted mid-use).

Faults are keyed by the *target endpoint* -- the server address a
connection was dialed to -- named either by a bound node name
(:meth:`NetemController.bind`), by a raw port, or by ``"*"`` for every
link at once. Direction ``"in"`` means traffic toward the endpoint
(requests), ``"out"`` traffic from it (responses).

Determinism: frame-level draws come from per-connection
:class:`random.Random` streams derived from the controller seed, and
the control-plane fault log (:attr:`NetemController.log`) records every
applied state change in order, excluding wall-clock times --
:meth:`NetemController.log_digest` is therefore identical across two
runs of the same seeded schedule, which is the replay check
``python -m repro cluster --netem SEED`` performs.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterable, List, Optional, Set, Tuple, Union

__all__ = ["DIR_IN", "DIR_OUT", "LinkState", "NetemController"]

Address = Tuple[str, int]

#: Traffic toward the target endpoint (the initiator's writes).
DIR_IN = "in"
#: Traffic from the target endpoint (the acceptor's writes).
DIR_OUT = "out"

_DIRECTIONS = (DIR_IN, DIR_OUT)


@dataclass
class LinkState:
    """The active fault set for one endpoint key (or the ``"*"`` default)."""

    #: Base one-way delay added to every frame, seconds.
    delay_s: float = 0.0
    #: Uniform jitter bound added on top of ``delay_s``, seconds.
    jitter_s: float = 0.0
    #: Probability a frame write is silently discarded.
    loss: float = 0.0
    #: When > 0, frames dribble out in chunks of this many bytes.
    slow_chunk: int = 0
    #: Pause between slow-loris chunks, seconds.
    slow_delay_s: float = 0.0
    #: Directions whose writes are dropped (asymmetric partition).
    blocked: Set[str] = field(default_factory=set)

    def active(self) -> bool:
        return bool(
            self.delay_s
            or self.jitter_s
            or self.loss
            or self.slow_chunk
            or self.blocked
        )

    def degrade_view(self) -> Tuple[float, float, float]:
        return (self.delay_s, self.jitter_s, self.loss)


class NetemController:
    """Seeded wire-level fault injection over every live connection."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        #: Endpoint key ("*", a port, or via :meth:`bind` a node name
        #: resolved to its port) -> active fault state.
        self._states: Dict[Union[int, str], LinkState] = {}
        self._names: Dict[str, int] = {}
        #: Live shims per endpoint port, for targeted resets.
        self._shims: Dict[int, Set["_Shim"]] = {}
        self._conn_seq: Dict[Tuple[int, str], int] = {}
        #: Ordered control-plane log: every applied fault state change,
        #: without wall-clock times -- the replay-determinism artifact.
        self.log: List[Dict[str, Any]] = []
        #: Frames dropped by loss/blocked, for reports.
        self.frames_dropped = 0
        self.frames_delayed = 0
        self.resets_injected = 0

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def bind(self, name: str, addr: Address) -> None:
        """Map a node name onto its server endpoint for fault targeting."""
        self._names[name] = addr[1]

    def _key(self, target: Union[str, int]) -> Union[int, str]:
        if target == "*":
            return "*"
        if isinstance(target, int):
            return target
        if target in self._names:
            return self._names[target]
        raise KeyError(f"netem target {target!r} is not bound (and not '*'/port)")

    def _state(self, target: Union[str, int]) -> LinkState:
        key = self._key(target)
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = LinkState()
        return state

    def _gc(self, target: Union[str, int]) -> None:
        key = self._key(target)
        state = self._states.get(key)
        if state is not None and not state.active():
            del self._states[key]

    def states_for(self, port: int) -> List[LinkState]:
        """Active fault states applying to a link (global + per-endpoint)."""
        out = []
        for key in ("*", port):
            state = self._states.get(key)
            if state is not None and state.active():
                out.append(state)
        return out

    # ------------------------------------------------------------------
    # Control plane (idempotent; every change is logged)
    # ------------------------------------------------------------------

    def _log(self, kind: str, target: Union[str, int], **params: Any) -> None:
        self.log.append({"kind": kind, "target": str(target), "params": params})

    def degrade(
        self,
        target: Union[str, int],
        delay_ms: float = 0.0,
        jitter_ms: float = 0.0,
        loss: float = 0.0,
    ) -> bool:
        """Add latency/jitter/loss on a link. Returns False if unchanged."""
        state = self._state(target)
        wanted = (delay_ms / 1000.0, jitter_ms / 1000.0, loss)
        if state.degrade_view() == wanted:
            self._gc(target)
            return False
        state.delay_s, state.jitter_s, state.loss = wanted
        self._gc(target)
        self._log(
            "link-degrade", target, delay_ms=delay_ms, jitter_ms=jitter_ms, loss=loss
        )
        return True

    def restore(self, target: Union[str, int]) -> bool:
        """Clear latency/jitter/loss (slow/blocked faults are untouched)."""
        state = self._states.get(self._key(target))
        if state is None or state.degrade_view() == (0.0, 0.0, 0.0):
            return False
        state.delay_s = state.jitter_s = state.loss = 0.0
        self._gc(target)
        self._log("link-restore", target)
        return True

    def slow(
        self, target: Union[str, int], chunk: int = 128, chunk_delay_ms: float = 5.0
    ) -> bool:
        """Slow-loris the link: frames dribble out chunk by chunk."""
        state = self._state(target)
        wanted = (max(1, int(chunk)), chunk_delay_ms / 1000.0)
        if (state.slow_chunk, state.slow_delay_s) == wanted:
            self._gc(target)
            return False
        state.slow_chunk, state.slow_delay_s = wanted
        self._log("link-slow", target, chunk=wanted[0], chunk_delay_ms=chunk_delay_ms)
        return True

    def unslow(self, target: Union[str, int]) -> bool:
        state = self._states.get(self._key(target))
        if state is None or not state.slow_chunk:
            return False
        state.slow_chunk, state.slow_delay_s = 0, 0.0
        self._gc(target)
        self._log("link-unslow", target)
        return True

    def block(self, target: Union[str, int], direction: str = DIR_IN) -> bool:
        """Asymmetric partition: drop all writes in one direction."""
        if direction not in _DIRECTIONS:
            raise ValueError(f"direction must be one of {_DIRECTIONS}")
        state = self._state(target)
        if direction in state.blocked:
            self._gc(target)
            return False
        state.blocked.add(direction)
        self._log("partition-asym", target, direction=direction)
        return True

    def unblock(self, target: Union[str, int], direction: str = DIR_IN) -> bool:
        if direction not in _DIRECTIONS:
            raise ValueError(f"direction must be one of {_DIRECTIONS}")
        state = self._states.get(self._key(target))
        if state is None or direction not in state.blocked:
            return False
        state.blocked.discard(direction)
        self._gc(target)
        self._log("heal-asym", target, direction=direction)
        return True

    def reset(self, target: Union[str, int]) -> int:
        """Abort every live connection to the endpoint. Returns the count."""
        key = self._key(target)
        ports = (
            list(self._shims) if key == "*" else [key] if isinstance(key, int) else []
        )
        aborted = 0
        for port in ports:
            for shim in list(self._shims.get(port, ())):
                shim.abort()
                aborted += 1
        self.resets_injected += aborted
        # The live-connection count is load-timing dependent; keeping it
        # out of the log preserves the replay-identical digest contract.
        self._log("link-reset", target)
        return aborted

    def apply_event(
        self, kind: str, target: Union[str, int], params: Dict[str, Any]
    ) -> str:
        """Dispatch one extended :class:`ChaosEvent` onto this controller."""
        if kind == "link-degrade":
            changed = self.degrade(
                target,
                delay_ms=params.get("delay_ms", 0.0),
                jitter_ms=params.get("jitter_ms", 0.0),
                loss=params.get("loss", 0.0),
            )
            return "ok" if changed else "skipped: already degraded"
        if kind == "link-restore":
            return "ok" if self.restore(target) else "skipped: not degraded"
        if kind == "link-slow":
            changed = self.slow(
                target,
                chunk=params.get("chunk", 128),
                chunk_delay_ms=params.get("chunk_delay_ms", 5.0),
            )
            return "ok" if changed else "skipped: already slow"
        if kind == "link-unslow":
            return "ok" if self.unslow(target) else "skipped: not slow"
        if kind == "partition-asym":
            direction = params.get("direction", DIR_IN)
            changed = self.block(target, direction)
            return "ok" if changed else "skipped: already blocked"
        if kind == "heal-asym":
            direction = params.get("direction", DIR_IN)
            changed = self.unblock(target, direction)
            return "ok" if changed else "skipped: not blocked"
        if kind == "link-reset":
            return f"aborted {self.reset(target)} connections"
        raise ValueError(f"netem cannot apply chaos kind {kind!r}")

    def log_digest(self) -> str:
        """Canonical fingerprint of the ordered fault log (no wall times)."""
        canonical = json.dumps(self.log, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------

    def _rng(self, port: int, direction: str) -> random.Random:
        seq = self._conn_seq.get((port, direction), 0)
        self._conn_seq[(port, direction)] = seq + 1
        return random.Random(f"netem:{self.seed}:{port}:{direction}:{seq}")

    def _register(self, shim: "_Shim") -> None:
        self._shims.setdefault(shim.port, set()).add(shim)

    def _unregister(self, shim: "_Shim") -> None:
        shims = self._shims.get(shim.port)
        if shims is not None:
            shims.discard(shim)
            if not shims:
                self._shims.pop(shim.port, None)

    def wrap(self, transport: Any, port: int, direction: str) -> "_Shim":
        """Shim one connection's write side, on the link to the server
        listening on ``port``, in ``direction``. Which end passes which
        is :mod:`repro.service.transport`'s keying rule."""
        return _Shim(self, transport, port, direction)

    def shutdown(self) -> None:
        """Close every live shim; call once the cluster is stopped."""
        for shims in list(self._shims.values()):
            for shim in list(shims):
                shim.close()
        self._shims.clear()


class _Shim:
    """A transport's write side with link faults applied per write.

    The owner hands over whole frames -- one per :meth:`write`, or a
    list of them to :meth:`writelines` -- so every frame gets its own
    loss and jitter draw. Clean links pass writes straight
    through with no queue and no pump task; an active fault queues the
    frame and a pump task delivers the queue, then exits. Delivery
    times are monotone per connection (``max(now + delay, previous)``)
    so independent per-frame jitter draws can never reorder bytes
    within one TCP stream.
    """

    def __init__(
        self,
        controller: NetemController,
        transport: asyncio.WriteTransport,
        port: int,
        direction: str,
    ) -> None:
        self._controller = controller
        self._transport = transport
        self.port = port
        self.direction = direction
        self._rng = controller._rng(port, direction)
        self._queue: Deque[Tuple[bytes, float]] = deque()
        self._pump_task: Optional[asyncio.Task] = None
        self._last_at = 0.0
        self._closed = False
        controller._register(self)

    def write(self, data: bytes) -> None:
        if self._closed:
            return
        states = self._controller.states_for(self.port)
        pumping = self._pump_task is not None and not self._pump_task.done()
        if not states and not pumping:
            self._transport.write(data)
            return
        if any(self.direction in state.blocked for state in states):
            self._controller.frames_dropped += 1
            return
        survive = 1.0
        delay = 0.0
        for state in states:
            survive *= 1.0 - state.loss
            delay += state.delay_s
            if state.jitter_s:
                delay += self._rng.uniform(0.0, state.jitter_s)
        if survive < 1.0 and self._rng.random() >= survive:
            self._controller.frames_dropped += 1
            return
        loop = asyncio.get_running_loop()
        at = max(loop.time() + delay, self._last_at)
        self._last_at = at
        if delay:
            self._controller.frames_delayed += 1
        self._queue.append((bytes(data), at))
        if not pumping:
            self._pump_task = loop.create_task(self._pump())

    def writelines(self, frames: Iterable[bytes]) -> None:
        """A segment's replies: still one draw per frame, never one for
        the batch (the real transport's ``writelines`` is one send)."""
        for frame in frames:
            self.write(frame)

    def _slow_params(self) -> Optional[Tuple[int, float]]:
        for state in self._controller.states_for(self.port):
            if state.slow_chunk:
                return (state.slow_chunk, state.slow_delay_s)
        return None

    async def _pump(self) -> None:
        loop = asyncio.get_running_loop()
        while self._queue and not self._closed:
            data, at = self._queue[0]
            now = loop.time()
            if at > now:
                await asyncio.sleep(at - now)
            if self._closed:
                break
            self._queue.popleft()
            slow = self._slow_params()
            if slow is None:
                self._transport.write(data)
                continue
            chunk, pause = slow
            for i in range(0, len(data), chunk):
                self._transport.write(data[i : i + chunk])
                if pause:
                    await asyncio.sleep(pause)

    def _detach(self) -> None:
        self._closed = True
        self._controller._unregister(self)
        if self._pump_task is not None and not self._pump_task.done():
            self._pump_task.cancel()
        self._queue.clear()

    def close(self) -> None:
        """Drop anything still queued and close the transport."""
        if not self._closed:
            self._detach()
            self._transport.close()

    def abort(self) -> None:
        """Hard reset: kill the transport so both ends see a broken pipe."""
        self._detach()
        self._transport.abort()
