"""Message envelopes and RPC error types.

Agents talk through request/response envelopes carried by the network.
``Request.op`` is a short verb (``"locate"``, ``"update-location"``,
``"split"``, ...) dispatched by the receiving agent's ``handle`` method;
``Request.body`` is an arbitrary payload, by convention a dict or a
dataclass owned by the protocol that defines the op.

These envelopes are the simulator's. The live service builds none: an
RPC there is its header fields end to end (``repro.service.wire``'s
``encode_call`` / ``encode_reply`` and the decoder's flat tuples), with
message ids its connections number for themselves. The wire meets the
envelopes only at its one-shot edge (``encode_frame`` /
``decode_frame``), which the codec tests and benchmarks use, and writes
them there as that same call / reply header: the value codec has no
envelope tag.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = [
    "Request",
    "Response",
    "RpcError",
    "RpcTimeout",
    "AgentNotFound",
    "NodeUnavailable",
]

_message_counter = itertools.count(1)


@dataclass
class Request:
    """A request envelope addressed to an agent on a node.

    Attributes
    ----------
    op:
        Operation verb dispatched by the receiver.
    body:
        Operation payload.
    sender_node / sender_agent:
        Origin, used for replies and diagnostics.
    size:
        Abstract payload size in bytes; feeds the network's
        transmission-delay model.

    ``size`` and the two senders are simulator fields: nothing in the
    live service reads them, and the wire does not carry them (its
    one-shot edge writes an envelope as the call frame header of op,
    message id and target, and refuses one with any of them set; see
    :mod:`repro.service.wire`). ``message_id`` defaults to the next of a
    process-wide counter, which the live service does not draw from.
    """

    op: str
    body: Any = None
    sender_node: Optional[str] = None
    sender_agent: Optional[Any] = None
    size: int = 256
    message_id: int = field(default_factory=lambda: next(_message_counter))

    def __repr__(self) -> str:
        return f"Request(#{self.message_id} {self.op} from {self.sender_node})"


@dataclass
class Response:
    """A response envelope correlated to a request by ``message_id``.

    ``size`` is a simulator field, like ``Request.size``: the wire does
    not carry it, and spends no byte on an absent ``error``.
    """

    message_id: int
    value: Any = None
    error: Optional[str] = None
    size: int = 256

    @property
    def ok(self) -> bool:
        return self.error is None


class RpcError(RuntimeError):
    """Base class for request/response failures visible to protocols."""


class RpcTimeout(RpcError):
    """The response did not arrive within the caller's deadline."""


class AgentNotFound(RpcError):
    """The destination node has no live agent with the requested id.

    Protocols treat this as a routine event: mobile agents may have moved
    away between being located and being contacted.
    """


class NodeUnavailable(RpcError):
    """The destination node is crashed or unreachable."""
