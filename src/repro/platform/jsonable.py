"""The tagged-JSON value codec: the readable form of protocol values.

Plain JSON cannot carry the repository's protocol vocabulary --
:class:`repro.platform.naming.AgentId` appears both as values and as
dictionary *keys* (location-record tables), hash-tree specs are nested
tuples, and the envelopes of :mod:`repro.platform.messages` are
dataclasses -- so values are lowered through a reversible tagging
scheme:

==================  ==================================================
``AgentId``         ``{"$aid": [value, width]}``
``tuple``           ``{"$tuple": [items...]}``
``Request``         ``{"$request": {op, body, sender_node, sender_agent, size, message_id}}``
``Response``        ``{"$response": {message_id, value, error, size}}``
non-string-key dict ``{"$dict": [[key, value], ...]}``
``{"$x": ...}``     escaped as ``{"$esc": {"$x": ...}}``
==================  ==================================================

Neither a socket nor a durable record carries it: both use the binary
codec of :mod:`repro.platform.binary`. It keeps two jobs:
:mod:`repro.service.wire` dumps a frame as ``CODEC_JSON`` (errors
surface as ``WireError``), and the end-to-end benchmark times
:func:`to_jsonable` on a journal entry. Each caller passes its error
class through the ``error`` parameter so failures carry the vocabulary
of the layer that hit them. The envelopes' module is imported only when
a ``Request`` / ``Response`` is met, so a process that never dumps an
envelope does not load it.
"""

from __future__ import annotations

from typing import Any, Type

from repro.platform.binary import TaggedCodecError
from repro.platform.naming import AgentId

__all__ = ["from_jsonable", "to_jsonable"]

#: Tags understood by :func:`from_jsonable`; a single-key dict whose key
#: starts with ``$`` but is not listed here is rejected, so unknown
#: future tags fail loudly instead of decoding to nonsense.
_TAGS = ("$aid", "$tuple", "$request", "$response", "$dict", "$esc")


def to_jsonable(value: Any, error: Type[TaggedCodecError] = TaggedCodecError) -> Any:
    """Lower a protocol value to plain JSON types, tagging rich ones."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, AgentId):
        return {"$aid": [value.value, value.width]}
    if isinstance(value, tuple):
        return {"$tuple": [to_jsonable(item, error) for item in value]}
    if isinstance(value, list):
        return [to_jsonable(item, error) for item in value]
    if isinstance(value, dict):
        if all(isinstance(key, str) for key in value):
            if any(key.startswith("$") for key in value):
                # A user dict that happens to look tagged: escape it.
                return {
                    "$esc": {
                        key: to_jsonable(item, error) for key, item in value.items()
                    }
                }
            return {key: to_jsonable(item, error) for key, item in value.items()}
        return {
            "$dict": [
                [to_jsonable(key, error), to_jsonable(item, error)]
                for key, item in value.items()
            ]
        }
    # The simulator's envelopes come last; their module loads on first
    # use (see the module docstring).
    from repro.platform.messages import Request, Response

    if isinstance(value, Request):
        return {
            "$request": {
                "op": value.op,
                "body": to_jsonable(value.body, error),
                "sender_node": value.sender_node,
                "sender_agent": to_jsonable(value.sender_agent, error),
                "size": value.size,
                "message_id": value.message_id,
            }
        }
    if isinstance(value, Response):
        return {
            "$response": {
                "message_id": value.message_id,
                "value": to_jsonable(value.value, error),
                "error": value.error,
                "size": value.size,
            }
        }
    raise error(f"value of type {type(value).__name__!r} is not wire-encodable")


def from_jsonable(value: Any, error: Type[TaggedCodecError] = TaggedCodecError) -> Any:
    """Invert :func:`to_jsonable`."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return [from_jsonable(item, error) for item in value]
    if not isinstance(value, dict):
        raise error(f"unexpected JSON value of type {type(value).__name__!r}")
    if len(value) == 1:
        (tag,) = value
        if isinstance(tag, str) and tag.startswith("$"):
            if tag not in _TAGS:
                raise error(f"unknown wire tag {tag!r}")
            return _decode_tagged(tag, value[tag], error)
    return {key: from_jsonable(item, error) for key, item in value.items()}


def _decode_tagged(tag: str, payload: Any, error: Type[TaggedCodecError]) -> Any:
    if tag == "$aid":
        try:
            raw, width = payload
            return AgentId(int(raw), int(width))
        except (TypeError, ValueError) as exc:
            raise error(f"malformed $aid payload {payload!r}") from exc
    if tag == "$tuple":
        if not isinstance(payload, list):
            raise error(f"malformed $tuple payload {payload!r}")
        return tuple(from_jsonable(item, error) for item in payload)
    if tag == "$dict":
        if not isinstance(payload, list):
            raise error(f"malformed $dict payload {payload!r}")
        try:
            return {
                from_jsonable(key, error): from_jsonable(item, error)
                for key, item in payload
            }
        except (TypeError, ValueError) as exc:
            raise error(f"malformed $dict payload {payload!r}") from exc
    if tag == "$esc":
        if not isinstance(payload, dict):
            raise error(f"malformed $esc payload {payload!r}")
        return {key: from_jsonable(item, error) for key, item in payload.items()}
    from repro.platform.messages import Request, Response

    if tag == "$request":
        fields = _expect_fields(tag, payload, ("op", "message_id"), error)
        request = Request(
            op=fields["op"],
            body=from_jsonable(fields.get("body"), error),
            sender_node=fields.get("sender_node"),
            sender_agent=from_jsonable(fields.get("sender_agent"), error),
            size=int(fields.get("size", 256)),
            message_id=int(fields["message_id"]),
        )
        return request
    # tag == "$response"
    fields = _expect_fields(tag, payload, ("message_id",), error)
    return Response(
        message_id=int(fields["message_id"]),
        value=from_jsonable(fields.get("value"), error),
        error=fields.get("error"),
        size=int(fields.get("size", 256)),
    )


def _expect_fields(
    tag: str, payload: Any, required: tuple, error: Type[TaggedCodecError]
) -> dict:
    if not isinstance(payload, dict):
        raise error(f"malformed {tag} payload {payload!r}")
    for name in required:
        if name not in payload:
            raise error(f"{tag} payload missing {name!r}: {payload!r}")
    return payload
