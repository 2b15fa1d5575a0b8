"""Frames over asyncio streams, for the tests' raw peers and clients.

The service itself speaks frames only through ``repro.service.transport``;
a test that plays a peer by hand reads and writes them here.
"""

import asyncio

from repro.service import wire


async def read_frame(reader):
    """The next frame on ``reader``; None at a clean end of stream."""
    try:
        header = await reader.readexactly(4)
    except asyncio.IncompleteReadError as error:
        if error.partial:
            raise
        return None
    body = await reader.readexactly(int.from_bytes(header, "big"))
    return wire.decode_frame(header + body)


async def write_frame(writer, value):
    """Encode ``value`` as one frame and flush it to ``writer``."""
    writer.write(wire.encode_frame(value))
    await writer.drain()
