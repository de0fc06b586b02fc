"""Test helpers: decode bytes with the TCP plane's own frame reader.

The runtime decodes frames only with
:func:`repro.runtime.protocol.read_frame` over an
``asyncio.StreamReader``. :func:`read_frames` feeds such a reader from
byte strings, so protocol tests and fuzzers exercise exactly the
decoder a run uses.
"""

from __future__ import annotations

import asyncio

from repro.core.messages import Message
from repro.errors import ChecksumError
from repro.runtime.protocol import read_frame


class BufferWriter:
    """Collects written bytes (duck-types ``StreamWriter.write``)."""

    def __init__(self) -> None:
        self.data = bytearray()

    def write(self, chunk: bytes) -> None:
        self.data.extend(chunk)


def read_frames(*chunks: bytes) -> list[tuple[Message, bytes] | ChecksumError]:
    """Every frame ``read_frame`` decodes from ``chunks``, up to the end
    of the stream.

    The chunks arrive one at a time, with the loop run between them, so
    a frame split across chunks is read in pieces as it would be off a
    socket. A frame whose payload fails its checksum appears as the
    :class:`ChecksumError` it raised (the decoder has consumed it and
    reads on); a frame cut off by the end of the stream is dropped. Any
    other decoding error propagates.
    """

    async def decode() -> list[tuple[Message, bytes] | ChecksumError]:
        reader = asyncio.StreamReader()

        async def feed() -> None:
            for chunk in chunks:
                reader.feed_data(chunk)
                await asyncio.sleep(0)
            reader.feed_eof()

        feeder = asyncio.create_task(feed())
        frames: list[tuple[Message, bytes] | ChecksumError] = []
        try:
            while True:
                try:
                    frames.append(await read_frame(reader))
                except ChecksumError as exc:
                    frames.append(exc)
                except asyncio.IncompleteReadError:
                    return frames
        finally:
            feeder.cancel()

    return asyncio.run(decode())
