"""Unit tests for the TCP wire protocol framing."""

import asyncio

import pytest

from repro.core.messages import FileData, RegisterWorker, RequestData
from repro.errors import ProtocolError
from repro.runtime.protocol import read_frame, write_frame
from tests.runtime.framing import BufferWriter, read_frames


class TestFrameReader:
    """``read_frame`` over a fed stream: the one decoder the TCP plane has."""

    def test_round_trip_plain_message(self):
        writer = BufferWriter()
        write_frame(writer, RequestData(worker_id="w0"))
        assert read_frames(bytes(writer.data)) == [(RequestData(worker_id="w0"), b"")]

    def test_round_trip_with_payload(self):
        writer = BufferWriter()
        body = b"\x00\x01binary image bytes\xff"
        write_frame(
            writer,
            FileData(task_id=1, file_name="img.npy", payload_len=len(body)),
            body,
        )
        ((message, payload),) = read_frames(bytes(writer.data))
        assert message.file_name == "img.npy"
        assert payload == body

    def test_incremental_feeding_byte_at_a_time(self):
        writer = BufferWriter()
        write_frame(writer, RegisterWorker(worker_id="w1", node_id="n1", cores=2))
        single_bytes = [bytes([b]) for b in writer.data]
        assert read_frames(*single_bytes[:-1]) == []
        ((message, _),) = read_frames(*single_bytes)
        assert message.worker_id == "w1"

    def test_multiple_frames_in_one_feed(self):
        writer = BufferWriter()
        write_frame(writer, RequestData(worker_id="a"))
        write_frame(writer, RequestData(worker_id="b"))
        frames = read_frames(bytes(writer.data))
        assert [message.worker_id for message, _ in frames] == ["a", "b"]

    def test_payload_length_mismatch_rejected(self):
        writer = BufferWriter()
        with pytest.raises(ProtocolError):
            write_frame(
                writer, FileData(task_id=0, file_name="x", payload_len=5), b"123"
            )

    def test_payload_on_non_filedata_rejected(self):
        writer = BufferWriter()
        with pytest.raises(ProtocolError):
            write_frame(writer, RequestData(worker_id="w"), b"payload")

    def test_oversized_frame_length_rejected(self):
        with pytest.raises(ProtocolError):
            read_frames((2**30).to_bytes(4, "big") + b"x")


class TestAsyncReadFrame:
    def test_async_round_trip(self):
        async def scenario():
            reader = asyncio.StreamReader()
            writer = BufferWriter()
            payload = b"hello-bytes"
            write_frame(
                writer,
                FileData(task_id=2, file_name="f", payload_len=len(payload)),
                payload,
            )
            reader.feed_data(bytes(writer.data))
            reader.feed_eof()
            return await read_frame(reader)

        message, payload = asyncio.run(scenario())
        assert message.task_id == 2
        assert payload == b"hello-bytes"

    def test_eof_mid_frame_raises(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(b"\x00\x00\x00\x10partial")
            reader.feed_eof()
            return await read_frame(reader)

        with pytest.raises(asyncio.IncompleteReadError):
            asyncio.run(scenario())


class TestPayloadChecksum:
    def test_checksum_is_stable_hex(self):
        from repro.runtime.protocol import payload_checksum

        a = payload_checksum(b"abc")
        assert a == payload_checksum(b"abc")
        assert len(a) == 8
        assert a != payload_checksum(b"abd")

    def test_file_data_message_carries_checksum(self):
        from repro.runtime.protocol import file_data_message, payload_checksum

        msg = file_data_message(3, "f.dat", b"xyz")
        assert msg.payload_len == 3
        assert msg.checksum == payload_checksum(b"xyz")

    def test_corrupted_payload_raises_after_frame_consumed(self):
        # The stream must stay framed: the mismatch surfaces only after
        # the whole frame left the buffer, so the next frame decodes.
        from repro.errors import ChecksumError
        from repro.runtime.protocol import file_data_message

        good = b"payload-bytes"
        writer = BufferWriter()
        write_frame(writer, file_data_message(1, "a", good), good)
        blob = bytearray(writer.data)
        blob[-4] ^= 0xFF  # flip one payload byte on the "wire"
        writer2 = BufferWriter()
        write_frame(writer2, RequestData(worker_id="w0"), b"")

        err, (message, _) = read_frames(bytes(blob) + bytes(writer2.data))
        assert isinstance(err, ChecksumError)
        assert err.frame.file_name == "a"
        assert isinstance(message, RequestData)

    def test_unchecksummed_payload_still_accepted(self):
        # Frames built without file_data_message (checksum="") skip
        # verification — wire compatibility with bare senders.
        payload = b"raw"
        writer = BufferWriter()
        write_frame(
            writer, FileData(task_id=1, file_name="f", payload_len=3), payload
        )
        ((_, got),) = read_frames(bytes(writer.data))
        assert got == payload

    def test_async_checksum_mismatch_raises(self):
        from repro.errors import ChecksumError
        from repro.runtime.protocol import file_data_message

        async def scenario():
            reader = asyncio.StreamReader()
            writer = BufferWriter()
            good = b"0123456789"
            write_frame(writer, file_data_message(7, "g", good), good)
            blob = bytearray(writer.data)
            blob[-1] ^= 0xFF
            reader.feed_data(bytes(blob))
            reader.feed_eof()
            return await read_frame(reader)

        with pytest.raises(ChecksumError):
            asyncio.run(scenario())


class TestTelemetryFrames:
    def _shipped_blob(self):
        from repro.telemetry.shipping import TelemetryShipper, encode_batch
        from repro.telemetry.spans import Telemetry

        tel = Telemetry(clock=lambda: 0.0, record=True, run="w0")
        with tel.span("task", track="worker:w0", task=1):
            pass
        tel.metrics.counter("worker.tasks", ok=True).inc()
        batch = TelemetryShipper(tel).take_batch()
        return batch, encode_batch(batch)

    def test_telemetry_batch_round_trips_with_payload(self):
        from repro.runtime.protocol import telemetry_batch_message
        from repro.telemetry.shipping import decode_batch

        batch, blob = self._shipped_blob()
        writer = BufferWriter()
        write_frame(writer, telemetry_batch_message("w0", batch["seq"], blob), blob)
        ((message, payload),) = read_frames(bytes(writer.data))
        assert message.msg_type == "TELEMETRY"
        assert message.worker_id == "w0"
        assert message.seq == batch["seq"]
        assert message.payload_len == len(blob)
        assert decode_batch(payload) == batch

    def test_corrupted_telemetry_payload_raises_checksum_error(self):
        from repro.errors import ChecksumError
        from repro.runtime.protocol import telemetry_batch_message

        _, blob = self._shipped_blob()
        writer = BufferWriter()
        write_frame(writer, telemetry_batch_message("w0", 1, blob), blob)
        corrupted = bytearray(writer.data)
        corrupted[-3] ^= 0xFF
        # A clean frame behind the bad one must still decode: telemetry
        # loss never desynchronizes the stream.
        writer2 = BufferWriter()
        write_frame(writer2, RequestData(worker_id="w1"))

        err, (message, _) = read_frames(bytes(corrupted) + bytes(writer2.data))
        assert isinstance(err, ChecksumError)
        assert err.frame.msg_type == "TELEMETRY"
        assert isinstance(message, RequestData)

    def test_telemetry_batch_is_a_payload_kind(self):
        from repro.core.messages import TelemetryBatch
        from repro.runtime.protocol import PAYLOAD_KINDS

        assert TelemetryBatch in PAYLOAD_KINDS
