"""Per-task cost of small inputs on the TCP plane.

A task whose inputs are at most ``SMALL_PAYLOAD`` bytes costs one frame
write per frame and one executor hop in total: the master reads the
input on the loop, and the worker's single executor call spills it,
stamps the start and runs the command. Larger inputs keep the executor
read and the on-loop spill.
"""

import asyncio
import os
import threading
import zlib

import pytest

from repro.core.messages import FileData, RequestData, encode_message
from repro.runtime.faults import FaultRule, FaultScript, FaultyChannel
from repro.runtime.protocol import SMALL_PAYLOAD, _LEN, file_data_message, write_frame
from repro.runtime.tcp import TcpEngine
from tests.runtime.framing import read_frames


class _RecordingWriter:
    """Duck-types ``StreamWriter``: keeps every ``write`` separately."""

    def __init__(self):
        self.writes: list[bytes] = []
        self.closed = False

    def write(self, chunk: bytes) -> None:
        self.writes.append(bytes(chunk))

    def close(self) -> None:
        self.closed = True


def _payload(size: int) -> bytes:
    return bytes(i % 251 for i in range(size))


class TestFrameWrites:
    @pytest.mark.parametrize(
        "size",
        [0, 1, 1024, SMALL_PAYLOAD - 1, SMALL_PAYLOAD, SMALL_PAYLOAD + 1, 4 * SMALL_PAYLOAD],
    )
    def test_one_write_up_to_small_payload_two_above(self, size):
        payload = _payload(size)
        message = file_data_message(4, "f.bin", payload)
        writer = _RecordingWriter()
        write_frame(writer, message, payload)
        assert len(writer.writes) == (1 if size <= SMALL_PAYLOAD else 2)
        body = encode_message(message)
        assert b"".join(writer.writes) == _LEN.pack(len(body)) + body + payload

    def test_control_frame_is_one_write(self):
        writer = _RecordingWriter()
        write_frame(writer, RequestData(worker_id="w0"))
        body = encode_message(RequestData(worker_id="w0"))
        assert writer.writes == [_LEN.pack(len(body)) + body]

    def test_truncated_frame_is_a_prefix_of_the_real_one(self):
        payload = _payload(300)
        message = file_data_message(1, "t.bin", payload)
        full = _RecordingWriter()
        write_frame(full, message, payload)
        writer = _RecordingWriter()
        script = FaultScript([FaultRule("truncate", msg_type="FILE_DATA")], seed=3)
        channel = FaultyChannel(None, writer, script, "master")
        asyncio.run(channel.send(message, payload))
        (cut,) = writer.writes
        frame = b"".join(full.writes)
        assert writer.closed
        assert 0 < len(cut) < len(frame)
        assert frame.startswith(cut)


@pytest.fixture
def count_executor_calls(monkeypatch):
    """Record the function of every ``run_in_executor`` call."""
    calls = []
    original = asyncio.base_events.BaseEventLoop.run_in_executor

    def counting(self, executor, func, *args):
        calls.append(getattr(func, "__name__", repr(func)))
        return original(self, executor, func, *args)

    monkeypatch.setattr(asyncio.base_events.BaseEventLoop, "run_in_executor", counting)
    return calls


def _write_inputs(directory, sizes):
    paths, crcs = [], {}
    for i, size in enumerate(sizes):
        data = os.urandom(size)
        path = directory / f"in{i:03d}.bin"
        path.write_bytes(data)
        paths.append(str(path))
        crcs[path.name] = zlib.crc32(data)
    return paths, crcs


def _run_checked(paths, crcs):
    seen = {}
    lock = threading.Lock()

    def program(path):
        with open(path, "rb") as fh:
            crc = zlib.crc32(fh.read())
        with lock:
            seen[os.path.basename(path)] = crc

    outcome = TcpEngine(num_workers=2, run_timeout=60).run(paths, command=program)
    assert outcome.tasks_completed == len(paths)
    assert outcome.extra["retransmits"] == 0
    assert seen == crcs
    return outcome


class TestExecutorHops:
    def test_one_hop_per_small_task(self, tmp_path, count_executor_calls):
        paths, crcs = _write_inputs(tmp_path, [1024] * 50)
        _run_checked(paths, crcs)
        # Not two per task (a master read hop plus a command hop).
        assert len(count_executor_calls) == 50

    def test_large_input_keeps_the_executor_read(self, tmp_path, count_executor_calls):
        paths, crcs = _write_inputs(tmp_path, [1024] * 4 + [200 * 1024])
        _run_checked(paths, crcs)
        # Five task calls plus the master's read of the 200 KiB input.
        assert len(count_executor_calls) == 6

    def test_small_inputs_are_spilled_off_the_loop_thread(self, tmp_path, monkeypatch):
        from repro.runtime import tcp

        spill_threads = []
        original = tcp._write_payload

        def recording(scratch_dir, file_name, payload):
            spill_threads.append(threading.current_thread() is threading.main_thread())
            original(scratch_dir, file_name, payload)

        monkeypatch.setattr(tcp, "_write_payload", recording)
        paths, crcs = _write_inputs(tmp_path, [1024] * 3 + [SMALL_PAYLOAD + 1])
        _run_checked(paths, crcs)
        # asyncio.run drives the loop on the calling (main) thread.
        assert sorted(spill_threads) == [False, False, False, True]


def test_file_data_at_the_boundary_round_trips():
    writer = _RecordingWriter()
    payloads = [_payload(SMALL_PAYLOAD), _payload(SMALL_PAYLOAD + 1)]
    for i, payload in enumerate(payloads):
        write_frame(writer, file_data_message(i, f"b{i}", payload), payload)
    frames = read_frames(*writer.writes)
    assert len(frames) == len(payloads)
    for i, ((message, got), payload) in enumerate(zip(frames, payloads)):
        assert isinstance(message, FileData) and message.task_id == i
        assert got == payload
