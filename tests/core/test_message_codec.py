"""The message codec is a shallow field walk with asdict's exact bytes.

``Message.to_dict`` reads each field by name instead of deep-copying
through ``dataclasses.asdict``; these tests pin that the wire bytes did
not move for any registered kind, and that no copy is made.
"""

import dataclasses
import json

import pytest

from repro.core.messages import (
    _REGISTRY,
    AddWorker,
    ConfigUpdate,
    ConnectionAck,
    ExecStatus,
    FileData,
    FileMetadata,
    ForkRemoteWorkers,
    Heartbeat,
    HeartbeatAck,
    NoMoreData,
    RegisterWorker,
    RemoveWorker,
    RequestData,
    ResendFile,
    SetPartitionInfo,
    StartMaster,
    TelemetryBatch,
    WorkerFailed,
    encode_message,
)

#: One instance of every registered kind, with nested tuples, floats,
#: bools, empty and non-ASCII strings.
EVERY_KIND = [
    StartMaster(strategy="", grouping="pairwise_adjacent", multicore=False),
    SetPartitionInfo(groups=(("a", "b"), ("",), ()), sizes=((1, 2), (0,), ())),
    ForkRemoteWorkers(nodes=("n0", ""), command_template="", clones_per_node=3),
    RegisterWorker(worker_id="w0", node_id="", cores=4),
    ConnectionAck(worker_id="w0", accepted=False, reason="", ship_telemetry=True),
    RequestData(worker_id=""),
    FileMetadata(
        task_id=3, file_names=("a", "é"), sizes=(1, 65536), transfer_required=False,
        attempt=2,
    ),
    FileData(task_id=-1, file_name="a b", payload_len=10, checksum=""),
    ExecStatus(
        worker_id="w0", task_id=3, ok=False, duration=1.5e-3, error="",
        output_summary="ünï\n\"q\"",
    ),
    Heartbeat(worker_id="w0", seq=7, sent_at=-1.0, rtt=0.1 + 0.2),
    HeartbeatAck(worker_id="w0", seq=0, sent_at=1e300),
    ResendFile(worker_id="w0", file_name="a", task_id=-1, reason=""),
    TelemetryBatch(worker_id="w0", seq=0, payload_len=0, checksum="deadbeef"),
    NoMoreData(worker_id="w0"),
    WorkerFailed(worker_id="w0", node_id="n0", error="", tasks_in_flight=(1, 2)),
    AddWorker(node_id="n9", cores=2),
    RemoveWorker(worker_id="w0", drain=False),
    ConfigUpdate(key="strategy", value=""),
]


def _reference_encode(message) -> bytes:
    """The codec as it was: ``asdict`` plus the type tag."""
    payload = dataclasses.asdict(message)
    payload["type"] = message.msg_type
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()


def test_every_registered_kind_is_covered():
    assert {type(m) for m in EVERY_KIND} == set(_REGISTRY.values())


@pytest.mark.parametrize("message", EVERY_KIND, ids=lambda m: m.msg_type)
class TestCodecPin:
    def test_bytes_identical_to_asdict_encoder(self, message):
        assert encode_message(message) == _reference_encode(message)

    def test_to_dict_is_asdict_plus_type(self, message):
        assert message.to_dict() == {
            **dataclasses.asdict(message), "type": message.msg_type
        }


def test_to_dict_does_not_copy_fields():
    # Fields are immutable, so the dict holds the message's own objects.
    message = SetPartitionInfo(groups=(("a", "b"),), sizes=((1, 2),))
    payload = message.to_dict()
    assert payload["groups"] is message.groups
    assert payload["sizes"] is message.sizes
