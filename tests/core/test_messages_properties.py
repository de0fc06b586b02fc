"""Property-based tests: the message codec round-trips arbitrary field
values (the wire protocol can't lose or mangle data)."""

from hypothesis import given, strategies as st

from repro.core.messages import (
    ExecStatus,
    FileMetadata,
    RegisterWorker,
    SetPartitionInfo,
    WorkerFailed,
    decode_message,
    encode_message,
)

names = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    max_size=40,
)


@given(names, names, st.integers(1, 1024))
def test_register_worker_round_trip(worker_id, node_id, cores):
    msg = RegisterWorker(worker_id=worker_id, node_id=node_id, cores=cores)
    assert decode_message(encode_message(msg)) == msg


@given(
    st.lists(
        st.lists(names, min_size=1, max_size=4).map(tuple),
        max_size=10,
    ).map(tuple)
)
def test_partition_info_round_trip(groups):
    sizes = tuple(tuple(len(n) for n in group) for group in groups)
    msg = SetPartitionInfo(groups=groups, sizes=sizes)
    assert decode_message(encode_message(msg)) == msg


@given(
    st.integers(-1, 10**6),
    st.lists(names, max_size=5).map(tuple),
    st.booleans(),
)
def test_file_metadata_round_trip(task_id, file_names, transfer_required):
    msg = FileMetadata(
        task_id=task_id,
        file_names=file_names,
        sizes=tuple(1 for _ in file_names),
        transfer_required=transfer_required,
    )
    assert decode_message(encode_message(msg)) == msg


@given(names, st.integers(-1, 10**9), st.booleans(), st.floats(0, 1e6), names)
def test_exec_status_round_trip(worker_id, task_id, ok, duration, error):
    msg = ExecStatus(
        worker_id=worker_id, task_id=task_id, ok=ok, duration=duration, error=error
    )
    assert decode_message(encode_message(msg)) == msg


@given(names, names, names, st.lists(st.integers(0, 10**6), max_size=8).map(tuple))
def test_worker_failed_round_trip(worker_id, node_id, error, tasks):
    msg = WorkerFailed(
        worker_id=worker_id, node_id=node_id, error=error, tasks_in_flight=tasks
    )
    assert decode_message(encode_message(msg)) == msg


@given(names, st.integers(-1, 100), st.binary(max_size=256))
def test_frame_reader_round_trip_with_payload(file_name, task_id, payload):
    from repro.core.messages import FileData
    from repro.runtime.protocol import write_frame
    from tests.runtime.framing import BufferWriter, read_frames

    writer = BufferWriter()
    msg = FileData(task_id=task_id, file_name=file_name, payload_len=len(payload))
    write_frame(writer, msg, payload)
    assert read_frames(bytes(writer.data)) == [(msg, payload)]
