"""Journal codec, damage handling, writer, and stores.

The corruption tests are the satellite contract: a truncated tail or a
bit-flipped CRC must stop decoding cleanly at the last valid record —
reported and counted, never an exception out of the reader.
"""

import os
import stat

import pytest

from repro.errors import JournalError
from repro.service.journal import (
    HEADER,
    LEASE,
    OPEN,
    SNAPSHOT,
    SUBMIT,
    JournalWriter,
    MemoryJournalStore,
    decode_records,
    encode_record,
    read_journal,
)
from repro.service.journalfs import FileJournalStore
from repro.telemetry.metrics import MetricsRegistry


def _journal_bytes(*payloads):
    return HEADER + b"".join(encode_record(p) for p in payloads)


class TestCodec:
    def test_round_trip(self):
        data = _journal_bytes(
            {"k": OPEN, "t": 0.0, "epoch": 1, "workers": ["w0"]},
            {"k": LEASE, "t": 1.5, "worker": "w0", "job": "1", "task": 0, "attempt": 1},
        )
        records, damage, valid = decode_records(data)
        assert damage is None
        assert valid == len(data)
        assert [r["k"] for r in records] == [OPEN, LEASE]
        assert records[1]["t"] == 1.5

    def test_unknown_kind_refused_at_encode(self):
        with pytest.raises(JournalError):
            encode_record({"k": "mystery", "t": 0.0})

    def test_bad_magic_raises(self):
        with pytest.raises(JournalError):
            decode_records(b"NOPE" + b"\x01\x00")

    def test_bad_version_raises(self):
        with pytest.raises(JournalError):
            decode_records(b"FRJL" + b"\xff\x00")

    def test_truncated_tail_stops_cleanly(self):
        data = _journal_bytes(
            {"k": OPEN, "t": 0.0, "epoch": 1, "workers": []},
            {"k": SUBMIT, "t": 1.0, "spec": {}, "job": "1", "verdict": "admit"},
        )
        for cut in (1, 5, len(data) // 2):
            records, damage, valid = decode_records(data[:-cut])
            assert damage is not None
            assert damage.reason in ("truncated frame", "truncated record")
            assert valid <= len(data) - cut
            # Everything before the damage still decodes.
            assert all(r["k"] in (OPEN, SUBMIT) for r in records)

    def test_bit_flip_stops_at_crc(self):
        data = bytearray(
            _journal_bytes(
                {"k": OPEN, "t": 0.0, "epoch": 1, "workers": []},
                {"k": SUBMIT, "t": 1.0, "spec": {}, "job": "1", "verdict": "admit"},
            )
        )
        data[-3] ^= 0x40  # flip one bit inside the last record's body
        records, damage, valid = decode_records(bytes(data))
        assert damage is not None
        assert damage.reason in ("crc mismatch", "unparsable body")
        assert [r["k"] for r in records] == [OPEN]
        # The valid prefix is exactly the bytes up to the damaged frame.
        clean, no_damage, _ = decode_records(bytes(data)[:valid])
        assert no_damage is None
        assert len(clean) == 1

    def test_read_journal_uses_latest_snapshot(self):
        data = _journal_bytes(
            {"k": OPEN, "t": 0.0, "epoch": 1, "workers": []},
            {"k": SNAPSHOT, "t": 2.0, "epoch": 1, "state": {"v": 1, "marker": "a"}},
            {"k": SNAPSHOT, "t": 4.0, "epoch": 2, "state": {"v": 1, "marker": "b"}},
            {"k": OPEN, "t": 5.0, "epoch": 3, "workers": []},
        )
        image = read_journal(data)
        assert image.snapshot["marker"] == "b"
        assert [r["k"] for r in image.records] == [OPEN]
        assert image.epoch == 3


class TestWriter:
    def test_lag_and_compaction_due(self):
        store = MemoryJournalStore()
        reg = MetricsRegistry()
        writer = JournalWriter(store, snapshot_every=2, metrics=reg)
        assert not writer.compaction_due
        writer.append(OPEN, 0.0, epoch=1, workers=[])
        writer.append(LEASE, 1.0, worker="w", job="1", task=0, attempt=1)
        assert writer.lag_records == 2
        assert writer.compaction_due
        assert reg.gauge("service.journal.lag_records").value == 2
        writer.compact({"v": 1}, epoch=1, t=1.0)
        assert writer.lag_records == 0
        assert not writer.compaction_due
        image = read_journal(store.read())
        assert image.snapshot == {"v": 1}
        assert image.records == []
        assert reg.counter("service.journal.snapshots").value == 1

    def test_attach_to_damaged_store_refused(self):
        store = MemoryJournalStore()
        writer = JournalWriter(store)
        writer.append(OPEN, 0.0, epoch=1, workers=[])
        store.replace(store.read()[:-2])
        with pytest.raises(JournalError):
            JournalWriter(store)

    def test_reattach_resumes_lag(self):
        store = MemoryJournalStore()
        writer = JournalWriter(store, snapshot_every=10)
        writer.append(OPEN, 0.0, epoch=1, workers=[])
        writer.append(LEASE, 1.0, worker="w", job="1", task=0, attempt=1)
        again = JournalWriter(store, snapshot_every=10)
        assert again.lag_records == 2


class TestFileStore:
    def test_append_read_replace(self, tmp_path):
        path = tmp_path / "svc.journal"
        store = FileJournalStore(path)
        assert store.read() == b""
        writer = JournalWriter(store)
        writer.append(OPEN, 0.0, epoch=1, workers=["w0"])
        assert store.read().startswith(HEADER)
        records, damage, _ = decode_records(store.read())
        assert damage is None and len(records) == 1
        writer.compact({"v": 1}, epoch=1, t=0.0)
        image = read_journal(store.read())
        assert image.snapshot == {"v": 1}
        assert store.size == len(store.read())

    def test_replace_is_atomic_via_rename(self, tmp_path):
        path = tmp_path / "svc.journal"
        store = FileJournalStore(path, sync=False)
        store.append(b"abc")
        store.replace(b"xyz")
        assert path.read_bytes() == b"xyz"
        assert not list(tmp_path.glob("*.tmp*"))

    @pytest.mark.parametrize("sync", [True, False])
    def test_replace_syncs_the_directory_only_with_sync(self, tmp_path, monkeypatch, sync):
        store = FileJournalStore(tmp_path / "svc.journal", sync=sync)
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        store.replace(b"xyz")
        # With sync: the temp file, then the directory holding the rename.
        assert synced == ([False, True] if sync else [])
