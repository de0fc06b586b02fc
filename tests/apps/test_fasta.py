"""Unit tests for FASTA I/O."""

import io

import pytest
from hypothesis import given, strategies as st

from repro.apps.blast.fasta import (
    SequenceRecord,
    parse_fasta,
    read_fasta,
    write_fasta,
)
from repro.apps.blast.scoring import AMINO_ACIDS
from repro.errors import ApplicationError


class TestParse:
    def test_single_record(self):
        records = parse_fasta(">seq1 a description\nACDEF\nGHIKL\n")
        assert len(records) == 1
        assert records[0].seq_id == "seq1"
        assert records[0].description == "a description"
        assert records[0].residues == "ACDEFGHIKL"

    def test_multiple_records(self):
        records = parse_fasta(">a\nMK\n>b\nWV\n")
        assert [r.seq_id for r in records] == ["a", "b"]

    def test_blank_lines_ignored(self):
        records = parse_fasta("\n>a\n\nMK\n\n")
        assert records[0].residues == "MK"

    def test_lowercase_uppercased(self):
        assert parse_fasta(">a\nmkv\n")[0].residues == "MKV"

    def test_residues_before_header_rejected(self):
        with pytest.raises(ApplicationError):
            parse_fasta("ACDEF\n>a\nMK\n")

    def test_empty_record_rejected(self):
        with pytest.raises(ApplicationError):
            parse_fasta(">a\n>b\nMK\n")

    def test_empty_header_rejected(self):
        with pytest.raises(ApplicationError):
            parse_fasta(">\nMK\n")

    def test_empty_input_gives_no_records(self):
        assert parse_fasta("") == []

    def test_no_description(self):
        record = parse_fasta(">just_id\nMK\n")[0]
        assert record.description == ""
        assert record.header == "just_id"


class TestWrite:
    def test_wrapping(self):
        record = SequenceRecord("a", "", "M" * 130)
        buf = io.StringIO()
        write_fasta([record], buf, width=60)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ">a"
        assert [len(l) for l in lines[1:]] == [60, 60, 10]

    def test_invalid_width(self):
        with pytest.raises(ApplicationError):
            write_fasta([], io.StringIO(), width=0)

    def test_file_round_trip(self, tmp_path):
        records = [
            SequenceRecord("x", "desc one", "MKVW"),
            SequenceRecord("y", "", "ACDEFGHIKLMNPQRSTVWY"),
        ]
        path = str(tmp_path / "test.fa")
        write_fasta(records, path)
        back = read_fasta(path)
        assert back == records

    def test_read_missing_file(self):
        with pytest.raises(ApplicationError):
            read_fasta("/no/such.fa")


@given(
    st.lists(
        st.tuples(
            st.integers(0, 10_000),
            st.text(alphabet=AMINO_ACIDS, min_size=1, max_size=200),
        ),
        min_size=0,
        max_size=10,
        unique_by=lambda t: t[0],
    )
)
def test_fasta_round_trip_property(pairs):
    records = [SequenceRecord(f"id{i}", "", seq) for i, seq in pairs]
    buf = io.StringIO()
    write_fasta(records, buf, width=17)
    assert parse_fasta(buf.getvalue()) == records
