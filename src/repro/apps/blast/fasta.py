"""FASTA parsing and writing.

Plain-text FASTA is the interchange format both for the synthetic
database and for the query files the workers receive; parsing is
strict about structure but tolerant of wrapping and blank lines.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from typing import Iterable, TextIO

from repro.errors import ApplicationError


@dataclass(frozen=True)
class SequenceRecord:
    """One FASTA record: ``>id description`` + residues."""

    seq_id: str
    description: str
    residues: str

    def __len__(self) -> int:
        return len(self.residues)

    @property
    def header(self) -> str:
        if self.description:
            return f"{self.seq_id} {self.description}"
        return self.seq_id


def parse_fasta(text: str | TextIO) -> list[SequenceRecord]:
    """Parse FASTA text into records.

    Raises :class:`ApplicationError` on residues before the first
    header or on records with empty sequences.
    """
    stream = io.StringIO(text) if isinstance(text, str) else text
    records: list[SequenceRecord] = []
    seq_id = ""
    description = ""
    chunks: list[str] = []
    started = False

    def flush() -> None:
        if not started:
            return
        residues = "".join(chunks).upper()
        if not residues:
            raise ApplicationError(f"FASTA record {seq_id!r} has no residues")
        records.append(SequenceRecord(seq_id, description, residues))

    for raw in stream:
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            flush()
            header = line[1:].strip()
            if not header:
                raise ApplicationError("FASTA header with no identifier")
            parts = header.split(None, 1)
            seq_id = parts[0]
            description = parts[1] if len(parts) > 1 else ""
            chunks = []
            started = True
        else:
            if not started:
                raise ApplicationError("FASTA residues before any header line")
            chunks.append(line)
    flush()
    return records


def read_fasta(path: str) -> list[SequenceRecord]:
    """Parse a FASTA file from disk."""
    if not os.path.isfile(path):
        raise ApplicationError(f"FASTA file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        return parse_fasta(fh)


def write_fasta(
    records: Iterable[SequenceRecord],
    path_or_stream: str | TextIO,
    *,
    width: int = 60,
) -> None:
    """Write records as wrapped FASTA."""
    if width < 1:
        raise ApplicationError("FASTA wrap width must be >= 1")

    def emit(stream: TextIO) -> None:
        for record in records:
            stream.write(f">{record.header}\n")
            residues = record.residues
            for start in range(0, len(residues), width):
                stream.write(residues[start : start + width] + "\n")

    if isinstance(path_or_stream, str):
        with open(path_or_stream, "w", encoding="utf-8") as fh:
            emit(fh)
    else:
        emit(path_or_stream)
