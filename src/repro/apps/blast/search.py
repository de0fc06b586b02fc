"""The BLAST search driver: seeds → extensions → ranked hits.

:class:`BlastDatabase` packages the indexed subject sequences (built
once, reused by every query — this object is the "large database that
needs to be available on every node", §IV-B). :func:`blast_search`
runs one query through the full pipeline and reports
Karlin–Altschul-style E-values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


from repro.apps.blast.extend import AlignmentResult, banded_gapped_extend, ungapped_extend
from repro.apps.blast.fasta import SequenceRecord
from repro.apps.blast.scoring import encode_sequence
from repro.apps.blast.seed import KmerIndex, find_seed_hits
from repro.errors import ApplicationError


@dataclass(frozen=True)
class BlastParams:
    """Search parameters (NCBI protein defaults)."""

    k: int = 3
    seed_threshold: int = 11
    x_drop: int = 7
    #: Ungapped score that triggers the gapped pass.
    gapped_trigger: int = 22
    gap_open: int = 11
    gap_extend: int = 1
    band: int = 12
    max_hits: int = 25
    e_value_cutoff: float = 10.0
    #: Karlin–Altschul parameters for BLOSUM62 with 11/1 gaps.
    ka_lambda: float = 0.267
    ka_kappa: float = 0.041
    #: Two-hit heuristic (gapped-BLAST refinement): only extend a
    #: diagonal with two non-overlapping word hits within
    #: ``two_hit_window`` residues — prunes most decoy extensions.
    two_hit: bool = False
    two_hit_window: int = 40


@dataclass(frozen=True)
class BlastHit:
    """One reported alignment against a database sequence."""

    query_id: str
    subject_id: str
    score: int
    e_value: float
    bit_score: float
    alignment: AlignmentResult


class BlastDatabase:
    """Indexed subject sequences."""

    def __init__(self, records: Sequence[SequenceRecord], params: BlastParams | None = None):
        if not records:
            raise ApplicationError("empty BLAST database")
        self.params = params or BlastParams()
        self.records = list(records)
        self.encoded = [encode_sequence(r.residues) for r in self.records]
        self.index = KmerIndex(self.params.k)
        for enc in self.encoded:
            self.index.add_sequence(enc)
        self.total_residues = self.index.total_residues

    def __len__(self) -> int:
        return len(self.records)


def _e_value(score: int, query_len: int, db_residues: int, params: BlastParams) -> float:
    """Karlin–Altschul E = K·m·n·e^(−λS)."""
    return params.ka_kappa * query_len * db_residues * math.exp(-params.ka_lambda * score)


def _bit_score(score: int, params: BlastParams) -> float:
    return (params.ka_lambda * score - math.log(params.ka_kappa)) / math.log(2.0)


def _two_hit_seeds(
    seeds: list[tuple[int, int, int]],
    k: int,
    window: int,
) -> list[tuple[int, int, int]]:
    """Keep one seed per diagonal that has a qualifying second hit.

    Gapped-BLAST's refinement: an extension is only attempted where two
    non-overlapping word hits fall on the same (subject, diagonal)
    within ``window`` residues. Returns the *second* hit of each
    qualifying pair (extension proceeds from there, as in NCBI BLAST).
    """
    by_diagonal: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for q_off, subject_id, s_off in seeds:
        by_diagonal.setdefault((subject_id, s_off - q_off), []).append((q_off, s_off))
    qualified: list[tuple[int, int, int]] = []
    for (subject_id, _diag), positions in by_diagonal.items():
        positions.sort()
        anchor: int | None = None
        for q_off, s_off in positions:
            if anchor is None:
                anchor = q_off
                continue
            gap = q_off - anchor
            if gap < k:
                # Overlapping hit: keep the earlier anchor (NCBI
                # semantics) so a dense identity run still pairs.
                continue
            if gap <= window:
                qualified.append((q_off, subject_id, s_off))
                break  # one extension per diagonal
            # Too far apart: this hit becomes the new anchor.
            anchor = q_off
    return qualified


def blast_search(
    query: SequenceRecord,
    database: BlastDatabase,
    params: BlastParams | None = None,
    *,
    stats: dict | None = None,
) -> list[BlastHit]:
    """Search one query against the database; hits sorted by E-value.

    Per subject sequence only the best-scoring alignment is reported
    (single-HSP policy — keeps the driver simple while preserving the
    ranking behaviour the workload depends on). Pass a dict as
    ``stats`` to receive counters (seeds, extensions, gapped passes).
    """
    params = params or database.params
    encoded = encode_sequence(query.residues)
    if encoded.size < params.k:
        return []
    seeds = find_seed_hits(encoded, database.index, params.seed_threshold)
    if stats is not None:
        stats["seeds"] = len(seeds)
    if params.two_hit:
        seeds = _two_hit_seeds(seeds, params.k, params.two_hit_window)
    # Deduplicate seeds by (subject, diagonal): one extension per
    # diagonal region is the classic optimization.
    best_per_subject: dict[int, AlignmentResult] = {}
    seen_diagonals: set[tuple[int, int]] = set()
    extensions = 0
    gapped_passes = 0
    for q_off, subject_id, s_off in seeds:
        diagonal = (subject_id, s_off - q_off)
        if diagonal in seen_diagonals:
            continue
        seen_diagonals.add(diagonal)
        extensions += 1
        subject = database.encoded[subject_id]
        hsp = ungapped_extend(
            encoded, subject, q_off, s_off, params.k, x_drop=params.x_drop
        )
        if hsp.score >= params.gapped_trigger:
            gapped_passes += 1
            hsp = banded_gapped_extend(
                encoded,
                subject,
                hsp,
                band=params.band,
                gap_open=params.gap_open,
                gap_extend=params.gap_extend,
            )
        current = best_per_subject.get(subject_id)
        if current is None or hsp.score > current.score:
            best_per_subject[subject_id] = hsp
    if stats is not None:
        stats["extensions"] = extensions
        stats["gapped_passes"] = gapped_passes
    hits: list[BlastHit] = []
    for subject_id, alignment in best_per_subject.items():
        e_value = _e_value(alignment.score, encoded.size, database.total_residues, params)
        if e_value > params.e_value_cutoff:
            continue
        hits.append(
            BlastHit(
                query_id=query.seq_id,
                subject_id=database.records[subject_id].seq_id,
                score=alignment.score,
                e_value=e_value,
                bit_score=_bit_score(alignment.score, params),
                alignment=alignment,
            )
        )
    hits.sort(key=lambda h: (h.e_value, -h.score))
    return hits[: params.max_hits]
