"""Unit tests for the BLAST search driver."""

import pytest

from repro.apps.blast.fasta import SequenceRecord
from repro.apps.blast.generate import synthetic_database, synthetic_queries
from repro.apps.blast.search import (
    BlastDatabase,
    BlastParams,
    blast_search,
)
from repro.errors import ApplicationError


@pytest.fixture(scope="module")
def database():
    return BlastDatabase(synthetic_database(15, mean_length=120, seed=2))


class TestDatabase:
    def test_empty_database_rejected(self):
        with pytest.raises(ApplicationError):
            BlastDatabase([])

    def test_residue_count(self, database):
        assert database.total_residues == sum(len(r) for r in database.records)
        assert len(database) == 15


class TestSearch:
    def test_exact_subsequence_is_top_hit(self, database):
        source = database.records[4]
        fragment = source.residues[10:70]
        query = SequenceRecord("frag", "", fragment)
        hits = blast_search(query, database)
        assert hits
        assert hits[0].subject_id == source.seq_id
        assert hits[0].e_value < 1e-10

    def test_hits_sorted_by_evalue(self, database):
        query = SequenceRecord("q", "", database.records[0].residues[:80])
        hits = blast_search(query, database)
        e_values = [h.e_value for h in hits]
        assert e_values == sorted(e_values)

    def test_query_shorter_than_k_no_hits(self, database):
        assert blast_search(SequenceRecord("tiny", "", "MK"), database) == []

    def test_bit_scores_monotone_in_score(self, database):
        query = SequenceRecord("q", "", database.records[1].residues[:90])
        hits = blast_search(query, database)
        for a, b in zip(hits, hits[1:]):
            if a.score > b.score:
                assert a.bit_score > b.bit_score

    def test_max_hits_respected(self, database):
        params = BlastParams(max_hits=2, e_value_cutoff=1e6)
        query = SequenceRecord("q", "", database.records[0].residues[:60])
        hits = blast_search(query, database, params)
        assert len(hits) <= 2

    def test_evalue_cutoff_filters(self, database):
        strict = BlastParams(e_value_cutoff=1e-20)
        loose = BlastParams(e_value_cutoff=10.0)
        query = SequenceRecord("q", "", database.records[2].residues[:70])
        assert len(blast_search(query, database, strict)) <= len(
            blast_search(query, database, loose)
        )

    def test_one_hit_per_subject(self, database):
        query = SequenceRecord("q", "", database.records[3].residues)
        hits = blast_search(query, database)
        subjects = [h.subject_id for h in hits]
        assert len(subjects) == len(set(subjects))


class TestGenerators:
    def test_database_deterministic(self):
        a = synthetic_database(5, seed=9)
        b = synthetic_database(5, seed=9)
        assert [r.residues for r in a] == [r.residues for r in b]

    def test_queries_mix_homologs_and_decoys(self):
        db = synthetic_database(10, seed=0)
        queries = synthetic_queries(db, 40, homolog_fraction=0.5, seed=1)
        kinds = {q.description.split()[-1] for q in queries}
        assert kinds == {"homolog", "decoy"}

    def test_homolog_fraction_bounds(self):
        db = synthetic_database(3, seed=0)
        with pytest.raises(ApplicationError):
            synthetic_queries(db, 5, homolog_fraction=1.5)

    def test_invalid_database_size(self):
        with pytest.raises(ApplicationError):
            synthetic_database(0)

    def test_homologs_actually_hit(self):
        db_records = synthetic_database(8, mean_length=150, seed=4)
        database = BlastDatabase(db_records)
        queries = synthetic_queries(db_records, 6, homolog_fraction=1.0, seed=5)
        hit_rates = [
            1 if blast_search(q, database) else 0 for q in queries
        ]
        assert sum(hit_rates) >= len(queries) // 2  # most homologs found
