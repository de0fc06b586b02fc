#!/usr/bin/env python3
"""The paper's BLAST workload, for real: sequence search under FRIEDA.

Builds a synthetic protein database (the common data every worker
needs) and a set of query files, then runs mini-BLAST searches as
FRIEDA tasks with the ``single`` grouping — one query file per task —
under real-time partitioning. Per-task cost varies with match
structure, which is why the pull-based mode load-balances here.

Run:  python examples/blast_pipeline.py [num_query_files]
"""

import os
import sys
import tempfile

from repro import Frieda, PartitionScheme, StrategyKind
from repro.apps.blast import (
    BlastDatabase,
    BlastHit,
    blast_search,
    read_fasta,
    synthetic_database,
    synthetic_queries,
    tabular_report,
    trace_hit,
    write_fasta,
)

DATABASE: BlastDatabase | None = None
query_hits: dict[str, list[BlastHit]] = {}


def search_query_file(path: str) -> None:
    """The task program: run every query in the file against the DB."""
    for query in read_fasta(path):
        query_hits[query.seq_id] = blast_search(query, DATABASE)


def main() -> None:
    global DATABASE
    num_files = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    queries_per_file = 3

    print("building synthetic protein database (the common data)...")
    db_records = synthetic_database(40, mean_length=240, seed=5)
    DATABASE = BlastDatabase(db_records)
    queries = synthetic_queries(db_records, num_files * queries_per_file, seed=9)

    with tempfile.TemporaryDirectory() as datadir:
        paths = []
        for i in range(num_files):
            path = os.path.join(datadir, f"queries{i:03d}.fa")
            write_fasta(queries[i * queries_per_file : (i + 1) * queries_per_file], path)
            paths.append(path)

        frieda = Frieda.local(num_workers=4)
        outcome = frieda.run(
            paths,
            command=search_query_file,
            strategy=StrategyKind.REAL_TIME,
            grouping=PartitionScheme.SINGLE,
        )
        print(
            f"searched {len(query_hits)} queries in {outcome.tasks_completed} tasks, "
            f"makespan {outcome.makespan:.2f}s"
        )
        with_hits = {q: len(hits) for q, hits in query_hits.items() if hits}
        print(f"{len(with_hits)}/{len(query_hits)} queries matched the database:")
        for q in sorted(with_hits):
            print(f"  {q}: {with_hits[q]} hits")
        assert outcome.all_tasks_ok

        # Inspect the single best alignment across all queries, BLAST-style,
        # from the hits the tasks already found.
        best = None
        for query in queries:
            hits = query_hits[query.seq_id]
            if hits and (best is None or hits[0].bit_score > best[1].bit_score):
                best = (query, hits[0])
        if best is not None:
            query, hit = best
            print(f"\nbest alignment ({query.seq_id} vs {hit.subject_id}):")
            print(tabular_report(query, [hit], DATABASE, header=True).rstrip())
            print(trace_hit(query, hit, DATABASE).pretty(width=60))


if __name__ == "__main__":
    main()
