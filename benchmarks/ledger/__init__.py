"""A layered performance ledger for the four planes of FRIEDA-repro.

Eight named workloads drive the simulated, threaded, TCP and service
planes through their public entry points, check every output, and
report end-to-end numbers (untraced runs) beside per-layer numbers (one
traced run).  See ``README.md`` here and ``BENCHMARK.json`` at the repo
root; ``python -m benchmarks.ledger --seed 0`` runs the lot.
"""
