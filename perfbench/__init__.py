"""End-to-end service benchmark with a traced per-layer ledger.

Run ``python3 perfbench/run.py --workload ingest --seed 1 --seconds 10
--trace 0`` from the repository root; see :mod:`perfbench.run`.
"""
