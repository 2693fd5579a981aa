"""Layer-ledger benchmark for the ADSALA reproduction.

Run it from the repository root::

    python3 perfbench/run.py --workload paper_calls --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ledger.  The last line of standard output is one JSON object.  See
``perfbench/README.md`` for the workloads, the metrics and how they are
kept steady.
"""
