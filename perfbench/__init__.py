"""Host-performance benchmark of the arbitration simulator.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md`` for the workloads, the metrics and how the
traced run attributes time to layers.
"""
