"""Offline benchmark harness for tdp: seeded workloads, end-to-end and per-layer metrics.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root; see ``perfbench/README.md``.
"""
