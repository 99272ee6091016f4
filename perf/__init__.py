"""The repository's benchmark: four workloads, end-to-end and per-layer.

Run it from the repository root with ``python3 -m perf``; see
``perf/README.md`` and ``python3 -m perf --help``.
"""
