"""End-to-end and per-layer benchmark of the COLE reproduction.

``python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1``
runs one workload and prints every metric by name, then one JSON line.
See ``perfbench/NOTES.md`` for the workloads, the metrics and the noise
record.
"""
