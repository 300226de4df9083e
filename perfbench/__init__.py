"""The repository benchmark: seeded workloads over the public entry points.

Run one workload from the checkout root::

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 24 --trace 0

See ``perfbench/NOTES.md`` for the workloads, the metrics and how to read
the traced output.
"""
