"""The repository's benchmark: four workloads driven through the public API.

Run it from the repository root::

    python3 perfbench/run.py --workload consolidate --seed 1 --seconds 30 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and the
layer-to-metric predictions.
"""
