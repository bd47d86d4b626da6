"""The repo's end-to-end benchmark: five workloads, one harness.

Run ``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S
--trace 0|1`` (the ``BENCHMARK.json`` command) or ``PYTHONPATH=src python
-m benchmarks.e2e`` for every workload at once. ``README.md`` beside this
file has the metric glossary, the reason for each workload and the
layer → end-to-end table.
"""
