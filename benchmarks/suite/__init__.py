"""One benchmark for the FlexiCores reproduction.

Five workloads (``report``, ``gate_yield``, ``dse_search``, ``conform``,
``service``) measured end to end, plus a traced run that attributes
their time to the program's layers.  ``BENCHMARK.json`` at the repo
root declares the workloads and every metric; ``README.md`` beside
this file explains them.  Run it with::

    python -m benchmarks.suite [--workload NAME ...] [--seed S] [--sets N]

Importing this package imports nothing else: the harness, the
workloads and the tracer load the program under test only when a run
starts.
"""
