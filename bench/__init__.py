"""The repository's one benchmark: seven workloads over the whole stack.

Run it with ``python bench/run.py`` from the repository root; see
``bench/README.md`` for the workloads, the metrics and their bounds.
Nothing here is imported by ``repro`` — layers are measured from
outside, through their public functions and counters.
"""
