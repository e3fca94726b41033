"""End-to-end determinism: parallel sweeps render byte-identical reports.

These are the property tests backing the ``--jobs`` flag's contract —
the rendered experiment artifacts (including the seeded robustness
report, whose fault coins are schedule-sensitive by construction) must
be byte-for-byte identical whatever the worker count.
"""

from __future__ import annotations

import pytest

from repro.collectives.base import make_items
from repro.experiments.fig3_gather import fig3a_gather_root
from repro.experiments.robustness import robustness_report
from repro.experiments.tuning import tuning_improvement
from repro.perf import sweep


def _render(factory, jobs: int) -> str:
    with sweep(jobs=jobs):
        return factory().render()


@pytest.mark.parametrize("jobs", [2, 4])
def test_fig3a_report_is_byte_identical_under_parallelism(jobs):
    def factory():
        return fig3a_gather_root(sizes_kb=[100], processor_counts=[2, 3])

    assert _render(factory, jobs) == _render(factory, 1)


def test_forked_workers_regrow_inherited_item_streams_identically():
    """Workers fork with the parent's resident item streams and must
    serve longer sizes from them exactly as a serial sweep does."""

    def factory():
        return fig3a_gather_root(sizes_kb=[100, 200, 300], processor_counts=[2, 3])

    for pid in range(3):
        make_items(0, pid, 1000)  # short resident streams to inherit
    assert _render(factory, 2) == _render(factory, 1)


@pytest.mark.parametrize("jobs", [4])
def test_seeded_robustness_report_is_byte_identical_under_parallelism(jobs):
    def factory():
        return robustness_report(processor_counts=(2,), seed=3)

    assert _render(factory, jobs) == _render(factory, 1)


def test_tuning_report_is_byte_identical_under_parallelism():
    """The tuner's shortlist validations fan over the sweep's pool."""

    def factory():
        return tuning_improvement(ns=(64, 1_000), families=("fat_tree", "multi_rack"))

    assert _render(factory, 2) == _render(factory, 1)


def test_repeated_serial_renders_are_stable():
    def factory():
        return robustness_report(processor_counts=(2,), seed=3)

    assert _render(factory, 1) == _render(factory, 1)
