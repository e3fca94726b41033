"""Heterogeneity-aware workload partitioning helpers.

The paper's design rule (Section 4.1): "faster machines should receive
more data items than slower machines".  These helpers turn speed
information into per-processor item counts.
"""

from __future__ import annotations

import typing as t

from repro.bytemark import partition_items
from repro.errors import PartitionError
from repro.util.validation import check_positive_int

__all__ = ["equal_partition", "proportional_partition"]


def equal_partition(n: int, p: int) -> list[int]:
    """The homogeneous baseline: ``n`` items split as evenly as possible.

    Processor ``j`` receives ``n // p`` items plus one of the first
    ``n % p`` leftovers, so counts differ by at most one and sum to
    ``n`` exactly.
    """
    p = check_positive_int("p", p)
    if n < 0:
        raise PartitionError(f"n must be >= 0, got {n}")
    base, extra = divmod(n, p)
    return [base + (1 if j < extra else 0) for j in range(p)]


def proportional_partition(n: int, fractions: t.Sequence[float]) -> list[int]:
    """Balanced workloads: counts proportional to per-processor fractions.

    ``fractions[j]`` is the model's ``c_{0,j}``; counts conserve ``n``
    exactly (largest-remainder rounding) and every count is within one
    item of ``c_j · n``.
    """
    named = {str(j): float(f) for j, f in enumerate(fractions)}
    part = partition_items(n, named)
    return [part[str(j)] for j in range(len(fractions))]
