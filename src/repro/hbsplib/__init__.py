"""HBSPlib: a BSPlib-style programming library for HBSP^k machines.

The paper implements its collectives with "the HBSP Programming Library
(HBSPlib), which incorporates many of the functions (message passing,
synchronization, enquiry) contained in BSPlib, ... written on top of
PVM, ... [with] primitives that allow the programmer to take advantage
of the heterogeneity of the underlying system" (Section 5.1).

This package is that library on the simulated substrate:

* :class:`HbspRuntime` — runs a superstep program once per level-0
  machine, charging the model's ``L`` costs at every (cluster-scoped)
  barrier;
* :class:`HbspContext` — the per-process API: buffered ``send``,
  ``sync`` (BSP message-availability semantics), ``messages``,
  ``compute``, enquiry (pid / nprocs / time), and heterogeneity
  primitives (speed ranks, fastest/slowest pid, proportional
  workload partitions, cluster/coordinator navigation);
* :mod:`repro.hbsplib.hetero` — standalone workload-partition helpers.
"""

from repro.hbsplib.context import HbspContext
from repro.hbsplib.runtime import HbspResult, HbspRuntime
from repro.hbsplib.hetero import equal_partition, proportional_partition

__all__ = [
    "HbspContext",
    "HbspResult",
    "HbspRuntime",
    "equal_partition",
    "proportional_partition",
]
