"""A small discrete-event simulation (DES) engine.

This is the bottom-most substrate of the reproduction: the PVM-like
runtime (:mod:`repro.pvm`) and the HBSP programming library
(:mod:`repro.hbsplib`) both execute on virtual time provided by this
engine.

The design follows the classic event-queue / process-interaction style
(compare SimPy): *processes* are Python generators that ``yield`` events
they want to wait on; *resources* model contended capacity (CPUs, NIC
ports); *stores* model mailboxes; *barriers* model cost-charging global
synchronisations.

Everything is deterministic: ties in the event queue are broken by a
monotonically increasing sequence number, never by object identity.
"""

from repro.sim.engine import Engine
from repro.sim.events import Event, Timeout, AllOf, AnyOf, UNSET
from repro.sim.process import Process, ProcessKilled
from repro.sim.resources import Resource, Store
from repro.sim.barrier import Barrier

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "UNSET",
    "Process",
    "ProcessKilled",
    "Resource",
    "Store",
    "Barrier",
]
