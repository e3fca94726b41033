"""Units used throughout the reproduction.

The paper measures problem sizes in KBytes of uniformly distributed
integers (Section 5.1) and we follow the same convention: an *item* is a
4-byte integer, and problem sizes are given in multiples of 1024 bytes.

Simulated time is kept in abstract *seconds* of virtual time; all rates in
:mod:`repro.cluster` are expressed against this unit.
"""

from __future__ import annotations

__all__ = [
    "KIB",
    "MIB",
    "BYTES_PER_INT",
    "kb",
    "format_bytes",
    "format_time",
]

#: Bytes per KByte (binary convention, as used by 1990s benchmark reports).
KIB = 1024

#: Bytes per MByte.
MIB = 1024 * 1024

#: The paper's data items are C ``int``s.
BYTES_PER_INT = 4


def kb(kbytes: float) -> int:
    """Convert KBytes to a whole number of bytes."""
    return int(round(kbytes * KIB))


def format_bytes(nbytes: float) -> str:
    """Human-readable byte count (``'100.0 KB'``, ``'1.5 MB'``)."""
    nbytes = float(nbytes)
    if nbytes >= MIB:
        return f"{nbytes / MIB:.1f} MB"
    if nbytes >= KIB:
        return f"{nbytes / KIB:.1f} KB"
    return f"{nbytes:.0f} B"


def format_time(seconds: float) -> str:
    """Human-readable virtual-time duration."""
    seconds = float(seconds)
    if seconds == 0:
        return "0 s"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds:.3f} s"
