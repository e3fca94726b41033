"""Small shared utilities: validation, RNG streams, units, ASCII tables."""

from repro.util.validation import (
    check_finite,
    check_non_negative,
    check_positive,
    check_positive_int,
)
from repro.util.rng import RngStream, derive_seed
from repro.util.units import (
    KIB,
    MIB,
    BYTES_PER_INT,
    kb,
    format_bytes,
    format_time,
)
from repro.util.tables import AsciiTable, format_series
from repro.util.plot import ascii_plot

__all__ = [
    "check_finite",
    "check_non_negative",
    "check_positive",
    "check_positive_int",
    "RngStream",
    "derive_seed",
    "KIB",
    "MIB",
    "BYTES_PER_INT",
    "kb",
    "format_bytes",
    "format_time",
    "AsciiTable",
    "format_series",
    "ascii_plot",
]
