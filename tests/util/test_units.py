"""Unit tests for repro.util.units."""

import pytest

from repro.util.units import (
    BYTES_PER_INT,
    KIB,
    MIB,
    format_bytes,
    format_time,
    kb,
)


class TestConstants:
    def test_kib(self):
        assert KIB == 1024

    def test_mib(self):
        assert MIB == 1024 * 1024

    def test_items_are_c_ints(self):
        assert BYTES_PER_INT == 4


class TestConversions:
    def test_kb(self):
        assert kb(100) == 102400

    def test_kb_fractional(self):
        assert kb(0.5) == 512


class TestFormatting:
    @pytest.mark.parametrize(
        "nbytes,expected",
        [(512, "512 B"), (102400, "100.0 KB"), (1024 * 1024 * 3 // 2, "1.5 MB")],
    )
    def test_format_bytes(self, nbytes, expected):
        assert format_bytes(nbytes) == expected

    @pytest.mark.parametrize(
        "seconds,expected",
        [
            (0, "0 s"),
            (5e-6, "5.0 us"),
            (2.5e-3, "2.50 ms"),
            (1.5, "1.500 s"),
        ],
    )
    def test_format_time(self, seconds, expected):
        assert format_time(seconds) == expected
