"""Unit tests for repro.util.validation."""

import pytest

from repro.errors import ValidationError
from repro.util.validation import (
    check_finite,
    check_non_negative,
    check_positive,
    check_positive_int,
)


class TestCheckFinite:
    def test_returns_float(self):
        assert check_finite("x", 3) == 3.0
        assert isinstance(check_finite("x", 3), float)

    def test_accepts_negative(self):
        assert check_finite("x", -2.5) == -2.5

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            check_finite("x", bad)

    def test_rejects_non_numeric(self):
        with pytest.raises(ValidationError, match="real number"):
            check_finite("x", "hello")

    def test_error_names_parameter(self):
        with pytest.raises(ValidationError, match="myparam"):
            check_finite("myparam", float("nan"))


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 0.001) == 0.001

    @pytest.mark.parametrize("bad", [0, -1, -0.0001])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValidationError, match="> 0"):
            check_positive("x", bad)


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative("x", 0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match=">= 0"):
            check_non_negative("x", -1e-12)


class TestCheckPositiveInt:
    def test_accepts_int(self):
        assert check_positive_int("x", 5) == 5

    def test_accepts_integral_float(self):
        assert check_positive_int("x", 4.0) == 4

    def test_rejects_fractional_float(self):
        with pytest.raises(ValidationError, match="integer"):
            check_positive_int("x", 4.5)

    def test_rejects_zero(self):
        with pytest.raises(ValidationError, match=">= 1"):
            check_positive_int("x", 0)

    def test_rejects_bool(self):
        with pytest.raises(ValidationError, match="integer"):
            check_positive_int("x", True)

