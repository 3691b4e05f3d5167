"""Validation helper behaviour."""

import math

import pytest

from repro.utils.errors import ConfigurationError
from repro.utils.validation import (
    check_positive,
    check_positive_int,
    check_probability,
    is_power_of_two,
    prod,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(3.5, "x") == 3.5

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="x must be"):
            check_positive(0.0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive(-1.0, "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_positive(math.nan, "x")

    def test_rejects_infinity(self):
        with pytest.raises(ValueError):
            check_positive(math.inf, "x")

    def test_raises_the_library_error(self):
        with pytest.raises(ConfigurationError, match="x must be positive"):
            check_positive(-math.inf, "x")


class TestCheckPositiveInt:
    def test_accepts_positive_int(self):
        assert check_positive_int(7, "n") == 7

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            check_positive_int(0, "n")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive_int(-3, "n")

    def test_rejects_float(self):
        with pytest.raises(ValueError):
            check_positive_int(2.0, "n")  # type: ignore[arg-type]

    def test_rejects_bool(self):
        with pytest.raises(ValueError):
            check_positive_int(True, "n")


class TestCheckProbability:
    def test_accepts_bounds(self):
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0

    def test_accepts_interior(self):
        assert check_probability(0.75, "p") == 0.75

    def test_rejects_above_one(self):
        with pytest.raises(ValueError):
            check_probability(1.01, "p")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_probability(-0.01, "p")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_probability(math.nan, "p")


class TestIsPowerOfTwo:
    @pytest.mark.parametrize("value", [1, 2, 4, 8, 1024, 2**20])
    def test_powers(self, value):
        assert is_power_of_two(value)

    @pytest.mark.parametrize("value", [0, 3, 6, 12, 1000, -4])
    def test_non_powers(self, value):
        assert not is_power_of_two(value)


class TestProd:
    def test_empty_is_one(self):
        assert prod([]) == 1

    def test_product(self):
        assert prod([4, 8, 4, 32]) == 4096

    def test_single(self):
        assert prod([17]) == 17
