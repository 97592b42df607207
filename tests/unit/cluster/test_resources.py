"""Unit tests for resource-vector checks."""

import pytest

from repro.cluster import fits
from repro.cluster.resources import validate_demands
from repro.errors import CapacityError


class TestFits:
    def test_exact_fit(self):
        assert fits((3, 4), (3, 4))

    def test_strict_fit(self):
        assert fits((1, 2), (3, 4))

    def test_one_dimension_over(self):
        assert not fits((4, 1), (3, 4))

    def test_zero_demand_always_fits(self):
        assert fits((0, 0), (0, 0))


class TestValidateDemands:
    def test_accepts_fitting(self):
        validate_demands((5, 5), (10, 10))

    def test_rejects_oversized(self):
        with pytest.raises(CapacityError):
            validate_demands((11, 5), (10, 10))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(CapacityError):
            validate_demands((5,), (10, 10))

    def test_error_names_the_resource(self):
        with pytest.raises(CapacityError, match="resource 1"):
            validate_demands((5, 11), (10, 10), label="t9")
