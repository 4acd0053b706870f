"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DataError, ShapeError
from repro.utils.validation import (
    check_array,
    check_in_range,
    check_indices,
    check_positive,
    check_positive_int,
    check_probability_vector,
)


class TestCheckArray:
    def test_coerces_lists(self):
        out = check_array([1, 2, 3], "x")
        assert isinstance(out, np.ndarray)
        assert out.dtype == float

    def test_ndim_single(self):
        with pytest.raises(ShapeError, match="ndim"):
            check_array([[1.0]], "x", ndim=1)

    def test_ndim_tuple(self):
        check_array([[1.0]], "x", ndim=(1, 2))
        check_array([1.0], "x", ndim=(1, 2))

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="empty"):
            check_array([], "x")

    def test_empty_allowed(self):
        out = check_array([], "x", allow_empty=True)
        assert out.size == 0

    def test_nan_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            check_array([1.0, np.nan], "x")

    def test_inf_rejected(self):
        with pytest.raises(DataError):
            check_array([np.inf], "x")


class TestScalars:
    def test_positive_strict(self):
        assert check_positive(1.0, "x") == 1.0
        with pytest.raises(ConfigurationError):
            check_positive(0.0, "x")

    def test_positive_rejects_non_finite(self):
        for value in (np.inf, np.nan):
            with pytest.raises(ConfigurationError, match="finite"):
                check_positive(value, "x")

    def test_positive_int(self):
        assert check_positive_int(np.int64(3), "n") == 3
        for bad in (0, -1, 2.5, np.inf, True, "3"):
            with pytest.raises(ConfigurationError, match="n must be an int >= 1"):
                check_positive_int(bad, "n")

    def test_positive_int_minimum(self):
        assert check_positive_int(0, "n", minimum=0) == 0
        for bad in (-1, 2.5, False, True):
            with pytest.raises(ConfigurationError, match="n must be an int >= 0"):
                check_positive_int(bad, "n", minimum=0)

    def test_indices(self):
        out = check_indices((3, 0), "idx", 4)
        np.testing.assert_array_equal(out, [3, 0])
        for bad in ([4], [-1], [], [[0]], [1.0], [True], 2):
            with pytest.raises(ConfigurationError, match="idx"):
                check_indices(bad, "idx", 4)

    def test_in_range_inclusive(self):
        assert check_in_range(1.0, "x", 0, 1) == 1.0
        with pytest.raises(ConfigurationError):
            check_in_range(1.5, "x", 0, 1)

    def test_in_range_exclusive(self):
        with pytest.raises(ConfigurationError):
            check_in_range(0.0, "x", 0, 1, inclusive=False)


class TestProbabilityVector:
    def test_valid(self):
        out = check_probability_vector([0.25, 0.75], "p")
        np.testing.assert_allclose(out.sum(), 1.0)

    def test_rejects_bad_sum(self):
        with pytest.raises(DataError, match="sum"):
            check_probability_vector([0.5, 0.6], "p")

    def test_rejects_negative(self):
        with pytest.raises(DataError):
            check_probability_vector([-0.1, 1.1], "p")

    def test_clips_tiny_noise(self):
        out = check_probability_vector([1.0 + 1e-12, -1e-12], "p")
        assert np.all(out >= 0)
