"""Tests for the systolic array's functional GEMMs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.systolic import SystolicArray


@pytest.fixture
def array(small_config) -> SystolicArray:
    return SystolicArray(small_config)


class TestConfigurationAndDimensions:
    def test_requires_configuration(self, array):
        with pytest.raises(RuntimeError):
            _ = array.dimensions

    def test_logical_dimensions_follow_fusion_config(self, array):
        dims = array.configure(2, 2)
        assert dims.fused_pes_per_unit == 16
        assert dims.logical_rows == array.config.rows * 16
        assert dims.logical_columns == array.config.columns

    def test_macs_per_cycle(self, array):
        dims = array.configure(4, 4)
        assert dims.macs_per_cycle == array.config.rows * array.config.columns * 4

    def test_macs_per_cycle_with_temporal_passes(self, array):
        dims = array.configure(16, 16)
        assert dims.macs_per_cycle == array.config.rows * array.config.columns / 4


class TestFunctionalExecution:
    def test_matvec_matches_numpy(self, array, rng):
        array.configure(8, 8)
        weights = rng.integers(-128, 128, size=(6, 17))
        inputs = rng.integers(-128, 128, size=17)
        np.testing.assert_array_equal(array.matvec(weights, inputs), weights @ inputs)

    def test_matvec_low_bitwidth(self, array, rng):
        array.configure(2, 2)
        weights = rng.integers(-2, 2, size=(5, 9))
        inputs = rng.integers(-2, 2, size=9)
        np.testing.assert_array_equal(array.matvec(weights, inputs), weights @ inputs)

    def test_matvec_mixed_bitwidth(self, array, rng):
        array.configure(8, 2)
        weights = rng.integers(-2, 2, size=(4, 11))
        inputs = rng.integers(-128, 128, size=11)
        np.testing.assert_array_equal(array.matvec(weights, inputs), weights @ inputs)

    def test_matmul_matches_numpy(self, array, rng):
        array.configure(4, 4)
        weights = rng.integers(-8, 8, size=(7, 13))
        inputs = rng.integers(-8, 8, size=(13, 3))
        np.testing.assert_array_equal(array.matmul(weights, inputs), weights @ inputs)

    def test_matvec_validates_shapes(self, array):
        array.configure(4, 4)
        with pytest.raises(ValueError):
            array.matvec(np.zeros((3, 4)), np.zeros(5))
        with pytest.raises(ValueError):
            array.matvec(np.zeros(4), np.zeros(4))
        with pytest.raises(ValueError):
            array.matvec(np.zeros((3, 4)), np.zeros((4, 2)))

    def test_matmul_validates_shapes(self, array):
        array.configure(4, 4)
        with pytest.raises(ValueError):
            array.matmul(np.zeros((3, 4)), np.zeros(4))
