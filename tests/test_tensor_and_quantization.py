"""Tests for quantized tensor specs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dnn.tensor import TensorSpec, random_quantized_tensor


class TestTensorSpec:
    def test_element_count_and_size(self):
        spec = TensorSpec(shape=(4, 8, 2), bits=4)
        assert spec.elements == 64
        assert spec.size_bits == 256
        assert spec.size_bytes == 32.0

    def test_signed_value_range(self):
        assert TensorSpec(shape=(1,), bits=4).value_range == (-8, 7)

    def test_unsigned_value_range(self):
        assert TensorSpec(shape=(1,), bits=4, signed=False).value_range == (0, 15)

    def test_one_bit_range(self):
        assert TensorSpec(shape=(1,), bits=1).value_range == (-1, 0)
        assert TensorSpec(shape=(1,), bits=1, signed=False).value_range == (0, 1)

    @pytest.mark.parametrize("shape", [(), (0,), (3, 0)])
    def test_rejects_bad_shapes(self, shape):
        with pytest.raises(ValueError):
            TensorSpec(shape=shape, bits=8)

    def test_rejects_unsupported_bits(self):
        with pytest.raises(ValueError):
            TensorSpec(shape=(2,), bits=3)

    def test_random_tensor_respects_range_and_shape(self, rng):
        spec = TensorSpec(shape=(10, 10), bits=2)
        values = random_quantized_tensor(spec, rng)
        assert values.shape == (10, 10)
        assert values.min() >= -2
        assert values.max() <= 1
        assert values.dtype == np.int64

    def test_random_tensor_deterministic_default(self):
        spec = TensorSpec(shape=(5,), bits=8)
        np.testing.assert_array_equal(
            random_quantized_tensor(spec), random_quantized_tensor(spec)
        )
