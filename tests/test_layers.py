"""Tests for the layer IR: geometry, MAC counts and GEMM lowering."""

from __future__ import annotations

import pytest

from repro.dnn.layers import (
    ActivationLayer,
    ConvLayer,
    FCLayer,
    GemmShape,
    LSTMLayer,
    PoolLayer,
    RNNLayer,
)


class TestGemmShape:
    def test_mac_count(self):
        assert GemmShape(m=4, n=8, repeats=3).macs == 96


class TestConvLayer:
    def test_output_geometry_with_padding(self):
        layer = ConvLayer(name="c", in_channels=3, out_channels=8, in_height=32, in_width=32,
                          kernel=3, stride=1, padding=1)
        assert layer.out_height == 32
        assert layer.out_width == 32

    def test_output_geometry_with_stride(self):
        layer = ConvLayer(name="c", in_channels=3, out_channels=8, in_height=224, in_width=224,
                          kernel=7, stride=2, padding=3)
        assert layer.out_height == 112

    def test_gemm_shape_and_macs(self):
        layer = ConvLayer(name="c", in_channels=16, out_channels=32, in_height=8, in_width=8,
                          kernel=3, stride=1, padding=1)
        shape = layer.gemm_shape()
        assert shape.m == 32
        assert shape.n == 16 * 9
        assert shape.repeats == 64
        assert layer.macs() == 32 * 144 * 64

    def test_grouped_convolution(self):
        layer = ConvLayer(name="c", in_channels=16, out_channels=32, in_height=8, in_width=8,
                          kernel=3, padding=1, groups=4)
        assert layer.weight_count() == 32 * 4 * 9
        assert layer.gemm_shape().n == 4 * 9

    def test_weight_and_activation_footprints(self):
        layer = ConvLayer(name="c", in_channels=4, out_channels=8, in_height=10, in_width=10,
                          kernel=3, padding=1, weight_bits=2, input_bits=4, output_bits=4)
        assert layer.weight_count() == 8 * 4 * 9
        assert layer.weight_bits_total() == layer.weight_count() * 2
        assert layer.input_elements() == 400
        assert layer.output_elements() == 800

    def test_rejects_invalid_geometry(self):
        with pytest.raises(ValueError):
            ConvLayer(name="c", in_channels=3, out_channels=8, in_height=2, in_width=2,
                      kernel=5, stride=1, padding=0)
        with pytest.raises(ValueError):
            ConvLayer(name="c", in_channels=3, out_channels=8, groups=2)
        with pytest.raises(ValueError):
            ConvLayer(name="c", padding=-1)
        with pytest.raises(ValueError):
            ConvLayer(name="c", stride=0)

    def test_rejects_invalid_bitwidths(self):
        with pytest.raises(ValueError):
            ConvLayer(name="c", input_bits=3)
        with pytest.raises(ValueError):
            ConvLayer(name="c", weight_bits=5)

    def test_kind_and_flags(self):
        layer = ConvLayer(name="c")
        assert layer.kind == "conv"
        assert layer.has_gemm()
        assert layer.weight_count() > 0
        assert layer.macs() > 0


class TestFCLayer:
    def test_gemm_shape(self):
        layer = FCLayer(name="fc", in_features=128, out_features=64)
        assert layer.gemm_shape() == GemmShape(m=64, n=128, repeats=1)
        assert layer.macs() == 8192
        assert layer.weight_count() == 8192

    def test_rejects_invalid_features(self):
        with pytest.raises(ValueError):
            FCLayer(name="fc", in_features=0)


class TestPoolLayer:
    def test_geometry_and_comparisons(self):
        layer = PoolLayer(name="p", channels=8, in_height=8, in_width=8, kernel=2, stride=2)
        assert layer.out_height == 4
        assert layer.output_elements() == 8 * 16
        assert layer.comparisons() == 8 * 16 * 3
        assert not layer.has_gemm()
        assert layer.macs() == 0

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            PoolLayer(name="p", mode="median")

    def test_gemm_shape_raises(self):
        with pytest.raises(ValueError):
            PoolLayer(name="p").gemm_shape()


class TestActivationLayer:
    def test_elements_and_flags(self):
        layer = ActivationLayer(name="a", elements=100, function="relu")
        assert layer.input_elements() == 100
        assert layer.output_elements() == 100
        assert not layer.has_gemm()
        assert layer.weight_count() == 0

    def test_rejects_unknown_function(self):
        with pytest.raises(ValueError):
            ActivationLayer(name="a", function="gelu")


class TestRecurrentLayers:
    def test_lstm_has_four_gates(self):
        layer = LSTMLayer(name="l", input_size=64, hidden_size=32, timesteps=5)
        shape = layer.gemm_shape()
        assert shape.m == 4 * 32
        assert shape.n == 96
        assert shape.repeats == 5
        assert layer.weight_count() == 4 * 32 * 96

    def test_rnn_has_single_gate(self):
        layer = RNNLayer(name="r", input_size=64, hidden_size=32, timesteps=3)
        assert layer.gemm_shape().m == 32
        assert layer.weight_count() == 32 * 96

    def test_lstm_macs_are_four_times_rnn(self):
        lstm = LSTMLayer(name="l", input_size=64, hidden_size=64, timesteps=1)
        rnn = RNNLayer(name="r", input_size=64, hidden_size=64, timesteps=1)
        assert lstm.macs() == 4 * rnn.macs()

    def test_recurrent_io_footprints(self):
        layer = RNNLayer(name="r", input_size=10, hidden_size=20, timesteps=7)
        assert layer.input_elements() == 70
        assert layer.output_elements() == 140

    def test_rejects_invalid_sizes(self):
        with pytest.raises(ValueError):
            LSTMLayer(name="l", input_size=0)
        with pytest.raises(ValueError):
            RNNLayer(name="r", timesteps=0)
