"""Tests for the Network container and its aggregate statistics."""

from __future__ import annotations

import pytest

from repro.dnn.layers import ActivationLayer, ConvLayer, FCLayer, PoolLayer
from repro.dnn.network import Network


@pytest.fixture
def tiny_network() -> Network:
    return Network(
        "tiny",
        [
            ConvLayer(name="conv1", in_channels=3, out_channels=8, in_height=8, in_width=8,
                      kernel=3, padding=1, input_bits=8, weight_bits=8),
            PoolLayer(name="pool1", channels=8, in_height=8, in_width=8, kernel=2, stride=2,
                      input_bits=4, weight_bits=2),
            ConvLayer(name="conv2", in_channels=8, out_channels=8, in_height=4, in_width=4,
                      kernel=3, padding=1, input_bits=4, weight_bits=2),
            FCLayer(name="fc", in_features=128, out_features=10, input_bits=4, weight_bits=2),
            ActivationLayer(name="relu", elements=10, input_bits=4, weight_bits=2),
        ],
    )


class TestContainerProtocol:
    def test_len_iteration_and_lookup(self, tiny_network):
        assert len(tiny_network) == 5
        assert [layer.name for layer in tiny_network][:2] == ["conv1", "pool1"]
        assert tiny_network["fc"].name == "fc"
        assert tiny_network["conv2"].name == "conv2"
        with pytest.raises(KeyError):
            tiny_network["missing"]

    def test_duplicate_layer_names_rejected(self):
        net = Network("dup", [FCLayer(name="fc")])
        with pytest.raises(ValueError):
            net.add(FCLayer(name="fc"))

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Network("")

    def test_add_returns_network_for_chaining(self):
        net = Network("chain")
        assert net.add(FCLayer(name="a")) is net


class TestAggregateStatistics:
    def test_total_macs_counts_only_compute_layers(self, tiny_network):
        expected = sum(layer.macs() for layer in tiny_network if layer.has_gemm())
        assert tiny_network.total_macs() == expected

    def test_compute_layers_excludes_pool_and_activation(self, tiny_network):
        assert [layer.name for layer in tiny_network.compute_layers()] == [
            "conv1",
            "conv2",
            "fc",
        ]

    def test_total_operations_include_pooling_and_activation(self, tiny_network):
        assert tiny_network.total_operations() > tiny_network.total_macs()

    def test_mac_fraction_below_one_but_dominant(self, tiny_network):
        fraction = tiny_network.mac_fraction()
        assert 0.9 < fraction < 1.0

    def test_weight_totals(self, tiny_network):
        assert tiny_network.total_weight_count() == sum(
            layer.weight_count() for layer in tiny_network
        )
        assert tiny_network.total_weight_bytes() < tiny_network.total_weight_count() * 16 / 8

    def test_summary_lists_every_layer(self, tiny_network):
        summary = tiny_network.summary()
        for layer in tiny_network:
            assert layer.name in summary


class TestBitwidthProfile:
    def test_mac_fractions_sum_to_one(self, tiny_network):
        profile = tiny_network.bitwidth_profile()
        assert sum(profile.mac_fraction.values()) == pytest.approx(1.0)

    def test_weight_fractions_sum_to_one(self, tiny_network):
        profile = tiny_network.bitwidth_profile()
        assert sum(profile.weight_fraction.values()) == pytest.approx(1.0)

    def test_macs_at_or_below_threshold(self, tiny_network):
        profile = tiny_network.bitwidth_profile()
        assert profile.macs_at_or_below(16) == pytest.approx(1.0)
        assert 0.0 < profile.macs_at_or_below(4) < 1.0

    def test_profile_keys_match_layer_bitwidths(self, tiny_network):
        profile = tiny_network.bitwidth_profile()
        assert set(profile.mac_fraction) == {(8, 8), (4, 2)}
        assert set(profile.weight_fraction) == {8, 2}

    def test_empty_network_profile(self):
        profile = Network("empty", [ActivationLayer(name="a", elements=4)]).bitwidth_profile()
        assert profile.mac_fraction == {}
        assert profile.weight_fraction == {}
