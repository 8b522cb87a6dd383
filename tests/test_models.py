"""Tests for the benchmark model zoo (Table II / Figure 1 fidelity)."""

from __future__ import annotations

import pytest

from repro.dnn import models
from repro.harness import paper_data


class TestRegistry:
    def test_eight_benchmarks_in_paper_order(self):
        assert tuple(models.benchmark_names()) == paper_data.BENCHMARK_ORDER

    def test_load_accepts_aliases(self):
        assert models.load("alexnet").name.startswith("AlexNet")
        assert models.load("CIFAR10").name == "Cifar-10"
        assert models.load("lenet5").name == "LeNet-5"

    def test_load_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            models.load("GoogLeNet")

    def test_every_benchmark_builds(self):
        networks = {name: models.load(name) for name in models.benchmark_names()}
        assert set(networks) == set(paper_data.BENCHMARK_ORDER)
        assert all(len(network) > 0 for network in networks.values())

    def test_baseline_variants_differ_only_for_wide_models(self):
        assert models.load_baseline_variant("AlexNet").total_macs() < models.load(
            "AlexNet"
        ).total_macs()
        assert models.load_baseline_variant("ResNet-18").total_macs() < models.load(
            "ResNet-18"
        ).total_macs()
        assert models.load_baseline_variant("Cifar-10").total_macs() == models.load(
            "Cifar-10"
        ).total_macs()


class TestTable2Fidelity:
    @pytest.mark.parametrize("name", paper_data.BENCHMARK_ORDER)
    def test_mac_counts_within_thirty_percent_of_paper(self, name):
        """Table II: multiply-add counts should be close to the published workload sizes."""
        measured = models.load(name).total_macs() / 1e6
        published = paper_data.TABLE2_MACS_MOPS[name]
        assert measured == pytest.approx(published, rel=0.30)

    @pytest.mark.parametrize("name", ["Cifar-10", "LSTM", "LeNet-5", "RNN", "SVHN", "VGG-7"])
    def test_weight_footprints_close_to_paper(self, name):
        measured = models.load(name).total_weight_bytes() / 1e6
        published = paper_data.TABLE2_WEIGHTS_MB[name]
        assert measured == pytest.approx(published, rel=0.60)

    @pytest.mark.parametrize("name", paper_data.BENCHMARK_ORDER)
    def test_macs_dominate_operations(self, name):
        """Figure 1's embedded table: >99% of operations are multiply-adds."""
        assert models.load(name).mac_fraction() > 0.99


class TestFigure1Fidelity:
    @pytest.mark.parametrize("name", paper_data.BENCHMARK_ORDER)
    def test_dominant_bitwidth_matches_figure1(self, name):
        profile = models.load(name).bitwidth_profile()
        dominant = max(profile.mac_fraction, key=profile.mac_fraction.get)
        assert dominant == paper_data.FIG1_DOMINANT_BITWIDTHS[name]

    @pytest.mark.parametrize("name", paper_data.BENCHMARK_ORDER)
    def test_majority_of_macs_at_four_bits_or_fewer(self, name):
        """Figure 1(a): on average 97% of multiply-adds need four or fewer bits."""
        profile = models.load(name).bitwidth_profile()
        assert profile.macs_at_or_below(4) > 0.80

    def test_binary_benchmarks_are_mostly_one_bit(self):
        for name in ("Cifar-10", "SVHN"):
            profile = models.load(name).bitwidth_profile()
            assert profile.mac_fraction.get((1, 1), 0.0) > 0.95

    def test_recurrent_benchmarks_are_four_bit(self):
        for name in ("LSTM", "RNN"):
            profile = models.load(name).bitwidth_profile()
            assert profile.mac_fraction.get((4, 4), 0.0) == pytest.approx(1.0)

    def test_ternary_benchmarks_are_two_bit(self):
        for name in ("LeNet-5", "VGG-7", "ResNet-18"):
            profile = models.load(name).bitwidth_profile()
            assert profile.mac_fraction.get((2, 2), 0.0) > 0.90


class TestModelStructure:
    def test_alexnet_entry_and_exit_layers_are_eight_bit(self):
        network = models.load("AlexNet")
        assert network["conv1"].input_bits == 8
        assert network["conv1"].weight_bits == 8
        assert network["fc8"].weight_bits == 8

    def test_alexnet_wide_doubles_channels(self):
        wide = models.load("AlexNet")
        regular = models.load_baseline_variant("AlexNet")
        assert wide["conv2"].out_channels == 2 * regular["conv2"].out_channels

    def test_resnet_has_downsample_projections(self):
        network = models.load("ResNet-18")
        downsamples = [layer for layer in network if layer.name.endswith("downsample")]
        assert len(downsamples) == 3

    def test_resnet_spatial_geometry_is_consistent(self):
        """Every layer's input height must match the previous stage's output."""
        network = models.load("ResNet-18")
        classifier = network["classifier"]
        final_conv = [layer for layer in network if layer.name.endswith("conv2")][-1]
        assert classifier.in_features == final_conv.out_channels

    def test_lstm_network_has_recurrent_and_projection_layers(self):
        network = models.load("LSTM")
        assert network["lstm1"].gates == 4
        assert network["softmax_projection"].out_features == 10_000

    def test_cifar_and_svhn_share_topology_shape(self):
        cifar = models.load("Cifar-10")
        svhn = models.load("SVHN")
        assert len(cifar) == len(svhn)
        assert cifar.total_macs() > svhn.total_macs()
