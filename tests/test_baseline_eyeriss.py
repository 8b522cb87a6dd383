"""Tests for the Eyeriss baseline platform."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.baselines.platform import EYERISS, PlatformModel
from repro.core.accelerator import BitFusionAccelerator
from repro.core.config import BitFusionConfig
from repro.dnn import models
from repro.dnn.layers import FCLayer
from repro.dnn.network import Network


@pytest.fixture
def eyeriss() -> PlatformModel:
    return PlatformModel(EYERISS)


class TestEyerissSpec:
    def test_table3_defaults(self):
        assert EYERISS.mac_lanes == 168
        assert EYERISS.input_bits == EYERISS.weight_bits == 16
        assert EYERISS.frequency_mhz == 500.0
        assert EYERISS.on_chip_kb == pytest.approx(181.5)

    def test_validation(self):
        with pytest.raises(ValueError, match="mac_lanes"):
            replace(EYERISS, mac_lanes=0)
        with pytest.raises(ValueError, match="conv_utilization"):
            replace(EYERISS, conv_utilization=0.0)
        with pytest.raises(ValueError, match="fc_utilization"):
            replace(EYERISS, fc_utilization=1.5)

    def test_serialises_neither_operand(self):
        for bits in (1, 2, 4, 8, 16):
            assert EYERISS.cycles_per_mac(bits, bits) == 1


class TestEyerissModel:
    def test_runs_every_benchmark(self, eyeriss):
        for name in models.benchmark_names():
            result = eyeriss.evaluate(models.load_baseline_variant(name), batch_size=4)
            assert result.platform == "eyeriss"
            assert result.total_cycles > 0
            assert result.energy.total > 0

    def test_fixed_sixteen_bit_execution(self, eyeriss):
        result = eyeriss.evaluate(models.load("Cifar-10"), batch_size=2)
        for layer in result.layers:
            assert layer.input_bits == 16
            assert layer.weight_bits == 16

    def test_compute_cycles_bounded_by_pe_count(self, eyeriss):
        network = Network("fc", [FCLayer(name="fc", in_features=1024, out_features=1024)])
        result = eyeriss.evaluate(network, batch_size=1)
        macs = 1024 * 1024
        assert result.compute_cycles >= macs / 168

    def test_register_file_dominates_energy(self, eyeriss):
        """Figure 14: Eyeriss spends over 40% of its energy in per-PE register files."""
        result = eyeriss.evaluate(models.load_baseline_variant("AlexNet"), batch_size=16)
        fractions = result.energy.fractions()
        assert fractions["register_file"] > 0.4
        assert fractions["register_file"] > fractions["compute"]

    def test_quantization_does_not_help_eyeriss(self, eyeriss):
        """Eyeriss runs at 16 bits regardless of the model's quantized bitwidths."""
        quantized = Network(
            "q", [FCLayer(name="fc", in_features=512, out_features=512, input_bits=2, weight_bits=2)]
        )
        full = Network(
            "f", [FCLayer(name="fc", in_features=512, out_features=512, input_bits=8, weight_bits=8)]
        )
        assert eyeriss.evaluate(quantized, 4).total_cycles == eyeriss.evaluate(full, 4).total_cycles

    def test_bitfusion_beats_eyeriss_on_every_benchmark(self, eyeriss):
        """The headline Figure 13 direction: Bit Fusion always wins."""
        accelerator = BitFusionAccelerator(BitFusionConfig.eyeriss_matched())
        for name in models.benchmark_names():
            bf = accelerator.run(models.load(name), batch_size=16)
            ey = eyeriss.evaluate(models.load_baseline_variant(name), batch_size=16)
            assert bf.speedup_over(ey) > 1.0, name
            assert bf.energy_reduction_over(ey) > 1.0, name

    def test_binary_networks_gain_most(self, eyeriss):
        """Figure 13 shape: Cifar-10/SVHN (1-bit) gain more than AlexNet (4/8-bit)."""
        accelerator = BitFusionAccelerator(BitFusionConfig.eyeriss_matched())

        def speedup(name: str) -> float:
            bf = accelerator.run(models.load(name), batch_size=16)
            ey = eyeriss.evaluate(models.load_baseline_variant(name), batch_size=16)
            return bf.speedup_over(ey)

        assert speedup("Cifar-10") > speedup("AlexNet")
        assert speedup("SVHN") > speedup("LSTM")
