"""Tests for the top-level BitFusionAccelerator object."""

from __future__ import annotations

import pytest

from repro.core.accelerator import BitFusionAccelerator
from repro.dnn import models


class TestConstruction:
    def test_default_configuration_is_eyeriss_matched(self):
        accelerator = BitFusionAccelerator()
        assert accelerator.config.fusion_units == 512
        assert accelerator.config.name == "bitfusion-eyeriss-matched"

    def test_custom_configuration(self, small_config):
        accelerator = BitFusionAccelerator(small_config)
        assert accelerator.config is small_config

    def test_describe_mentions_key_parameters(self):
        description = BitFusionAccelerator().describe()
        assert "512" in description or "8192" in description
        assert "MHz" in description
        assert "GOPS" in description


class TestCompileAndRun:
    def test_compile_returns_program(self):
        accelerator = BitFusionAccelerator()
        program = accelerator.compile(models.load("LeNet-5"), batch_size=16)
        assert len(program) > 0

    def test_run_returns_network_result(self):
        accelerator = BitFusionAccelerator()
        result = accelerator.run(models.load("LeNet-5"), batch_size=16)
        assert result.network_name == "LeNet-5"
        assert result.batch_size == 16

    def test_result_carries_the_batch_size_of_the_call(self):
        accelerator = BitFusionAccelerator()
        result = accelerator.run(models.load("LSTM"), batch_size=4)
        assert result.batch_size == 4

    def test_optimization_flags_are_forwarded(self):
        network = models.load("LeNet-5")
        fused = BitFusionAccelerator().compile(network, batch_size=16)
        unfused = BitFusionAccelerator(enable_layer_fusion=False).compile(network, batch_size=16)
        assert len(unfused) > len(fused)


class TestPeakThroughput:
    def test_peak_scales_with_bitwidth(self):
        accelerator = BitFusionAccelerator()
        assert accelerator.peak_throughput_gops(2, 2) == pytest.approx(
            16 * accelerator.peak_throughput_gops(8, 8)
        )

    def test_paper_peak_at_eight_bit(self):
        """512 Fusion Units x 1 MAC/cycle x 500 MHz x 2 ops = 512 GOPS."""
        assert BitFusionAccelerator().peak_throughput_gops(8, 8) == pytest.approx(512.0)
