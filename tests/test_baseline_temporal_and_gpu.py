"""Tests for the temporal-design comparison and the GPU roofline models."""

from __future__ import annotations

import pytest

from repro.baselines.gpu import GpuModel, GpuPrecision, GpuSpec, TEGRA_X2, TITAN_XP
from repro.baselines.platform import TEMPORAL, PlatformModel
from repro.baselines.temporal import TemporalDesignComparison, TemporalDesignModel
from repro.dnn import models


class TestTemporalDesignComparison:
    def test_figure10_reductions(self):
        comparison = TemporalDesignComparison()
        area_reduction = comparison.temporal_area_um2 / comparison.fusion_area_um2
        power_reduction = comparison.temporal_power_nw / comparison.fusion_power_nw
        assert area_reduction == pytest.approx(3.5, rel=0.05)
        assert power_reduction == pytest.approx(3.2, rel=0.05)

    def test_component_rows_include_totals(self):
        comparison = TemporalDesignComparison()
        area_components = {row["component"] for row in comparison.area_rows()}
        assert area_components == {"bitbricks", "shift_add", "register", "total"}
        power_components = {row["component"] for row in comparison.power_rows()}
        assert "total" in power_components

    def test_register_reduction_is_largest(self):
        rows = {row["component"]: row["reduction"] for row in TemporalDesignComparison().area_rows()}
        assert rows["register"] > rows["shift_add"] > rows["bitbricks"]


class TestTemporalDesignModel:
    def test_same_area_packs_more_fusion_units(self):
        model = TemporalDesignModel(compute_area_mm2=1.1)
        assert model.fusion_units_in_area > model.temporal_units_in_area
        assert model.fusion_units_in_area == pytest.approx(
            3.5 * model.temporal_units_in_area, rel=0.05
        )

    def test_temporal_cycles_per_mac(self):
        assert TEMPORAL.cycles_per_mac(1, 2) == 1
        assert TEMPORAL.cycles_per_mac(2, 2) == 1
        assert TEMPORAL.cycles_per_mac(8, 8) == 16
        assert TEMPORAL.cycles_per_mac(8, 2) == 4
        with pytest.raises(ValueError):
            TEMPORAL.cycles_per_mac(0, 2)

    def test_whole_network_platform_fills_the_same_area(self):
        model = TemporalDesignModel()
        assert TEMPORAL.mac_lanes == model.temporal_units_in_area * 16
        assert TEMPORAL.mac_lanes / TEMPORAL.cycles_per_mac(4, 4) == (
            model.temporal_macs_per_cycle(4, 4)
        )

    def test_whole_network_runs_at_layer_bitwidths(self):
        network = models.load("LeNet-5")
        result = PlatformModel(TEMPORAL).evaluate(network, batch_size=4)
        assert result.platform == "temporal"
        for layer, record in zip(network, result.layers, strict=True):
            assert (record.input_bits, record.weight_bits) == (
                layer.input_bits,
                layer.weight_bits,
            )

    def test_spatial_fusion_wins_at_every_bitwidth(self):
        model = TemporalDesignModel()
        for bits in (2, 4, 8, 16):
            assert model.throughput_advantage(bits, bits) > 1.0

    def test_rejects_non_positive_area(self):
        with pytest.raises(ValueError):
            TemporalDesignModel(compute_area_mm2=0)


class TestGpuSpec:
    def test_published_peaks(self):
        assert TITAN_XP.peak_fp32_gflops > 10 * TEGRA_X2.peak_fp32_gflops
        assert TITAN_XP.peak_int8_gops > 0
        assert TEGRA_X2.peak_int8_gops == 0

    def test_precision_support(self):
        assert TITAN_XP.supports(GpuPrecision.INT8)
        assert not TEGRA_X2.supports(GpuPrecision.INT8)
        with pytest.raises(ValueError):
            TEGRA_X2.peak_gops(GpuPrecision.INT8)

    def test_operand_bytes(self):
        assert TITAN_XP.operand_bytes(GpuPrecision.FP32) == 4
        assert TITAN_XP.operand_bytes(GpuPrecision.INT8) == 1

    def test_validation(self):
        device = dict(cuda_cores=1, clock_mhz=1.0, device_memory="1 GB", technology="16nm")
        with pytest.raises(ValueError):
            GpuSpec(name="bad", peak_fp32_gflops=0, peak_int8_gops=0,
                    memory_bandwidth_gb_s=10, tdp_w=10, **device)
        with pytest.raises(ValueError):
            GpuSpec(name="bad", peak_fp32_gflops=10, peak_int8_gops=0,
                    memory_bandwidth_gb_s=10, tdp_w=10, achievable_compute_fraction=0,
                    **device)


class TestGpuModel:
    def test_rejects_unsupported_precision(self):
        with pytest.raises(ValueError):
            GpuModel(TEGRA_X2, GpuPrecision.INT8)

    def test_titan_outperforms_tegra(self):
        network = models.load_baseline_variant("AlexNet")
        tegra = GpuModel(TEGRA_X2, GpuPrecision.FP32).evaluate(network, batch_size=16)
        titan = GpuModel(TITAN_XP, GpuPrecision.FP32).evaluate(network, batch_size=16)
        assert titan.speedup_over(tegra) > 5.0

    def test_int8_beats_fp32_on_compute_bound_networks(self):
        network = models.load_baseline_variant("VGG-7")
        fp32 = GpuModel(TITAN_XP, GpuPrecision.FP32).evaluate(network, batch_size=16)
        int8 = GpuModel(TITAN_XP, GpuPrecision.INT8).evaluate(network, batch_size=16)
        assert int8.speedup_over(fp32) > 1.0

    def test_recurrent_networks_are_bandwidth_bound_on_gpu(self):
        result = GpuModel(TITAN_XP, GpuPrecision.FP32).evaluate(models.load("RNN"), batch_size=16)
        assert result.memory_cycles > result.compute_cycles

    def test_energy_uses_tdp(self):
        network = models.load_baseline_variant("LeNet-5")
        tegra = GpuModel(TEGRA_X2, GpuPrecision.FP32).evaluate(network, batch_size=16)
        titan = GpuModel(TITAN_XP, GpuPrecision.FP32).evaluate(network, batch_size=16)
        # The Titan is faster but burns far more power.
        assert titan.average_power_w > tegra.average_power_w

    def test_rejects_bad_batch(self):
        with pytest.raises(ValueError):
            GpuModel(TEGRA_X2).evaluate(models.load("LeNet-5"), batch_size=0)
