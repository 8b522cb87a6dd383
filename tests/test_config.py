"""Tests for the accelerator configuration and technology scaling."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.core.config import BitFusionConfig, TechnologyNode
from repro.isa.compiler import FusionCompiler
from repro.session import Workload, compile_program, engine, program_cache_key
from repro.session.engine import layer_cache_key, tiling_cache_key
from repro.session.workload import load_network


class TestTechnologyNode:
    def test_reference_node_has_unit_scaling(self):
        node = TechnologyNode.nm45()
        assert node.energy_scale == 1.0
        assert node.area_scale == 1.0

    def test_16nm_scaling_follows_paper(self):
        """Section V-A: 0.86x voltage and 0.42x capacitance scaling to 16 nm."""
        node = TechnologyNode.nm16()
        assert node.voltage_scale == pytest.approx(0.86)
        assert node.capacitance_scale == pytest.approx(0.42)
        assert node.energy_scale == pytest.approx(0.86**2 * 0.42)
        assert node.energy_scale < 0.35

    def test_65nm_scales_energy_up(self):
        assert TechnologyNode.nm65().energy_scale > 1.0

    def test_area_scale_is_quadratic_in_feature_size(self):
        assert TechnologyNode.nm16().area_scale == pytest.approx((16 / 45) ** 2)


class TestBitFusionConfig:
    def test_default_geometry(self):
        config = BitFusionConfig()
        assert config.fusion_units == config.rows * config.columns
        assert config.bitbricks == config.fusion_units * 16

    def test_eyeriss_matched_matches_table3(self):
        config = BitFusionConfig.eyeriss_matched()
        assert config.fusion_units == 512
        assert config.bitbricks == 8192
        assert config.frequency_mhz == 500.0
        assert config.total_sram_kb == pytest.approx(112.0)
        assert config.dram_bandwidth_bits_per_cycle == 128
        assert config.technology.name == "45nm"

    def test_stripes_matched_replaces_all_sixteen_tiles(self):
        """Section V-B4: 512 Fusion Units per Stripes tile, 16 tiles."""
        config = BitFusionConfig.stripes_matched()
        assert config.fusion_units == 16 * 512
        assert config.frequency_mhz == 980.0

    def test_gpu_scaled_configuration(self):
        config = BitFusionConfig.gpu_scaled_16nm()
        assert config.fusion_units == 4096
        assert config.technology.name == "16nm"
        assert config.frequency_mhz == 500.0

    def test_peak_macs_per_cycle_scales_with_bitwidth(self):
        config = BitFusionConfig.eyeriss_matched()
        assert config.peak_macs_per_cycle(8, 8) == 512
        assert config.peak_macs_per_cycle(4, 4) == 2048
        assert config.peak_macs_per_cycle(2, 2) == 8192
        assert config.peak_macs_per_cycle(16, 16) == 128

    def test_peak_throughput_counts_two_ops_per_mac(self):
        config = BitFusionConfig.eyeriss_matched()
        assert config.peak_throughput_gops(8, 8) == pytest.approx(
            2 * 512 * 500e6 / 1e9
        )

    def test_cycle_time(self):
        assert BitFusionConfig(frequency_mhz=500.0).cycle_time_ns == pytest.approx(2.0)

    def test_dram_bandwidth_conversion(self):
        config = BitFusionConfig.eyeriss_matched()
        assert config.dram_bandwidth_gbps == pytest.approx(128 * 500e6 / 1e9)

    def test_batch_size_is_not_hardware(self):
        """Table III lists no batch: it is an evaluation axis (Figure 16)."""
        assert "batch_size" not in {field.name for field in fields(BitFusionConfig)}
        assert len(fields(BitFusionConfig)) == 10
        assert Workload.bitfusion("LeNet-5").batch_size == 16

    def test_with_bandwidth_returns_modified_copy(self):
        base = BitFusionConfig.eyeriss_matched()
        modified = base.with_bandwidth(512)
        assert modified.dram_bandwidth_bits_per_cycle == 512
        assert base.dram_bandwidth_bits_per_cycle == 128
        assert modified.rows == base.rows

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rows": 0},
            {"columns": -1},
            {"frequency_mhz": 0},
            {"dram_bandwidth_bits_per_cycle": 0},
            {"ibuf_kb": 0},
            {"wbuf_kb": -2},
            {"obuf_kb": 0},
        ],
    )
    def test_rejects_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            BitFusionConfig(**kwargs)


class TestBufferSizesAreCanonical:
    """Equal configs built with int or float buffer sizes key identically.

    They compare and hash equal, so the per-config memos behind the layer
    key serve whichever instance a process saw first; their key bytes must
    therefore agree too.
    """

    @staticmethod
    def _keys(config: BitFusionConfig) -> tuple:
        # Fresh memos: each instance derives its own key bytes.
        engine._sim_config_json.cache_clear()
        engine._layer_content_key.cache_clear()
        workload = Workload.bitfusion("LeNet-5", config=config)
        program = compile_program(workload)
        requests = FusionCompiler(config).tiling_requests(
            load_network(workload), batch_size=workload.batch_size
        )
        return (
            config.fingerprint(),
            workload.fingerprint(),
            program_cache_key(workload),
            [layer_cache_key(compiled, config) for compiled in program],
            [tiling_cache_key(gemm, orders, config) for gemm, orders in requests],
        )

    def test_buffer_sizes_are_stored_as_floats(self):
        config = BitFusionConfig(ibuf_kb=16, wbuf_kb=32, obuf_kb=8)
        for value in (config.ibuf_kb, config.wbuf_kb, config.obuf_kb):
            assert type(value) is float
        assert type(config.with_buffers(8, 8, 8).obuf_kb) is float

    def test_int_and_float_built_configs_key_identically(self):
        as_int = BitFusionConfig(ibuf_kb=24, wbuf_kb=40, obuf_kb=12, name="int-vs-float")
        as_float = BitFusionConfig(ibuf_kb=24.0, wbuf_kb=40.0, obuf_kb=12.0, name="int-vs-float")
        assert as_int == as_float and hash(as_int) == hash(as_float)
        try:
            assert self._keys(as_int) == self._keys(as_float)
        finally:
            engine._sim_config_json.cache_clear()
            engine._layer_content_key.cache_clear()
