"""Tests for the Stripes bit-serial baseline platform."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.baselines.platform import STRIPES, PlatformModel
from repro.core.accelerator import BitFusionAccelerator
from repro.core.config import BitFusionConfig
from repro.dnn import models
from repro.dnn.layers import FCLayer
from repro.dnn.network import Network
from repro.isa.instructions import LoopOrder
from repro.isa.tiling import search_tilings


@pytest.fixture
def stripes() -> PlatformModel:
    return PlatformModel(STRIPES)


class TestStripesSpec:
    def test_table3_defaults(self):
        assert STRIPES.mac_lanes == 16 * 4096
        assert STRIPES.frequency_mhz == 980.0
        assert STRIPES.input_bits == 16
        assert STRIPES.weight_bits is None

    def test_validation(self):
        with pytest.raises(ValueError, match="mac_lanes"):
            replace(STRIPES, mac_lanes=0)
        with pytest.raises(ValueError, match="input_bits"):
            replace(STRIPES, input_bits=4)


class TestStripesModel:
    def test_serial_weight_bits_clamped(self):
        def weight_bits(spec, bits):
            return spec.operand_bits(FCLayer(name="fc", weight_bits=bits))[1]

        assert weight_bits(STRIPES, 1) == 1
        assert weight_bits(STRIPES, 16) == 16
        assert STRIPES.cycles_per_mac(16, 4) == 4

    def test_performance_scales_inversely_with_weight_bits(self, stripes):
        """Stripes' defining property: time is proportional to weight bitwidth."""
        def cycles(weight_bits: int) -> int:
            network = Network(
                f"fc{weight_bits}",
                [FCLayer(name="fc", in_features=2048, out_features=2048,
                         input_bits=8, weight_bits=weight_bits)],
            )
            return stripes.evaluate(network, batch_size=1).compute_cycles

        assert cycles(8) == pytest.approx(2 * cycles(4), rel=0.05)
        assert cycles(4) == pytest.approx(2 * cycles(2), rel=0.05)

    def test_input_bitwidth_does_not_help_stripes(self, stripes):
        """Stripes fixes inputs at 16 bits; only weights benefit from quantization."""
        narrow_inputs = Network(
            "n", [FCLayer(name="fc", in_features=1024, out_features=1024,
                          input_bits=2, weight_bits=4)]
        )
        wide_inputs = Network(
            "w", [FCLayer(name="fc", in_features=1024, out_features=1024,
                          input_bits=8, weight_bits=4)]
        )
        assert (
            stripes.evaluate(narrow_inputs, 4).compute_cycles
            == stripes.evaluate(wide_inputs, 4).compute_cycles
        )

    def test_runs_every_benchmark(self, stripes):
        for name in models.benchmark_names():
            result = stripes.evaluate(models.load(name), batch_size=4)
            assert result.total_cycles > 0
            assert result.energy.total > 0

    @pytest.mark.parametrize("name", models.BENCHMARKS)
    def test_one_search_per_network_prices_each_layer_like_its_own(self, stripes, name):
        """Each layer's DRAM bits equal its own single-GEMM tiling search's."""
        ibuf_kb, wbuf_kb, obuf_kb = STRIPES.buffers_kb
        buffers = BitFusionConfig(
            rows=1, columns=1, ibuf_kb=ibuf_kb, wbuf_kb=wbuf_kb, obuf_kb=obuf_kb
        )
        network = models.load(name)
        priced = {layer.name: layer for layer in stripes.evaluate(network, 16).layers}
        for layer in network:
            if not layer.has_gemm():
                continue
            (plan,) = search_tilings(
                (stripes.gemm_workload(layer, 16),), buffers, tuple(LoopOrder)
            )
            traffic = priced[layer.name].traffic
            assert traffic.dram_read_bits == (
                plan.dram_weight_bits + plan.dram_input_bits + plan.dram_output_read_bits
            ), layer.name
            assert traffic.dram_write_bits == plan.dram_output_write_bits, layer.name

    def test_bitfusion_beats_stripes_on_every_benchmark(self, stripes):
        """Figure 18 direction: Bit Fusion wins everywhere in the matched setup."""
        accelerator = BitFusionAccelerator(BitFusionConfig.stripes_matched())
        for name in models.benchmark_names():
            bf = accelerator.run(models.load(name), batch_size=16)
            st = stripes.evaluate(models.load(name), batch_size=16)
            assert bf.speedup_over(st) >= 1.0, name
            assert bf.energy_reduction_over(st) > 1.0, name

    def test_low_input_bitwidth_benchmarks_gain_most(self, stripes):
        """Figure 18 shape: LeNet-5 (2-bit inputs) gains more than AlexNet (4/8-bit)."""
        accelerator = BitFusionAccelerator(BitFusionConfig.stripes_matched())

        def speedup(name: str) -> float:
            bf = accelerator.run(models.load(name), batch_size=16)
            st = stripes.evaluate(models.load(name), batch_size=16)
            return bf.speedup_over(st)

        assert speedup("LeNet-5") > speedup("AlexNet")
