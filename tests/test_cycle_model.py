"""Tests for the systolic-array compute-cycle model."""

from __future__ import annotations

import pytest

from repro.isa.instructions import LoopOrder
from repro.isa.tiling import GemmWorkload, search_tilings

from reference.simulator import GemmCycleModel


@pytest.fixture
def model(default_config) -> GemmCycleModel:
    return GemmCycleModel(default_config)


def _estimate(model, config, m, n, r, input_bits, weight_bits):
    workload = GemmWorkload(
        m=m, n=n, r=r, input_bits=input_bits, weight_bits=weight_bits, output_bits=input_bits
    )
    (plan,) = search_tilings((workload,), config, (LoopOrder.OUTPUT_STATIONARY,))
    return model.estimate(plan)


class TestCycleEstimates:
    def test_cycles_never_beat_the_ideal(self, model, default_config):
        for bits in (2, 4, 8):
            estimate = _estimate(model, default_config, 512, 1024, 64, bits, bits)
            assert estimate.total_cycles >= estimate.ideal_cycles

    def test_utilization_bounded_by_one(self, model, default_config):
        estimate = _estimate(model, default_config, 512, 4096, 256, 2, 2)
        assert 0.0 < estimate.utilization <= 1.0

    def test_large_gemm_achieves_high_utilization(self, model, default_config):
        estimate = _estimate(model, default_config, 4096, 8192, 64, 8, 8)
        assert estimate.utilization > 0.8

    def test_tiny_gemm_has_poor_utilization(self, model, default_config):
        """LeNet-5's 6-output-channel layers cannot fill 16 columns."""
        estimate = _estimate(model, default_config, 6, 25, 784, 2, 2)
        assert estimate.utilization < 0.2

    def test_lower_bitwidth_reduces_cycles_quadratically(self, model, default_config):
        eight_bit = _estimate(model, default_config, 512, 4096, 256, 8, 8)
        four_bit = _estimate(model, default_config, 512, 4096, 256, 4, 4)
        two_bit = _estimate(model, default_config, 512, 4096, 256, 2, 2)
        assert four_bit.compute_cycles <= eight_bit.compute_cycles / 3
        assert two_bit.compute_cycles <= four_bit.compute_cycles / 3

    def test_sixteen_bit_costs_four_passes(self, model, default_config):
        eight_bit = _estimate(model, default_config, 256, 2048, 64, 8, 8)
        sixteen_bit = _estimate(model, default_config, 256, 2048, 64, 16, 16)
        ratio = sixteen_bit.compute_cycles / eight_bit.compute_cycles
        assert 3.0 <= ratio <= 5.0

    def test_mixed_bitwidth_halves_cycles(self, model, default_config):
        symmetric = _estimate(model, default_config, 256, 2048, 64, 4, 4)
        mixed = _estimate(model, default_config, 256, 2048, 64, 4, 2)
        assert mixed.compute_cycles < symmetric.compute_cycles

    def test_fill_drain_scales_with_output_tiles(self, model, default_config):
        small = _estimate(model, default_config, 16, 128, 8, 8, 8)
        large = _estimate(model, default_config, 4096, 128, 2048, 8, 8)
        assert large.fill_drain_cycles > small.fill_drain_cycles

    def test_fusion_config_lookup(self, model):
        assert model.fusion_config(2, 2).fused_pes == 16

    def test_buffer_access_rates_follow_geometry(self, model, default_config):
        rates = model.buffer_accesses_per_compute_cycle(model.fusion_config(4, 4))
        assert rates["ibuf_reads"] == default_config.rows
        assert rates["wbuf_reads"] == default_config.fusion_units
        assert rates["obuf_writes"] == default_config.columns
