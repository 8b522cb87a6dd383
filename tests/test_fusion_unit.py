"""Tests for the Fusion Unit's spatial fusion configurations."""

from __future__ import annotations

import pytest

from repro.core.config import BitFusionConfig
from repro.core.fusion_unit import (
    BITBRICKS_PER_FUSION_UNIT,
    MAX_SPATIAL_OPERAND_BITS,
    SUPPORTED_BITWIDTHS,
    fusion_config_for,
)


class TestFusionConfigFor:
    def test_paper_figure2_configurations(self):
        """Figure 2: 16 F-PEs at binary/ternary, 4 at 8b/2b, 1 at 8b/8b."""
        assert fusion_config_for(1, 1).fused_pes == 16
        assert fusion_config_for(2, 2).fused_pes == 16
        assert fusion_config_for(8, 2).fused_pes == 4
        assert fusion_config_for(8, 8).fused_pes == 1

    @pytest.mark.parametrize("input_bits", SUPPORTED_BITWIDTHS)
    @pytest.mark.parametrize("weight_bits", SUPPORTED_BITWIDTHS)
    def test_fused_pes_times_bricks_equals_sixteen(self, input_bits, weight_bits):
        config = fusion_config_for(input_bits, weight_bits)
        assert config.fused_pes * config.bricks_per_fpe == BITBRICKS_PER_FUSION_UNIT

    def test_symmetry_between_inputs_and_weights(self):
        assert fusion_config_for(2, 8).fused_pes == fusion_config_for(8, 2).fused_pes
        assert fusion_config_for(4, 16).macs_per_cycle == fusion_config_for(16, 4).macs_per_cycle

    def test_sixteen_bit_operands_use_temporal_passes(self):
        config = fusion_config_for(16, 16)
        assert config.spatial_input_bits == MAX_SPATIAL_OPERAND_BITS
        assert config.spatial_weight_bits == MAX_SPATIAL_OPERAND_BITS
        assert config.temporal_passes == 4
        assert config.macs_per_cycle == 0.25

    def test_sixteen_by_eight_needs_two_passes(self):
        config = fusion_config_for(16, 8)
        assert config.temporal_passes == 2
        assert config.macs_per_cycle == 0.5

    def test_spatial_configs_need_single_pass(self):
        for input_bits in (1, 2, 4, 8):
            for weight_bits in (1, 2, 4, 8):
                assert fusion_config_for(input_bits, weight_bits).temporal_passes == 1

    def test_parallelism_doubles_when_one_operand_halves(self):
        """Figure 7's observation: 4x2 runs twice as fast as 4x4."""
        assert (
            fusion_config_for(4, 2).macs_per_cycle
            == 2 * fusion_config_for(4, 4).macs_per_cycle
        )

    def test_one_bit_rides_two_bit_lane(self):
        assert fusion_config_for(1, 1).macs_per_cycle == fusion_config_for(2, 2).macs_per_cycle

    def test_rejects_unsupported_bitwidths(self):
        with pytest.raises(ValueError):
            fusion_config_for(3, 2)
        with pytest.raises(ValueError):
            fusion_config_for(2, 32)

    def test_lane_bits_capped_at_spatial_maximum(self):
        config = fusion_config_for(16, 16)
        assert config.input_lane_bits == MAX_SPATIAL_OPERAND_BITS
        assert config.weight_lane_bits == MAX_SPATIAL_OPERAND_BITS


@pytest.mark.parametrize("input_bits", (1, 2, 4, 8, 16))
@pytest.mark.parametrize("weight_bits", (1, 2, 4, 8, 16))
def test_one_buffer_row_feeds_a_whole_fusion_unit(input_bits, weight_bits):
    """Figure 4: one 32-bit buffer access per cycle feeds every Fused-PE of a unit.

    Each Fused-PE takes one operand lane of the row per cycle.  A lane is 2
    to 8 bits wide: 1-bit operands ride a 2-bit lane and 16-bit operands
    move as 8-bit halves over temporal passes.
    """
    config = fusion_config_for(input_bits, weight_bits)
    row_bits = BitFusionConfig().buffer_access_bits
    for bits in (config.input_bits, config.weight_bits):
        assert config.fused_pes * max(2, min(bits, 8)) <= row_bits
