"""Tests for the Fusion Unit: spatial fusion configurations and arithmetic."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import BitFusionConfig
from repro.core.fusion_unit import (
    BITBRICKS_PER_FUSION_UNIT,
    MAX_OPERAND_BITS,
    MAX_SPATIAL_OPERAND_BITS,
    FusionUnit,
    fusion_config_for,
    supported_configurations,
)


class TestFusionConfigFor:
    def test_paper_figure2_configurations(self):
        """Figure 2: 16 F-PEs at binary/ternary, 4 at 8b/2b, 1 at 8b/8b."""
        assert fusion_config_for(1, 1).fused_pes == 16
        assert fusion_config_for(2, 2).fused_pes == 16
        assert fusion_config_for(8, 2).fused_pes == 4
        assert fusion_config_for(8, 8).fused_pes == 1

    def test_fused_pes_times_bricks_equals_sixteen(self):
        for config in supported_configurations():
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

    def test_supported_configurations_enumeration(self):
        configs = supported_configurations()
        assert len(configs) == 25  # 5 input widths x 5 weight widths
        assert all(c.input_bits in (1, 2, 4, 8, 16) for c in configs)

    def test_lane_bits_capped_at_spatial_maximum(self):
        config = fusion_config_for(16, 16)
        assert config.input_lane_bits == MAX_SPATIAL_OPERAND_BITS
        assert config.weight_lane_bits == MAX_SPATIAL_OPERAND_BITS
        assert MAX_OPERAND_BITS == 16


class TestFusionUnitExecution:
    def test_requires_configuration(self):
        unit = FusionUnit()
        assert not unit.is_configured
        with pytest.raises(RuntimeError):
            unit.multiply_accumulate([1], [1])

    def test_configure_returns_config(self):
        unit = FusionUnit()
        config = unit.configure(4, 4)
        assert unit.is_configured
        assert config.fused_pes == 4

    def test_multiply_accumulate_small_vectors(self):
        unit = FusionUnit()
        unit.configure(4, 4)
        result = unit.multiply_accumulate([1, -2, 3, 4], [5, 6, -7, 0], partial_sum=10)
        assert result == 10 + (1 * 5 - 2 * 6 - 3 * 7 + 0)

    def test_multiply_accumulate_validates_vector_length(self):
        unit = FusionUnit()
        unit.configure(8, 8)  # one Fused-PE
        with pytest.raises(ValueError):
            unit.multiply_accumulate([1, 2], [3, 4])

    def test_multiply_accumulate_validates_operand_range(self):
        unit = FusionUnit()
        unit.configure(2, 2)
        bad_inputs = [5] + [0] * 15
        weights = [1] * 16
        with pytest.raises(ValueError):
            unit.multiply_accumulate(bad_inputs, weights)

    def test_dot_product_matches_numpy(self, rng):
        unit = FusionUnit()
        unit.configure(8, 8)
        a = rng.integers(-128, 128, size=37)
        b = rng.integers(-128, 128, size=37)
        assert unit.dot_product(a, b) == int(np.dot(a, b))

    def test_dot_product_with_padding(self):
        unit = FusionUnit()
        unit.configure(2, 2)  # 16 Fused-PEs, vector of 5 needs padding
        assert unit.dot_product([1, 1, 1, 1, 1], [1, 1, 1, 1, 1]) == 5

    def test_dot_product_rejects_length_mismatch(self):
        unit = FusionUnit()
        unit.configure(4, 4)
        with pytest.raises(ValueError):
            unit.dot_product([1, 2, 3], [1, 2])

    def test_counters_track_bricks_and_macs(self):
        unit = FusionUnit()
        unit.configure(4, 4)
        unit.multiply_accumulate([1, 1, 1, 1], [1, 1, 1, 1])
        assert unit.total_macs == 4
        assert unit.total_brick_multiplies == 4 * 4  # 4 bricks per 4x4 Fused-PE
        unit.reset_counters()
        assert unit.total_macs == 0
        assert unit.total_brick_multiplies == 0

    def test_partial_sum_overflow_detected(self):
        unit = FusionUnit()
        unit.configure(8, 8)
        huge = (1 << 31) - 1
        with pytest.raises(OverflowError):
            unit.multiply_accumulate([127], [127], partial_sum=huge)

    @settings(max_examples=60)
    @given(
        bits=st.sampled_from((2, 4, 8)),
        data=st.data(),
    )
    def test_dot_product_matches_numpy_property(self, bits, data):
        """Property: fused dot products equal int dot products at any bitwidth."""
        unit = FusionUnit()
        unit.configure(bits, bits)
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        length = data.draw(st.integers(min_value=1, max_value=48))
        a = data.draw(
            st.lists(st.integers(min_value=lo, max_value=hi), min_size=length, max_size=length)
        )
        b = data.draw(
            st.lists(st.integers(min_value=lo, max_value=hi), min_size=length, max_size=length)
        )
        assert unit.dot_product(a, b) == int(np.dot(a, b))


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
