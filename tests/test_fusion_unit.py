"""Tests for the Fusion Unit's spatial fusion configurations."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.baselines.platform import EYERISS
from repro.core.config import BitFusionConfig
from repro.core.fusion_unit import (
    BITBRICKS_PER_FUSION_UNIT,
    MAX_SPATIAL_OPERAND_BITS,
    PARTIAL_SUM_BITS,
    SUPPORTED_BITWIDTHS,
    fusion_config_for,
)
from repro.dnn.layers import FCLayer
from repro.isa.instructions import Setup
from repro.isa.tiling import GemmWorkload


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


#: Every check of an operand width, with the error it raises for ``{bits}``.
_WIDTH_VALIDATORS = {
    "fusion_config_for": (
        lambda bits: fusion_config_for(bits, bits),
        "input bitwidth must be one of (1, 2, 4, 8, 16), got {bits}",
    ),
    "Layer": (
        lambda bits: FCLayer(name="fc", input_bits=bits, weight_bits=bits),
        "input_bits must be one of (1, 2, 4, 8, 16), got {bits}",
    ),
    "PlatformSpec": (
        lambda bits: replace(EYERISS, input_bits=bits, weight_bits=bits),
        "PlatformSpec.input_bits must be None or one of (1, 2, 4, 8, 16), got {bits}",
    ),
    "Setup": (
        lambda bits: Setup(input_bits=bits, weight_bits=bits),
        "input_bits must be one of (1, 2, 4, 8, 16), got {bits}",
    ),
    "GemmWorkload": (
        lambda bits: GemmWorkload(
            m=1, n=1, r=1, input_bits=bits, weight_bits=bits, output_bits=bits
        ),
        "input_bits must be a supported bitwidth, got {bits}",
    ),
}


@pytest.mark.parametrize("bits", (*SUPPORTED_BITWIDTHS, 0, 3, PARTIAL_SUM_BITS))
@pytest.mark.parametrize("validator", sorted(_WIDTH_VALIDATORS))
def test_every_operand_width_check_states_the_fabric_widths(validator, bits):
    """``SUPPORTED_BITWIDTHS`` is the one statement of the operand widths."""
    check, message = _WIDTH_VALIDATORS[validator]
    if bits in SUPPORTED_BITWIDTHS:
        check(bits)
        return
    with pytest.raises(ValueError) as error:
        check(bits)
    assert str(error.value) == message.format(bits=bits)


def test_a_gemm_output_may_be_a_full_partial_sum():
    workload = GemmWorkload(
        m=1, n=1, r=1, input_bits=8, weight_bits=8, output_bits=PARTIAL_SUM_BITS
    )
    assert workload.output_bits == PARTIAL_SUM_BITS
