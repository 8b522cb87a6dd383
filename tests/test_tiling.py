"""Tests for loop tiling and the off-chip traffic model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import BitFusionConfig
from repro.isa.instructions import LoopOrder
from repro.isa.tiling import GemmWorkload, search_tilings, tile_candidates

_OUTPUT_STATIONARY = (LoopOrder.OUTPUT_STATIONARY,)


class TestGemmWorkload:
    def test_footprints(self):
        workload = GemmWorkload(m=10, n=20, r=30, input_bits=4, weight_bits=2, output_bits=8)
        assert workload.macs == 6000
        assert workload.weight_footprint_bits == 10 * 20 * 2
        assert workload.input_footprint_bits == 20 * 30 * 4
        assert workload.output_footprint_bits == 10 * 30 * 8

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            GemmWorkload(m=0, n=1, r=1, input_bits=4, weight_bits=4, output_bits=4)
        with pytest.raises(ValueError):
            GemmWorkload(m=1, n=1, r=1, input_bits=3, weight_bits=4, output_bits=4)


class TestTileCandidates:
    def test_includes_extent_and_powers_of_two(self):
        candidates = tile_candidates(100)
        assert 100 in candidates
        assert 64 in candidates
        assert candidates == sorted(candidates, reverse=True)

    def test_small_extent(self):
        assert tile_candidates(1) == [1]

    def test_rejects_non_positive_extent(self):
        with pytest.raises(ValueError):
            tile_candidates(0)


class TestPlanTiling:
    def test_small_gemm_fits_on_chip(self, default_config):
        workload = GemmWorkload(m=64, n=64, r=16, input_bits=8, weight_bits=8, output_bits=8)
        plan = search_tilings((workload,), default_config, _OUTPUT_STATIONARY)[0]
        assert plan.tile_count == 1
        assert plan.dram_weight_bits == workload.weight_footprint_bits
        assert plan.dram_input_bits == workload.input_footprint_bits
        assert plan.dram_output_write_bits == workload.output_footprint_bits
        assert plan.dram_output_read_bits == 0

    def test_tile_counts_cover_workload(self, default_config):
        workload = GemmWorkload(
            m=4096, n=9216, r=64, input_bits=4, weight_bits=1, output_bits=4
        )
        plan = search_tilings((workload,), default_config, _OUTPUT_STATIONARY)[0]
        assert plan.m_tiles * plan.tile_m >= workload.m
        assert plan.n_tiles * plan.tile_n >= workload.n
        assert plan.r_tiles * plan.tile_r >= workload.r
        assert plan.tile_count == plan.m_tiles * plan.n_tiles * plan.r_tiles

    def test_tiles_respect_buffer_capacities(self, default_config):
        workload = GemmWorkload(
            m=8192, n=8192, r=256, input_bits=8, weight_bits=8, output_bits=8
        )
        plan = search_tilings((workload,), default_config, _OUTPUT_STATIONARY)[0]
        assert plan.tile_m * plan.tile_n * 8 <= default_config.wbuf_kb * 1024 * 8
        assert plan.tile_n * plan.tile_r * 8 <= default_config.ibuf_kb * 1024 * 8
        assert plan.tile_m * plan.tile_r * 32 <= default_config.obuf_kb * 1024 * 8

    def test_weight_stationary_fetches_weights_once(self, default_config):
        workload = GemmWorkload(
            m=512, n=4608, r=16384, input_bits=2, weight_bits=2, output_bits=2
        )
        plan = search_tilings(
            (workload,), default_config, (LoopOrder.WEIGHT_STATIONARY,)
        )[0]
        assert plan.dram_weight_bits == workload.weight_footprint_bits

    def test_input_stationary_fetches_inputs_once(self, default_config):
        workload = GemmWorkload(
            m=512, n=4608, r=16384, input_bits=2, weight_bits=2, output_bits=2
        )
        plan = search_tilings(
            (workload,), default_config, (LoopOrder.INPUT_STATIONARY,)
        )[0]
        assert plan.dram_input_bits == workload.input_footprint_bits

    def test_output_stationary_never_spills_partials(self, default_config):
        workload = GemmWorkload(
            m=10000, n=1280, r=16, input_bits=4, weight_bits=4, output_bits=8
        )
        plan = search_tilings((workload,), default_config, _OUTPUT_STATIONARY)[0]
        assert plan.dram_output_read_bits == 0
        assert plan.dram_output_write_bits == workload.output_footprint_bits

    def test_lower_weight_bitwidth_reduces_weight_traffic(self, default_config):
        high = GemmWorkload(m=1024, n=4096, r=256, input_bits=8, weight_bits=8, output_bits=8)
        low = GemmWorkload(m=1024, n=4096, r=256, input_bits=8, weight_bits=2, output_bits=8)
        plan_high = search_tilings((high,), default_config, _OUTPUT_STATIONARY)[0]
        plan_low = search_tilings((low,), default_config, _OUTPUT_STATIONARY)[0]
        assert plan_low.dram_weight_bits < plan_high.dram_weight_bits

    def test_with_output_store_bits_override(self, default_config):
        workload = GemmWorkload(m=16, n=16, r=16, input_bits=4, weight_bits=4, output_bits=4)
        plan = search_tilings((workload,), default_config, _OUTPUT_STATIONARY)[0]
        fused = plan.with_output_store_bits(128)
        assert fused.dram_output_write_bits == 128
        assert fused.dram_weight_bits == plan.dram_weight_bits
        with pytest.raises(ValueError):
            plan.with_output_store_bits(-1)

    def test_tile_r_bounded_by_sixteen_bit_loop_field(self, default_config):
        workload = GemmWorkload(
            m=1, n=1, r=10_000_000, input_bits=1, weight_bits=1, output_bits=1
        )
        plan = search_tilings((workload,), default_config, _OUTPUT_STATIONARY)[0]
        assert plan.tile_r <= (1 << 16) - 1

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=4096),
        n=st.integers(min_value=1, max_value=8192),
        r=st.integers(min_value=1, max_value=4096),
        bits=st.sampled_from((1, 2, 4, 8, 16)),
        order=st.sampled_from(list(LoopOrder)),
    )
    def test_traffic_at_least_compulsory_property(self, m, n, r, bits, order):
        """Property: DRAM traffic can never drop below one fetch of each tensor."""
        config = BitFusionConfig.eyeriss_matched()
        workload = GemmWorkload(m=m, n=n, r=r, input_bits=bits, weight_bits=bits, output_bits=bits)
        plan = search_tilings((workload,), config, (order,))[0]
        assert plan.dram_weight_bits >= workload.weight_footprint_bits
        assert plan.dram_input_bits >= workload.input_footprint_bits
        assert plan.dram_output_write_bits >= workload.output_footprint_bits
