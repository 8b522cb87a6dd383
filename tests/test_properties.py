"""Cross-module property-based tests (hypothesis) on the core invariants.

The invariants here are the ones the paper's argument rests on:

* a Fusion Unit's throughput is inversely proportional to the BitBricks
  one multiply occupies (the lossless decomposition itself is checked
  exhaustively in ``test_bitbrick.py``),
* the tiling/traffic model never undercounts compulsory traffic and always
  produces tiles that fit the scratchpads,
* the cycle model never reports more than 100% utilization.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.config import BitFusionConfig
from repro.core.fusion_unit import fusion_config_for
from repro.isa.instructions import LoopOrder
from repro.isa.tiling import GemmWorkload, plan_tiling

from reference.simulator import GemmCycleModel

_BITWIDTHS = (1, 2, 4, 8, 16)


class TestFusionUnitProperties:
    @given(
        input_bits=st.sampled_from(_BITWIDTHS),
        weight_bits=st.sampled_from(_BITWIDTHS),
    )
    def test_throughput_inversely_proportional_to_brick_demand(self, input_bits, weight_bits):
        config = fusion_config_for(input_bits, weight_bits)
        bricks_per_mac = config.bricks_per_fpe * config.temporal_passes
        assert config.macs_per_cycle * bricks_per_mac == 16


class TestTilingProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=8192),
        n=st.integers(min_value=1, max_value=16384),
        r=st.integers(min_value=1, max_value=8192),
        input_bits=st.sampled_from(_BITWIDTHS),
        weight_bits=st.sampled_from(_BITWIDTHS),
        order=st.sampled_from(list(LoopOrder)),
    )
    def test_tiles_always_fit_buffers(self, m, n, r, input_bits, weight_bits, order):
        config = BitFusionConfig.eyeriss_matched()
        workload = GemmWorkload(
            m=m, n=n, r=r, input_bits=input_bits, weight_bits=weight_bits, output_bits=input_bits
        )
        plan = plan_tiling(workload, config, order)
        assert plan.tile_m * plan.tile_n * weight_bits <= config.wbuf_kb * 1024 * 8
        assert plan.tile_n * plan.tile_r * input_bits <= config.ibuf_kb * 1024 * 8
        assert plan.tile_m * plan.tile_r * 32 <= config.obuf_kb * 1024 * 8
        assert plan.m_tiles * plan.tile_m >= m
        assert plan.n_tiles * plan.tile_n >= n
        assert plan.r_tiles * plan.tile_r >= r

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=4096),
        n=st.integers(min_value=1, max_value=8192),
        r=st.integers(min_value=1, max_value=4096),
        bits=st.sampled_from((2, 4, 8)),
    )
    def test_utilization_bounded(self, m, n, r, bits):
        config = BitFusionConfig.eyeriss_matched()
        workload = GemmWorkload(m=m, n=n, r=r, input_bits=bits, weight_bits=bits, output_bits=bits)
        plan = plan_tiling(workload, config)
        estimate = GemmCycleModel(config).estimate(plan)
        assert 0.0 < estimate.utilization <= 1.0
        assert estimate.total_cycles >= estimate.ideal_cycles
