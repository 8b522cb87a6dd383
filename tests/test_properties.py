"""Cross-module property-based tests (hypothesis) on the core invariants.

The invariants here are the ones the paper's argument rests on:

* bit-level decomposition is lossless for *every* operand pair at *every*
  supported bitwidth (not just the examples of Figures 6/7),
* the fusion fabric's dot products equal integer arithmetic for arbitrary
  vectors, including mixed signs and bitwidths,
* the tiling/traffic model never undercounts compulsory traffic and always
  produces tiles that fit the scratchpads,
* the cycle model never reports more than 100% utilization.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.config import BitFusionConfig
from repro.core.decompose import decompose_multiply, recompose_product
from repro.core.fusion_unit import FusionUnit, fusion_config_for
from repro.isa.instructions import LoopOrder
from repro.isa.tiling import GemmWorkload, plan_tiling

from reference.simulator import GemmCycleModel

_BITWIDTHS = (1, 2, 4, 8, 16)


def _bounds(bits: int, signed: bool = True) -> tuple[int, int]:
    if signed:
        return -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return 0, (1 << bits) - 1


class TestDecompositionProperties:
    @settings(max_examples=300)
    @given(
        a_bits=st.sampled_from((2, 4, 8, 16)),
        b_bits=st.sampled_from((2, 4, 8, 16)),
        signed=st.booleans(),
        data=st.data(),
    )
    def test_mixed_sign_decomposition_lossless(self, a_bits, b_bits, signed, data):
        a_lo, a_hi = _bounds(a_bits, signed)
        b_lo, b_hi = _bounds(b_bits, True)
        a = data.draw(st.integers(min_value=a_lo, max_value=a_hi))
        b = data.draw(st.integers(min_value=b_lo, max_value=b_hi))
        decomposition = decompose_multiply(a, b, a_bits, b_bits, a_signed=signed, b_signed=True)
        assert recompose_product(decomposition) == a * b

    @settings(max_examples=100)
    @given(
        a_bits=st.sampled_from((2, 4, 8, 16)),
        b_bits=st.sampled_from((2, 4, 8, 16)),
    )
    def test_brick_count_invariant(self, a_bits, b_bits):
        decomposition = decompose_multiply(0, 0, a_bits, b_bits)
        assert decomposition.brick_count == (a_bits // 2) * (b_bits // 2)


class TestFusionUnitProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        input_bits=st.sampled_from((2, 4, 8)),
        weight_bits=st.sampled_from((2, 4, 8)),
        data=st.data(),
    )
    def test_mixed_bitwidth_dot_products(self, input_bits, weight_bits, data):
        unit = FusionUnit()
        unit.configure(input_bits, weight_bits)
        i_lo, i_hi = _bounds(input_bits)
        w_lo, w_hi = _bounds(weight_bits)
        length = data.draw(st.integers(min_value=1, max_value=40))
        inputs = data.draw(
            st.lists(st.integers(min_value=i_lo, max_value=i_hi), min_size=length, max_size=length)
        )
        weights = data.draw(
            st.lists(st.integers(min_value=w_lo, max_value=w_hi), min_size=length, max_size=length)
        )
        assert unit.dot_product(inputs, weights) == int(
            np.dot(np.asarray(inputs), np.asarray(weights))
        )

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
