"""Tests for the compiler optimizations: loop ordering and layer fusion."""

from __future__ import annotations

import pytest

from repro.dnn.layers import ActivationLayer, ConvLayer, FCLayer, PoolLayer
from repro.isa.instructions import LoopOrder
from repro.isa.optimizations import fuse_layers
from repro.isa.tiling import GemmWorkload, plan_tiling, search_tiling


class TestChooseLoopOrder:
    def test_returns_minimum_traffic_plan(self, default_config):
        workload = GemmWorkload(
            m=512, n=4608, r=16384, input_bits=2, weight_bits=2, output_bits=2
        )
        best = search_tiling(workload, default_config, tuple(LoopOrder))
        for order in LoopOrder:
            candidate = plan_tiling(workload, default_config, order)
            assert best.total_dram_bits <= candidate.total_dram_bits

    def test_conv_like_workload_prefers_keeping_weights_on_chip(self, default_config):
        """Large spatial reuse + small weights: weights should be fetched once."""
        workload = GemmWorkload(
            m=128, n=1152, r=16384, input_bits=2, weight_bits=2, output_bits=2
        )
        best = search_tiling(workload, default_config, tuple(LoopOrder))
        assert best.dram_weight_bits == workload.weight_footprint_bits

    def test_fc_like_workload_avoids_weight_refetch(self, default_config):
        """Huge weights, tiny batch: weights must not be re-fetched per output tile."""
        workload = GemmWorkload(
            m=10000, n=1280, r=16, input_bits=4, weight_bits=4, output_bits=8
        )
        best = search_tiling(workload, default_config, tuple(LoopOrder))
        assert best.dram_weight_bits == workload.weight_footprint_bits

    def test_restricting_orders_changes_search_space(self, default_config):
        workload = GemmWorkload(
            m=4096, n=9216, r=64, input_bits=4, weight_bits=1, output_bits=4
        )
        only_output = search_tiling(workload, default_config, (LoopOrder.OUTPUT_STATIONARY,))
        assert only_output.loop_order is LoopOrder.OUTPUT_STATIONARY

    def test_rejects_empty_order_list(self, default_config):
        workload = GemmWorkload(m=8, n=8, r=8, input_bits=4, weight_bits=4, output_bits=4)
        with pytest.raises(ValueError):
            search_tiling(workload, default_config, ())


class TestFuseLayers:
    def _layers(self):
        conv = ConvLayer(name="conv", in_channels=4, out_channels=8, in_height=8, in_width=8,
                         kernel=3, padding=1)
        pool = PoolLayer(name="pool", channels=8, in_height=8, in_width=8, kernel=2, stride=2)
        act = ActivationLayer(name="act", elements=128)
        fc = FCLayer(name="fc", in_features=128, out_features=10)
        return conv, pool, act, fc

    def test_pool_and_activation_fuse_into_preceding_conv(self):
        conv, pool, act, fc = self._layers()
        decision = fuse_layers([conv, pool, act, fc])
        assert decision.groups == ((conv, pool, act), (fc,))
        assert decision.fused_layer_count == 2

    def test_fusion_disabled_gives_singleton_groups(self):
        conv, pool, act, fc = self._layers()
        decision = fuse_layers([conv, pool, act, fc], enable=False)
        assert all(len(group) == 1 for group in decision.groups)
        assert decision.fused_layer_count == 0

    def test_leading_pool_layer_gets_its_own_group(self):
        conv, pool, _, _ = self._layers()
        decision = fuse_layers([pool, conv])
        assert decision.groups[0] == (pool,)
        assert decision.groups[1] == (conv,)

    def test_consecutive_compute_layers_never_fuse(self):
        conv, _, _, fc = self._layers()
        decision = fuse_layers([conv, fc])
        assert decision.groups == ((conv,), (fc,))

    def test_empty_layer_list(self):
        assert fuse_layers([]).groups == ()

    def test_every_layer_appears_exactly_once(self):
        conv, pool, act, fc = self._layers()
        layers = [conv, pool, act, fc]
        decision = fuse_layers(layers)
        flattened = [layer for group in decision.groups for layer in group]
        assert flattened == layers
